"""The census jobs the benchmark runs, and how one job is driven.

Every input is exhaustive over a field's slopes, so the field literal fixes
it and no seed varies it.  A job is closed-loop: one report per process,
written to a file before the clock stops.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import NamedTuple


class Workload(NamedTuple):
    job: str  # "cross-validate", "stretch" or "census"
    field: str
    workers: int


WORKLOADS = {
    # the timed workloads named in BENCHMARK.json
    "xv-q5": Workload("cross-validate", "5^1", 2),
    "stretch-q7": Workload("stretch", "7^1", 1),
    "census-q9": Workload("census", "3^2", 1),
    # the full-size jobs; each outlasts a whole timed run, so they are for
    # single manual runs (--seconds 1)
    "xv-q7": Workload("cross-validate", "7^1", 2),
    "stretch-q9": Workload("stretch", "3^2", 1),
    # miniatures for the self-test
    "xv-q3": Workload("cross-validate", "3^1", 2),
    "stretch-q5": Workload("stretch", "5^1", 1),
    "census-q5": Workload("census", "5^1", 1),
}


def run_job(spec: Workload, out_path: Path) -> int:
    """Run one job, write its canonical TSV report to ``out_path`` and
    return its exit status.

    The CLI has no filtered scope, so the stretch job calls the library the
    way the stretch acceptance criterion does and renders it with the CLI's
    own emitter."""
    from schurcensus import analysis, cli, gf

    if spec.job == "stretch":
        table = analysis.cross_validate(gf.field_from_literal(spec.field),
                                        scope="filtered", workers=spec.workers)
        out_path.write_bytes(cli.emit_report(table, "tsv"))
        return 0
    argv = [spec.job, "--field", spec.field, "--format", "tsv",
            "--output", str(out_path)]
    if spec.job == "cross-validate":
        argv += ["--workers", str(spec.workers)]
    return cli.main(argv)


def summarize(report: bytes) -> tuple[int, dict[str, int]]:
    """Row count and verdict counts of a TSV report: the criterion verdict,
    joined by ``/`` to the oracle verdict where the table has one."""
    rows = report.decode("utf-8").splitlines()[1:]
    counts = Counter("/".join(row.split("\t")[1:3]) for row in rows)
    return len(rows), dict(sorted(counts.items()))
