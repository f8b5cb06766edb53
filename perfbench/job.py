"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py WORKLOAD SPAWNED_AT [--workers N]
                             [--trace SPANS_PATH --run-id ID] [--setup-only]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is shared by all processes, so the set-up time
reported here runs from the spawn, through interpreter start, the package
import, the field and its group tables, to the start of the job.  The last
line of output is one JSON object with the job's measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, run_job, summarize  # noqa: E402


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    if args.workers is not None:
        spec = spec._replace(workers=args.workers)

    from schurcensus import gf, schur

    schur.group_tables(gf.field_from_literal(spec.field))
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    report = ROOT / "perfbench" / "out" / f"report-{os.getpid()}.tsv"
    self_before = _cpu(resource.RUSAGE_SELF)
    children_before = _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        code = run_job(spec, report)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    self_cpu = _cpu(resource.RUSAGE_SELF) - self_before
    children_cpu = _cpu(resource.RUSAGE_CHILDREN) - children_before
    data = report.read_bytes() if report.exists() else b""
    report.unlink(missing_ok=True)
    rows, counts = summarize(data)
    result.update(
        exit=code, wall_s=wall, self_cpu_s=self_cpu, children_cpu_s=children_cpu,
        workers=spec.workers,
        rss_kb=max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        rows=rows, counts=counts, bytes=len(data),
        sha256=hashlib.sha256(data).hexdigest())
    if tracer is not None:
        result.update(layers=tracer.layer_metrics(wall, len(data)),
                      spans=tracer.spans_by_name(), restored=tracer.restored())
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
