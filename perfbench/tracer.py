"""Spans around the calls into each schurcensus module, recorded from
outside the package.

The package resolves every traced name at call time, as a module global or
a class attribute, so swapping in a timing wrapper for the length of one job
sees every call, and putting the originals back leaves nothing behind.
Spans live in memory (name, start, end, parent span, run id) and are
written out once, after the job.  The oracle's search counters come from
the DEBUG record ``automorphism_group`` already logs.

Spans are named after the module that defines the function, not the one
the wrapper sits in.  A layer's ``.s`` metric is its inclusive time and
``.self_s`` its time minus that of its child spans.
"""

from __future__ import annotations

import gzip
import logging
import statistics
import time
from pathlib import Path

# (module, class or None, attribute, span name)
TARGETS = (
    ("analysis", None, "schurian_test", "analysis.schurian_test"),
    ("analysis", None, "verify_schur_axioms", "schur.verify_schur_axioms"),
    ("analysis", None, "cayley_color_graph", "analysis.cayley_color_graph"),
    ("analysis", None, "automorphism_group", "perms.automorphism_group"),
    ("analysis", None, "condition_holds", "lines.condition_holds"),
    ("analysis", None, "enumerate_partitions", "lines.enumerate"),
    ("perms", None, "color_refinement", "perms.color_refinement"),
    ("perms", "PermGroup", "__init__", "perms.PermGroup.__init__"),
    ("perms", "PermGroup", "point_stabilizer", "perms.point_stabilizer"),
    ("perms", "PermGroup", "orbits", "perms.orbits"),
    ("schur", "SchurBasis", "from_partition", "schur.from_partition"),
    ("gf", "Field", "is_subfield", "gf.is_subfield"),
    ("cli", None, "census", "analysis.census"),
    ("cli", None, "emit_report", "cli.emit_report"),
)
GENERATORS = {"lines.enumerate"}  # traced per next(), not per call
SEARCH_LOGGER = "schurcensus.perms"


class _SearchRecords(logging.Handler):
    """Keeps the arguments of each 'automorphism search' DEBUG record:
    (vertices, nodes, leaf tests, generators, order)."""

    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.records: list[tuple] = []

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("automorphism search"):
            self.records.append(record.args)


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.partitions = 0
        self.searches = _SearchRecords()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._logger_level = logging.NOTSET

    # -- spans

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def _wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))
        return traced

    def _iterate(self, name: str, inner):
        while True:
            index = self._open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._close(index)
            self.partitions += 1
            yield item

    # -- installing and removing the wrappers

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in _resolve():
            original = vars(owner)[attr]
            if name in GENERATORS:
                replacement = self._wrap_generator(name, original)
            elif isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        logger = logging.getLogger(SEARCH_LOGGER)
        self._logger_level = logger.level
        logger.setLevel(logging.DEBUG)
        logger.addHandler(self.searches)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        logger = logging.getLogger(SEARCH_LOGGER)
        logger.removeHandler(self.searches)
        logger.setLevel(self._logger_level)

    def restored(self) -> bool:
        """True when every wrapper and the log handler are gone again."""
        logger = logging.getLogger(SEARCH_LOGGER)
        return (all(vars(owner)[attr] is original
                    for owner, attr, original in self._saved)
                and self.searches not in logger.handlers
                and logger.level == self._logger_level)

    # -- results

    def _durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def spans_by_name(self) -> dict[str, list]:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        durations = self._durations()
        in_children = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                in_children[parent] += duration
        table: dict[str, list] = {}
        for name, duration, inner in zip(self.names, durations, in_children):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - inner
        return table

    def layer_metrics(self, wall_s: float, report_bytes: int) -> dict[str, float]:
        """The per-layer metrics one traced job yields; the pool and the
        overhead metrics need untraced jobs and are added by the caller."""
        table = self.spans_by_name()

        def calls(name):
            return table.get(name, (0, 0.0, 0.0))[0]

        def inclusive(name):
            return table.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return table.get(name, (0, 0.0, 0.0))[2]

        durations = self._durations()
        tests = [1000 * d for n, d in zip(self.names, durations)
                 if n == "analysis.schurian_test"]
        schreier_sims = sum(
            d for n, p, d in zip(self.names, self.parents, durations)
            if n == "perms.PermGroup.__init__" and p >= 0
            and self.names[p] == "perms.automorphism_group")
        top_level = sum(d for p, d in zip(self.parents, durations) if p < 0)
        searches = self.searches.records
        leaf_tests = sum(r[2] for r in searches)
        generators = sum(r[3] for r in searches)
        refinements = calls("perms.color_refinement")
        return {
            "perms.color_refinement.calls": refinements,
            "perms.color_refinement.s": inclusive("perms.color_refinement"),
            "perms.color_refinement.ms_per_call":
                1000 * inclusive("perms.color_refinement") / refinements
                if refinements else 0.0,
            "perms.schreier_sims.s": schreier_sims,
            "perms.point_stabilizer.s": inclusive("perms.point_stabilizer"),
            "perms.orbits.s": inclusive("perms.orbits"),
            "perms.automorphism_group.self_s": own("perms.automorphism_group"),
            "perms.search_nodes": sum(r[1] for r in searches),
            "perms.leaf_tests": leaf_tests,
            "perms.generators": generators,
            "perms.leaf_hit_ratio": generators / leaf_tests if leaf_tests else 0.0,
            "analysis.schurian_test.calls": len(tests),
            "analysis.schurian_test.self_s": own("analysis.schurian_test"),
            "analysis.schurian_test.p50_ms": statistics.median(tests) if tests else 0.0,
            "analysis.schurian_test.max_ms": max(tests, default=0.0),
            "analysis.cayley_color_graph.s": inclusive("analysis.cayley_color_graph"),
            "schur.from_partition.s": inclusive("schur.from_partition"),
            "schur.verify_schur_axioms.calls": calls("schur.verify_schur_axioms"),
            "schur.verify_schur_axioms.s": inclusive("schur.verify_schur_axioms"),
            "lines.enumerate.partitions": self.partitions,
            "lines.enumerate.s": own("lines.enumerate"),
            "lines.condition_holds.calls": calls("lines.condition_holds"),
            "lines.condition_holds.s": inclusive("lines.condition_holds"),
            "gf.is_subfield.calls": calls("gf.is_subfield"),
            "gf.is_subfield.s": inclusive("gf.is_subfield"),
            "analysis.census.self_s": own("analysis.census"),
            "cli.emit_report.s": inclusive("cli.emit_report"),
            "cli.report_bytes": report_bytes,
            "trace.residual_frac": 1 - top_level / wall_s,
        }

    def dump(self, path: Path) -> None:
        """Write every span as gzipped TSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("run_id\tspan\tparent\tname\tstart\tend\n")
            for index, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                out.write(f"{self.run_id}\t{index}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


def _resolve():
    """(owner, attribute, span name) for every target, owners imported."""
    import importlib

    out = []
    for module, cls, attr, name in TARGETS:
        owner = importlib.import_module(f"schurcensus.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        out.append((owner, attr, name))
    return out
