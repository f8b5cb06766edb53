"""Self-test of the benchmark on miniature jobs over the fields 3^1 and 5^1,
through the same code path as a timed run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, run_job  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCES = json.loads((HERE / "references.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def out_dir():
    run.OUT.mkdir(exist_ok=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["xv-q3", "stretch-q5", "census-q5"])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    defs = BENCH["per_layer" if trace else "end_to_end"]
    result, record = run.report(name, 0, 0.1, trace, REFERENCES[name], defs)
    assert result["correct"] and result["failed"] == 0
    assert record["failed_frac"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in defs]
    for m in defs:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in defs)


def test_traced_layers_see_the_oracle():
    result, _ = run.report("stretch-q5", 0, 0.1, True, REFERENCES["stretch-q5"],
                           BENCH["per_layer"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["analysis.schurian_test.calls"] == 4
    assert values["lines.enumerate.partitions"] == 4  # the filtered stream
    assert values["perms.search_nodes"] == values["perms.color_refinement.calls"] > 0
    assert 0 < values["perms.leaf_hit_ratio"] <= 1
    assert 0 <= values["trace.residual_frac"] < 0.5


def test_a_corrupted_digest_fails_every_job():
    reference = dict(REFERENCES["census-q5"], sha256="0" * 64)
    result, record = run.report("census-q5", 0, 0.1, False, reference,
                                BENCH["end_to_end"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert record["failed_frac"] == 1


def test_every_wrapper_is_removed_after_a_traced_job(tmp_path):
    targets = tracer._resolve()
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    logger = logging.getLogger(tracer.SEARCH_LOGGER)
    level, handlers = logger.level, list(logger.handlers)
    spans = tracer.Tracer("selftest")
    spans.install()
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr, _), original in zip(targets, originals))
        code = run_job(WORKLOADS["xv-q3"]._replace(workers=1), tmp_path / "report.tsv")
    finally:
        spans.uninstall()
    assert code == 0
    assert spans.restored()
    assert all(vars(owner)[attr] is original
               for (owner, attr, _), original in zip(targets, originals))
    assert (logger.level, logger.handlers) == (level, handlers)
    data = (tmp_path / "report.tsv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == REFERENCES["xv-q3"]["sha256"]
    assert set(spans.spans_by_name()) >= {name for *_, name in tracer.TARGETS} - {
        "analysis.census"}


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-q5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
