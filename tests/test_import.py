"""Importing the package caps BLAS at one thread, and only by default; a
pooled run, and one whose worker dies, loads no process-pool machinery."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="needs /proc/self/task to count threads")


def fresh_import(code, **preset):
    """Run ``code`` then report the thread count and the BLAS variables, in
    a new interpreter whose environment holds only ``preset`` of them."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(preset, PYTHONPATH=str(SRC))
    report = ("import json, os; print(json.dumps([len(os.listdir('/proc/self/task')), "
              f"[os.environ.get(k) for k in {BLAS_VARIABLES!r}]]))")
    done = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_the_package_starts_no_blas_thread():
    assert fresh_import("import schurcensus") == [1, ["1", "1"]]


def test_a_preset_thread_count_wins():
    _, values = fresh_import("import schurcensus", OPENBLAS_NUM_THREADS="2")
    assert values == ["2", "1"]


def test_numpy_imported_first_is_left_alone():
    _, values = fresh_import("import numpy\nimport schurcensus")
    assert values == [None, None]


def test_a_pooled_run_loads_no_pool_machinery():
    # the workers are forked directly: neither the import nor a run on two
    # workers loads concurrent.futures or multiprocessing, and only an
    # abort loads signal; a worker that dies raises WorkerError, which
    # loads none of them either
    run = ("import sys, schurcensus\n"
           "schurcensus.cross_validate(schurcensus.make_field(3, 1), workers=2)\n"
           "print(sorted(m for m in ('concurrent.futures', 'concurrent.futures.process',"
           " 'multiprocessing', 'signal') if m in sys.modules))")
    # the child dies on the first orbit it claims; the parent pauses on its
    # own, so that a child claims one
    death = ("import os, sys, time, schurcensus\n"
             "from schurcensus import analysis\n"
             "parent, real = os.getpid(), analysis._oracle_worker\n"
             "analysis._oracle_worker = lambda pi, oracle_cap: (\n"
             "    os._exit(1) if os.getpid() != parent\n"
             "    else time.sleep(0.02) or real(pi, oracle_cap))\n"
             "try:\n"
             "    schurcensus.cross_validate(schurcensus.make_field(3, 1), workers=2)\n"
             "except schurcensus.WorkerError:\n"
             "    print(sorted(m for m in ('concurrent.futures',"
             " 'concurrent.futures.process', 'multiprocessing') if m in sys.modules))")
    for code in (run, death):
        done = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]", code
