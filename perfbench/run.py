"""Census benchmark: real schurcensus jobs, timed end to end or traced per
module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job runs in a fresh interpreter (perfbench/job.py), so set-up, caches
and peak memory are those of a real invocation.  Jobs repeat until
``--seconds`` have passed, and every report is checked against the sha256,
row count and verdict counts recorded in perfbench/references.json; a job
that differs counts as failed and its timing is not used.  Metrics are
medians over the jobs that passed; ``setup_s`` also takes in a few
set-up-only interpreters after each job, since one set-up is short and
noisy.

``--trace 0`` times the job as configured and prints the end-to-end metrics
of BENCHMARK.json.  ``--trace 1`` repeats three jobs per round and prints
the per-layer metrics: the job as configured, untraced (pool busy share);
the job on one worker, untraced; and the same single-worker job with every
layer wrapped (see tracer.py), since spans in pool workers would be lost.
Tracing overhead compares the last two, so like is compared with like.

The inputs are exhaustive over a field's slopes, so ``--seed`` changes
nothing in them; it only names the run.  The last line of output is one
JSON object; the full record, with environment and per-job samples, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
SETUPS_PER_ROUND = 3  # set-up-only interpreters per timed job

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# one job in a child process
# ---------------------------------------------------------------------------

def run_child(name: str, deadline: float, *, workers: int | None = None,
              trace: Path | None = None, run_id: str = "",
              setup_only: bool = False) -> dict:
    """Run perfbench/job.py and return its measurements, or a dict with
    an ``error`` key.  The child leads its own process group, so pool
    workers die with it if it has to be killed."""
    extra = []
    if workers is not None:
        extra += ["--workers", str(workers)]
    if trace is not None:
        extra += ["--trace", str(trace), "--run-id", run_id]
    if setup_only:
        extra.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), name, repr(spawned), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return {"error": "timed out"}
    if proc.returncode != 0:
        _kill_group(proc.pid)
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"job exited with status {proc.returncode}: {tail[0]}"}
    return json.loads(out.strip().splitlines()[-1])


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def problems(sample: dict, reference: dict) -> list[str]:
    """Why a job's output does not match the reference (empty if it does)."""
    if "error" in sample:
        return [sample["error"]]
    found = []
    if sample["exit"] != 0:
        found.append(f"exit status {sample['exit']}")
    for key in ("rows", "counts", "sha256"):
        if sample[key] != reference[key]:
            found.append(f"{key} {sample[key]!r} differs from the reference "
                         f"{reference[key]!r}")
    if sample.get("restored") is False:
        found.append("tracing wrappers were left installed")
    return found


# ---------------------------------------------------------------------------
# a run: repeated jobs, medians
# ---------------------------------------------------------------------------

def _spread(values) -> float | None:
    """Interquartile range as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _busy_frac(sample: dict) -> float:
    # worker CPU over the worker-seconds on offer; 0 when no pool runs
    if sample["workers"] == 1:
        return 0.0
    return sample["children_cpu_s"] / (sample["workers"] * sample["wall_s"])


def end_to_end(samples: list[dict], setups: list[float]) -> dict[str, list[float]]:
    return {
        "wall_s": [s["wall_s"] for s in samples],
        "rows_per_s": [s["rows"] / s["wall_s"] for s in samples],
        "cpu_s": [s["self_cpu_s"] + s["children_cpu_s"] for s in samples],
        "peak_rss_mb": [s["rss_kb"] / 1024 for s in samples],
        "setup_s": setups,
    }


def measure(name: str, reference: dict, seconds: float, trace: bool,
            seed: int) -> dict:
    """Repeat the workload's job for ``seconds``; return every job as
    (round, role, sample, problems) and the per-metric sample lists,
    end-to-end or per-layer.  Raises RuntimeError when no job completed."""
    spec = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    warm = run_child(name, deadline, setup_only=True)  # fills bytecode caches
    if "error" in warm:
        raise RuntimeError(f"set-up failed: {warm['error']}")
    jobs: list[tuple[int, str, dict, list[str]]] = []

    def job(rnd, role, **kwargs):
        sample = run_child(name, deadline, **kwargs)
        jobs.append((rnd, role, sample, problems(sample, reference)))

    setups: list[float] = []
    rnd, last = 0, 0.0
    # start another round only if it should end, by the length of the
    # last one, no more than half a round after --seconds
    while rnd == 0 or time.monotonic() - start + last / 2 < seconds:
        began = time.monotonic()
        if not trace:
            job(rnd, "timed")
            # set-up alone is short and noisy, so a round samples it a few
            # more times than the one job does
            for _ in range(SETUPS_PER_ROUND):
                sample = run_child(name, deadline, setup_only=True)
                if "error" not in sample:
                    setups.append(sample["setup_s"])
        else:
            job(rnd, "plain")
            if spec.workers != 1:
                job(rnd, "solo", workers=1)
            job(rnd, "traced", workers=1, run_id=f"{name}-seed{seed}-{rnd}",
                trace=OUT / f"spans-{name}-seed{seed}-{rnd}.tsv.gz")
        rnd, last = rnd + 1, time.monotonic() - began
        if any("error" in sample for _, _, sample, _ in jobs):
            break  # a crash or a timeout will not go away by repeating

    def usable(role):
        # timings of jobs that passed; of the others only if none passed
        done = [(r, s, p) for r, rl, s, p in jobs if rl == role and "error" not in s]
        return [(r, s) for r, s, p in done if not p] or [(r, s) for r, s, _ in done]

    if not trace:
        timed = [s for _, s in usable("timed")]
        if not timed:
            raise RuntimeError(f"no job completed: {jobs[-1][2]['error']}")
        setups += [s["setup_s"] for s in timed]
        return {"jobs": jobs, "values": end_to_end(timed, setups)}
    traced = dict(usable("traced"))
    if not traced:
        raise RuntimeError(f"no traced job completed: {jobs[-1][2]['error']}")
    values = {key: [s["layers"][key] for s in traced.values()]
              for key in next(iter(traced.values()))["layers"]}
    values["analysis.pool.busy_frac"] = [_busy_frac(s) for _, s in usable("plain")]
    base = dict(usable("solo" if spec.workers != 1 else "plain"))
    values["trace.overhead_frac"] = [traced[r]["wall_s"] / base[r]["wall_s"]
                                     for r in traced if r in base]
    return {"jobs": jobs, "values": values}


# ---------------------------------------------------------------------------
# environment and history
# ---------------------------------------------------------------------------

def environment(workers: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workers": workers,
        "platform": platform.platform(),
    }


def run_to_run_spread(record: dict) -> dict[str, float | None]:
    """Append this run's medians to out/history.jsonl and return, per
    metric, the spread over every recorded run of the same workload, mode
    and source tree."""
    line = {"workload": record["workload"], "trace": record["trace"],
            "source_sha256": record["environment"]["source_sha256"],
            "medians": record["medians"]}
    history = OUT / "history.jsonl"
    with history.open("a", encoding="utf-8") as out:
        out.write(json.dumps(line) + "\n")
    same = ("workload", "trace", "source_sha256")
    runs = [json.loads(text) for text in history.read_text(encoding="utf-8").splitlines()]
    runs = [r for r in runs if all(r.get(k) == line[k] for k in same)]
    return {key: _spread([r["medians"][key] for r in runs if key in r["medians"]])
            for key in record["medians"]}


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def _percent(value) -> str:
    return "-" if value is None else f"{100 * value:.1f}"


def report(name: str, seed: int, seconds: float, trace: bool,
           reference: dict, metric_defs: list[dict]) -> tuple[dict, dict]:
    """Measure, and return the result line and the full record."""
    spec = WORKLOADS[name]
    measured = measure(name, reference, seconds, trace, seed)
    jobs, values = measured["jobs"], measured["values"]
    missing = [m["name"] for m in metric_defs if not values.get(m["name"])]
    if missing:
        raise RuntimeError(f"no completed job yields {', '.join(missing)}")
    metrics = {m["name"]: {"value": statistics.median(values[m["name"]]),
                           "unit": m["unit"]}
               for m in metric_defs}
    failed = sum(1 for *_, p in jobs if p)
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "spec": spec._asdict(), "environment": environment(spec.workers),
        "reference": reference, "result": result,
        "failed_frac": failed / len(jobs),
        "medians": {k: v["value"] for k, v in metrics.items()},
        "samples": {k: values[k] for k in metrics},
        "spread_over_jobs": {k: _spread(values[k]) for k in metrics},
        "jobs": [{"round": r, "role": role, "problems": p,
                  **{k: v for k, v in s.items() if k != "spans"}}
                 for r, role, s, p in jobs],
    }
    traced = [s for _, role, s, _ in jobs if role == "traced" and "spans" in s]
    if traced:
        record["spans"] = traced[-1]["spans"]
        record["traced_wall_s"] = traced[-1]["wall_s"]
    record["spread_over_runs"] = run_to_run_spread(record)
    return result, record


def print_table(record: dict) -> None:
    env = record["environment"]
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  jobs {result['attempted']}  "
          f"failed {result['failed']}  failed_frac {record['failed_frac']:.3g}")
    print(f"env: {env['cpu_model']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, commit {env['git_commit'] or 'n/a'}, "
          f"src sha256 {env['source_sha256'][:12]}, workers {env['workers']}")
    for job in record["jobs"]:
        for problem in job["problems"]:
            print(f"FAILED {job['role']} job: {problem}")
    print(f"{'metric':40} {'median':>14} {'unit':8} {'n':>3} "
          f"{'IQR% jobs':>10} {'IQR% runs':>10}")
    for key, metric in result["metrics"].items():
        print(f"{key:40} {metric['value']:14.6g} {metric['unit']:8} "
              f"{len(record['samples'][key]):3d} "
              f"{_percent(record['spread_over_jobs'][key]):>10} "
              f"{_percent(record['spread_over_runs'][key]):>10}")
    if "spans" in record:
        wall = record["traced_wall_s"]
        print(f"self time by span, last traced job ({wall:.3f} s wall):")
        print(f"{'span':32} {'calls':>9} {'total s':>10} {'self s':>10} {'self %':>7}")
        for span, (calls, total, own) in sorted(record["spans"].items(),
                                                key=lambda kv: -kv[1][2]):
            print(f"{span:32} {calls:9d} {total:10.4f} {own:10.4f} "
                  f"{100 * own / wall:7.2f}")
        print(f"{'(no span)':32} {'':9} {'':10} "
              f"{wall * record['medians']['trace.residual_frac']:10.4f} "
              f"{100 * record['medians']['trace.residual_frac']:7.2f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "schurcensus" / "__init__.py").is_file():
        print(f"error: no schurcensus package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS or args.workload not in references:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    metric_defs = bench["per_layer" if args.trace else "end_to_end"]
    try:
        result, record = report(args.workload, args.seed, args.seconds,
                                bool(args.trace), references[args.workload], metric_defs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_table(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
