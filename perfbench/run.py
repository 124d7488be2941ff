"""nesslab benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload window|sweep|lattice --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; nesslab is imported from its ``src``.  The
run starts ``SETUP_SAMPLES`` fresh interpreters one after another, each of
which imports nesslab and does one untimed warm-up task; the last of them
goes on to measure whole rounds of the workload, as many as take about
``--seconds`` on the reference host (``worker.py`` says how many).  BLAS
threads are capped at the number of cores the process may use.  Set-up is
wall time; tasks are timed by ``workloads.clock``.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
they are the per-layer ones of the traced run.  The line before it holds
the details: sample counts, the tail percentile used, the environment and
a count of failures by function and exception.  The full record, every
failure with its inputs included, goes to ``perfbench/out/``; the traced
run also writes its spans there.  ``compare.py`` compares two such
directories.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 5
TIMEOUT_S = 170.0
# what one unit of throughput is; the metric itself reads work/s everywhere
WORK = {
    "window": "matrix element (upper triangle of a completed window)",
    "sweep": "field point",
    "lattice": "oracle case",
}
# tail percentile per workload: window's 36 tasks leave ten above p70; sweep
# runs thousands of points, and p99 stays clear of the ~0.6% that nesslab
# 0.1.0 fails on, which rank as the whole run; five lattice cases leave ten
# above no percentile, so lattice reports its slowest case
TAIL_PERCENTILE = {"window": 70, "sweep": 99, "lattice": 100}


def cores() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": cores(),
        "blas": vendor,
        "blas_threads": int(worker_env()["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cores())
    return env


def start_worker(extra: list[str], deadline: float):
    """Start a worker and wait for its ready line.

    Returns the process, the timer that kills it at ``deadline``, and the
    set-up time from start to ready.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if not line or json.loads(line).get("event") != "ready":
        finish_worker(proc, watchdog)
        raise RuntimeError(f"worker did not get ready: {' '.join(extra)}")
    return proc, watchdog, setup


def finish_worker(proc: subprocess.Popen, watchdog: threading.Timer) -> str:
    """Read the rest of a worker's output and wait for it to end."""
    out = proc.stdout.read()
    proc.wait()
    watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def end_to_end(workload: str, res: dict, setups: list[float]) -> tuple[dict, dict]:
    # a failed task misses every limit: it ranks as if it took the whole run
    times = [
        res["elapsed_s"] if failed else t
        for t, failed in zip(res["task_seconds"], res["task_failed"])
    ]
    attempted = len(times)
    failed = sum(res["task_failed"])
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # per round, so a burst of contention on the host moves one round, not the figure
        "throughput": (statistics.median(res["round_rates"]), "work/s"),
        "task_p50_s": (percentile(times, 50), "s"),
        "task_tail_s": (percentile(times, tail), "s"),
        "completed_share": ((attempted - failed) / attempted, "ratio"),
        "err_to_tol_max": (res["err_to_tol_max"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    detail = {
        "work": WORK[workload],
        "tail_percentile": tail,
        "tasks": attempted,
        "tasks_beyond_tail": attempted - math.ceil(tail / 100.0 * attempted),
        "failed_share": failed / attempted,
        "setup_samples": setups,
        "rounds": res["rounds"],
        "measured_s": res["elapsed_s"],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORK))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nesslab" / "__init__.py").is_file():
        print(f"no nesslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, watchdog, setup = start_worker(["--workload", args.workload, "--setup-only"], deadline)
        finish_worker(proc, watchdog)
        setups.append(setup)
    run_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", str(OUT / f"{stem}.spans.jsonl"),
    ]
    proc, watchdog, setup = start_worker(run_args, deadline)
    setups.append(setup)
    res = json.loads(finish_worker(proc, watchdog).strip().splitlines()[-1])
    if res.get("event") != "result":
        raise RuntimeError("worker printed no result")

    if args.trace:
        from tracer import PER_LAYER

        metrics = {name: (res["per_layer"][name], unit) for name, unit in PER_LAYER.items()}
        detail = {"traced_tasks": res["traced_tasks"], "rounds": res["rounds"]}
    else:
        metrics, detail = end_to_end(args.workload, res, setups)
    correct = res["all_finite"] and all(math.isfinite(v) for v, _ in metrics.values())
    attempted = len(res["task_seconds"])
    failed = sum(res["task_failed"])
    by_kind = Counter(f"{f['function']}:{f['exception']}" for f in res["failures"])
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        failures_by_kind=dict(sorted(by_kind.items())),
        environment=environment(),
    )
    record = {
        "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": res["failures"],
        "task_seconds": res["task_seconds"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
