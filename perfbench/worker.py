"""One benchmark process: import nesslab from the checkout, warm up, measure.

    python3 perfbench/worker.py --workload NAME [--setup-only]
        [--seed N --seconds S --trace 0|1 --spans PATH]

Prints ``{"event": "ready"}`` once nesslab is imported and one untimed
warm-up task is done; ``run.py`` times process start to that line as the
set-up time.  Without ``--setup-only`` it then measures a fixed number of
whole rounds and prints ``{"event": "result", ...}``.  The number is
``--seconds`` divided by the workload's ``round_s``, rounded to whole
cycles of its pool and at least one cycle, so a run takes about
``--seconds`` on the reference host, and the tasks a run attempts, and the
ones that fail, do not depend on the host's speed or on the seed.

With ``--trace 1`` the first round runs twice, untraced and then traced,
and the time difference per task is the tracer's overhead; the remaining
rounds run traced and give the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nesslab  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, clock, run_task  # noqa: E402


def emit(event: str, **payload) -> None:
    print(json.dumps({"event": event, **payload}), flush=True)


def clear_caches() -> None:
    """Empty the bound-state weight cache so both calibration passes start cold."""
    nesslab.scattering._pp_weight_cached.cache_clear()


def run_rounds(workload, rounds, count, tracer=None, first=None):
    """Run ``count`` whole rounds; returns outcomes and each round's work rate.

    A single-threaded workload moves to the next core before each task.  The
    cores of a shared host can differ in speed by a third for minutes at a
    time, so a run that stayed where the scheduler put it would measure the
    core as much as the code.
    """
    cores = sorted(os.sched_getaffinity(0)) if workload.single_threaded else []
    now = clock(workload)
    outcomes, rates = [], []
    for _ in range(count):
        tasks = first if first is not None else next(rounds)
        first = None
        t0, done = now(), len(outcomes)
        for task in tasks:
            if cores:
                os.sched_setaffinity(0, {cores[len(outcomes) % len(cores)]})
            if tracer is not None:
                tracer.start_task()
            outcomes.append(run_task(workload, task))
        rates.append(sum(o.units for o in outcomes[done:]) / (now() - t0))
    return outcomes, rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    if not Path(nesslab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"nesslab imported from {nesslab.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    run_task(workload, workload.warmup())
    emit("ready")
    if args.setup_only:
        return 0

    rounds = workload.rounds(random.Random(args.seed))
    cycles = max(round(args.seconds / workload.round_s / workload.cycle), 1)
    count = cycles * workload.cycle
    start = time.perf_counter()
    tracer = overhead = None
    rates = []  # the traced run reports no throughput
    if args.trace:
        calibration = next(rounds)
        now = clock(workload)
        clear_caches()
        t0 = now()
        plain, _ = run_rounds(workload, rounds, 1, first=calibration)
        untraced = now() - t0
        tracer = Tracer()
        clear_caches()
        tracer.install()
        workload.on_system = tracer.note_system
        t0 = now()
        traced, _ = run_rounds(workload, rounds, 1, tracer, first=calibration)
        overhead = (now() - t0 - untraced) / len(calibration)
        rest, more = run_rounds(workload, rounds, count - 1, tracer)
        outcomes, n_rounds = plain + traced + rest, 2 + len(more)
    else:
        outcomes, rates = run_rounds(workload, rounds, count)
        n_rounds = len(rates)
    elapsed = time.perf_counter() - start

    result = {
        "elapsed_s": elapsed,
        "rounds": n_rounds,
        "round_rates": rates,
        "task_seconds": [o.seconds for o in outcomes],
        "task_failed": [o.failure is not None for o in outcomes],
        "err_to_tol_max": max(o.err_to_tol for o in outcomes),
        "all_finite": all(o.finite for o in outcomes),
        "failures": [o.failure for o in outcomes if o.failure is not None],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics(overhead)
        result["traced_tasks"] = tracer.tasks
        if args.spans is not None:
            tracer.write(args.spans)
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
