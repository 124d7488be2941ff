"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` records that
``run.py`` writes to ``perfbench/out``; copy that directory aside to keep a
result set.  For every workload the end-to-end metrics print as median and
quartiles of each set, and the per-layer metrics as the ratio of the new
median to the base median, together with the base median itself.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict:
    """``{(workload, trace): {metric: ([values], unit)}}`` from one result set."""
    sets: dict = defaultdict(lambda: defaultdict(lambda: ([], None)))
    for path in sorted(directory.glob("*-trace[01].json")):
        record = json.loads(path.read_text())
        key = (record["detail"]["workload"], record["detail"]["trace"])
        for name, metric in record["metrics"].items():
            values, _ = sets[key][name]
            values.append(metric["value"])
            sets[key][name] = (values, metric["unit"])
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    for workload, trace in sorted(set(base) & set(new)):
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})")
        for name, (b_values, unit) in base[(workload, trace)].items():
            n_values, _ = new[(workload, trace)].get(name, ([], unit))
            if not n_values:
                continue
            b, n = quartiles(b_values), quartiles(n_values)
            if trace:
                ratio = n[1] / b[1] if b[1] else float("nan")
                print(f"  {name:48s} x{ratio:8.3f}  base {b[1]:.4g} {unit}")
            else:
                print(
                    f"  {name:16s} base {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]"
                    f"  new {n[1]:.4g} [{n[0]:.4g}, {n[2]:.4g}] {unit}"
                    f"  (n={len(b_values)}/{len(n_values)})"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
