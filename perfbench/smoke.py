"""Smoke check: a tiny run of every workload reports exactly the declared metrics.

    python3 perfbench/smoke.py

Runs each workload for one second with tracing off and on, and checks that
the result line is well formed and that its metric names and units are
those of ``BENCHMARK.json``.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            good = (
                proc.returncode == 0
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and got == declared[trace]
            )
            print(f"{workload:8s} trace={trace} {'ok' if good else 'MISMATCH'}", flush=True)
            if not good:
                ok = False
                print(proc.stderr[-2000:], file=sys.stderr)
                print(f"  missing {sorted(set(declared[trace]) - set(got))}", file=sys.stderr)
                print(f"  extra {sorted(set(got) - set(declared[trace]))}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
