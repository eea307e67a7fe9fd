"""Self-test of the benchmark: exact counts repeat, oracles hold on a new seed.

Usage, from the root of a source checkout::

    python3 bench/selftest.py

For each workload this makes two traced runs of seed 1 and requires every
per-layer count (``sdp.iterations``, ``thresholds.evals.*``,
``certify.sle_refine_evals``, ``linalg.eig_mats_*``, ``states.dm_count``
and the rest) to be identical, then makes one traced run of seed 2,
which covers every input of its pool, and requires every oracle to pass.
Exits 1 on the first difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("certify-mixed", "thresholds", "distill-scan")
SEED = 1
OTHER_SEED = 2


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"selftest: {workload} seed {seed} trace {trace} "
                         f"exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    for workload in WORKLOADS:
        first, second = (bench(workload, SEED, 1) for _ in range(2))
        counts = [name for name, m in first["metrics"].items()
                  if m["unit"] == "count"]
        differ = [name for name in counts
                  if first["metrics"][name] != second["metrics"][name]]
        if differ:
            print(f"selftest: {workload}: counts differ between two runs of "
                  f"seed {SEED}: {differ}", file=sys.stderr)
            return 1
        # A traced run covers whole cycles of the pool, so every input of
        # the second seed meets its oracle.
        result = bench(workload, OTHER_SEED, 1)
        if not result["correct"] or result["failed"]:
            print(f"selftest: {workload}: seed {OTHER_SEED} failed its "
                  f"oracles", file=sys.stderr)
            return 1
        print(f"selftest: {workload}: {len(counts)} counts repeat exactly; "
              f"seed {OTHER_SEED} passes all {result['attempted']} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
