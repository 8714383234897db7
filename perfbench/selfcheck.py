"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For each workload, from the root of a source checkout:

* two traced runs with SEED must report identical work counts: every
  ``.calls`` metric and every ratio of counts (see ``tracer.COUNT_METRICS``);
* an untraced and a traced run with HELD_OUT_SEED must report the same
  metric names as the runs with SEED, and every run must have no failed op.

Untraced runs measure for SECONDS seconds.

Each run is its own process, as in real use of the benchmark, so string
hashing differs between the two traced runs.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 1
HELD_OUT_SEED = 9001
SECONDS = 3


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str) -> list[str]:
    problems = []
    first = run(workload, SEED, 1)
    second = run(workload, SEED, 1)
    for name in tracer.COUNT_METRICS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: {a} then {b} with seed {SEED}")
    plain = run(workload, SEED, 0)
    held_plain = run(workload, HELD_OUT_SEED, 0)
    held_traced = run(workload, HELD_OUT_SEED, 1)
    if held_plain["metrics"].keys() != plain["metrics"].keys():
        problems.append(f"untraced metric names differ between seeds {SEED} and {HELD_OUT_SEED}")
    if held_traced["metrics"].keys() != first["metrics"].keys():
        problems.append(f"traced metric names differ between seeds {SEED} and {HELD_OUT_SEED}")
    for label, result in (("seed", first), ("seed", second), ("seed", plain),
                          ("held-out seed", held_plain), ("held-out seed", held_traced)):
        if result["failed"] or not result["correct"]:
            problems.append(f"{result['failed']} of {result['attempted']} ops failed with the {label}")
    return problems


def main() -> int:
    failed = False
    for workload in workloads.WORKLOADS:
        problems = check(workload)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
