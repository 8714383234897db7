"""Set-up step of the benchmark, run by ``run.py`` in a child process.

    python3 perfbench/prepare.py WORKLOAD SEED DIR REPEATS

From the root of a source checkout: imports the package from ``src``,
selects the workload's inputs from the seed, and builds them into DIR, the
graph files the ops read and ``DIR/inputs.json`` with the expected answers
(``spec``) and the set-up times (``setup_s``).

Each set-up time is a fresh import of the package plus one build of the
inputs, scaled by ``timing.Speed``; there are REPEATS of them, each build
starting from the graphs' text, so nothing cached by an earlier one
carries over.  The selection runs once and is not timed: the number of
random draws that fill the strata depends on the seed.  Running all this in
a child process keeps its memory out of the measuring process's peak.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

sys.path.insert(0, str(HERE))
import timing  # noqa: E402
import workloads  # noqa: E402


def import_package():
    """Import ``ribbongraph`` afresh from the checkout's source tree."""
    for name in [n for n in sys.modules if n == "ribbongraph" or n.startswith("ribbongraph.")]:
        del sys.modules[name]
    rg = importlib.import_module("ribbongraph")
    importlib.import_module("ribbongraph.cli")
    if Path(rg.__file__).resolve().parent != SRC / "ribbongraph":
        raise ImportError(f"ribbongraph imported from {rg.__file__}, not from {SRC}")
    return rg


def main(name: str, seed: int, workdir: Path, repeats: int) -> None:
    sys.path.insert(0, str(SRC))
    steps = workloads.WORKLOADS[name]
    picks = None
    setups = []
    speed = timing.Speed(time.process_time)
    with speed.sampling():
        for i in range(repeats):
            # each repeat starts from a collected heap, as a fresh process would
            gc.collect()
            start = speed.start()
            rg = import_package()
            imported = speed.stop(start)[1]
            if i == 0:
                picks = steps.select(rg, seed)
            start = speed.start()
            spec = steps.build(rg, seed, picks, workdir)
            setups.append(imported + speed.stop(start)[1])
    (workdir / "inputs.json").write_text(json.dumps({"setup_s": setups, "spec": spec}),
                                        encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4]))
