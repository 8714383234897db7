"""Benchmark for the ribbongraph package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One process runs one workload as a closed loop with a
single client and no threads.

Set-up runs in a child process (see ``prepare.py``), which writes the
inputs to a work directory that this process loads.  ``--trace 0`` sets the
workload up several times (reporting the median set-up time), then runs its
ops for ``--seconds`` seconds and reports the end-to-end metrics.
``--trace 1`` runs a fixed prefix of the op list twice, untraced and then
traced by spans around the package's public functions, and reports the
per-layer metrics; the prefix is fixed so that two traced
runs with the same seed count the same work.  Either way the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
PREPARE_TIMEOUT_S = 150
MAX_REPORTED_TRACEBACKS = 3

sys.path.insert(0, str(HERE))
import prepare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from timing import Speed  # noqa: E402


def set_up(name: str, seed: int, workdir: Path, repeats: int):
    """Prepare the inputs in a child process, then load them into a fresh
    import of the package; return the workload and the set-up times."""
    # a fixed hash seed gives every set-up the same order of hashed sets,
    # so the repeats and the runs time the same work
    subprocess.run([sys.executable, str(HERE / "prepare.py"), name, str(seed), str(workdir),
                    str(repeats)], cwd=ROOT, check=True, timeout=PREPARE_TIMEOUT_S,
                   env={**os.environ, "PYTHONHASHSEED": "0"})
    inputs = json.loads((workdir / "inputs.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[name].load(prepare.import_package(), seed, inputs["spec"])
    return workload, inputs["setup_s"]


class Tally:
    """Outcomes of the ops run in one loop; times are scaled (see Speed)."""

    def __init__(self, speed: Speed):
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.busy_s = 0.0
        self.wall_s = 0.0
        self.latencies_s: list[float] = []
        self._speed = speed

    def run(self, workload, op) -> None:
        self.attempted += 1
        # start each op from a collected heap, as a fresh process would
        gc.collect()
        start = self._speed.start()
        try:
            output = op.run()
        except Exception:
            output, ok = None, False
            self._report()
        else:
            ok = True
        wall, elapsed = self._speed.stop(start)
        if ok:
            try:
                ok = bool(op.check(output))
            except Exception:
                ok = False
                self._report()
        self.wall_s += wall
        self.busy_s += elapsed
        if ok:
            self.units += workload.units(output)
            self.latencies_s.append(elapsed)
        else:
            self.failed += 1

    def _report(self) -> None:
        if self.failed < MAX_REPORTED_TRACEBACKS:
            traceback.print_exc()

    @property
    def ops_per_s(self) -> float:
        return self.units / self.busy_s if self.busy_s else 0.0


def percentile(ordered: list[float], q: float) -> float:
    """Linearly interpolated percentile of a sorted, non-empty list."""
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far; set-up runs in a child
    process, so it is not counted."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str, seed: int, seconds: float, workdir: Path):
    """Set up, run ops for ``seconds``; return attempted, failed, metrics."""
    workload, setups = set_up(name, seed, workdir, SETUP_REPEATS)
    loaded_mb = peak_rss_mb()
    speed = Speed()
    with speed.sampling():
        tally = Tally(speed)
        ops = workload.ops
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            tally.run(workload, ops[tally.attempted % len(ops)])
    lat_ms = sorted(x * 1000 for x in tally.latencies_s) or [0.0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 0.9), "ms"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"# {name} seed {seed}: {tally.attempted} ops attempted, {tally.failed} failed "
          f"(failed_ratio {tally.failed / tally.attempted:.4f}), "
          f"{len(tally.latencies_s)} latency samples, {tally.wall_s:.2f} s busy by the wall clock, "
          f"{tally.busy_s:.2f} s scaled; peak RSS {loaded_mb:.1f} MB before the ops; "
          f"nproc {os.cpu_count()}, 1 client, no threads")
    return tally.attempted, tally.failed, metrics


def trace(name: str, seed: int, workdir: Path):
    """Run the trace prefix untraced, then traced; return attempted, failed
    and the per-layer metrics."""
    workload, _ = set_up(name, seed, workdir, 1)
    ops = workload.ops[: workload.trace_ops]
    plain = Tally(Speed())
    for op in ops:
        plain.run(workload, op)
    recorder = tracer.Recorder()
    recorder.install()
    traced = Tally(Speed())
    for op in ops:
        traced.run(workload, op)
    metrics = recorder.layer_metrics()
    metrics["tracing.overhead_ratio"] = (
        traced.ops_per_s / plain.ops_per_s if plain.units else 0.0, "ratio")
    spans_path = OUT / f"{name}-seed{seed}.spans.jsonl"
    recorder.write(spans_path)
    print(f"# {name} seed {seed}: {len(ops)} ops untraced then traced, "
          f"{len(recorder.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return plain.attempted + traced.attempted, plain.failed + traced.failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ribbongraph" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            attempted, failed, metrics = trace(args.workload, args.seed, workdir)
        else:
            attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {key:55s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
