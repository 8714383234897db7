"""Scaled timing for the ribbongraph benchmark.

The benchmark's own reference loop is timed around every timed region and,
while sampling, every SAMPLE_PERIOD_S inside long ones.  On shared x86
hosts with 2 vCPUs, interpreted code was seen to alternate between phases
up to 1.7 times slower, for seconds at a time, while the ratio of an op's
time to this loop's time stayed within a few percent.  Every reported time
is therefore the wall time scaled to a loop time of REFERENCE_NOMINAL_S
(about the loop's uncontended time there).
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

REFERENCE_SIZE = 6000
REFERENCE_NOMINAL_S = 0.0025
SAMPLE_PERIOD_S = 0.2


def reference_s() -> float:
    """Wall time of one pass of the reference loop.

    The loop makes no reference cycles, so the collector is paused while it
    runs: a collection of the program's heap must not count as loop time."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        acc = 0
        for i in range(REFERENCE_SIZE):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i
            acc ^= hash(key) & 0xFFFF
        sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Speed:
    """Scales the time of timed regions to the reference loop's nominal
    speed.

    A region is scaled by the median of the loop times taken since the
    previous region ended, including samples taken inside it and one taken
    when it ends; the median ignores the odd sample slowed by an allocation
    burst.  Time spent taking samples inside a region is not part of its
    time.

    ``clock`` measures the regions: the wall clock by default, or the
    process's CPU time, which leaves out the time the process waits for a
    core another process holds."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._refs = [reference_s()]
        self._sampling_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = self._clock()
        self._refs.append(reference_s())
        self._sampling_s += self._clock() - start

    @contextlib.contextmanager
    def sampling(self):
        """Also sample the loop every SAMPLE_PERIOD_S, from a timer signal."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def start(self) -> float:
        start = self._clock()
        self._sampling_s = 0.0
        return start

    def stop(self, start: float) -> tuple[float, float]:
        """Measured and scaled time of the region begun at ``start``."""
        wall = self._clock() - start - self._sampling_s
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            refs = self._refs + [reference_s()]
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        self._refs = refs[-1:]
        return wall, wall * REFERENCE_NOMINAL_S / statistics.median(refs)
