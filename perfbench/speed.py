"""Host-speed normalization of timings.

The benchmark host shares its cores with other machines' work.  A fixed
computation there runs up to 1.6x slower for tens of seconds at a time,
and its 30-second medians vary by about 12% (2-vCPU Xeon host at
2.1 GHz).  CPU time slows down as much as wall time, so this is not
time spent descheduled.  Raw latency medians of 28-second runs spread
by 17-20% across runs.

So the run times a fixed reference kernel every ``INTERVAL_S`` between
operations (untimed), and scales each operation's wall latency by
``REFERENCE_S / kernel time around it``, where "around" is the median
of the kernel samples within ``WINDOW_S`` of the op's start.  A
normalized latency reads as milliseconds on a host where the kernel
takes ``REFERENCE_S``; it cancels the host's speed swings while keeping
every cost of the program.  Raw latencies are reported beside them.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

# the kernel's median time on the reference host (2.1 GHz Xeon, quiet)
REFERENCE_S = 2.0e-3
INTERVAL_S = 0.5
WINDOW_S = 2.5

_SORT_DATA = np.random.default_rng(0).random(40_000)


def _kernel() -> None:
    # numpy work, interpreter arithmetic and object allocation, the three
    # kinds of work the benchmark's operations mix
    np.sort(_SORT_DATA)
    s = 0
    for i in range(15_000):
        s += i * i
    json.dumps({str(i): i for i in range(2_000)})


def kernel_seconds() -> float:
    """Median wall time of three runs of the reference kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedLog:
    """Kernel samples over time, and the speed factor they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        now = time.perf_counter()
        self.seconds.append(kernel_seconds())
        self.times.append(now)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, t: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of ``t``."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if lo == hi:  # no sample in the window: use the nearest one
            lo = min(max(bisect.bisect_left(self.times, t) - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def normalize(self, starts, latencies) -> list[float]:
        return [dt * self.factor(t) for t, dt in zip(starts, latencies)]

    def kernel_p50_s(self) -> float:
        return statistics.median(self.seconds)
