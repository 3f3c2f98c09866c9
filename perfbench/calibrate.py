"""Host-speed calibration for timings taken on a shared host.

On the reference host one vCPU can run up to twice as slow for a second or
more at a time, whatever it computes, and the other vCPU does not follow.  So
a fixed pure-Python kernel (object creation, attribute access, float
arithmetic and calls, like the program's own hot loops) is timed on the
measuring thread itself, and timings are multiplied by REFERENCE_S / kernel
time, so that they read as seconds at the reference speed.  The kernel does
not touch abclab, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# Kernel time at full speed on the reference host: a 2-vCPU KVM guest on an
# Intel Xeon (Sapphire Rapids), CPython 3.11.
REFERENCE_S = 0.0019
PERIOD_S = 0.03  # between kernel runs while HostSpeed is active


class _Vec:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def __add__(self, other: "_Vec") -> "_Vec":
        return _Vec(self.x + other.x, self.y + other.y)

    def __mul__(self, s: float) -> "_Vec":
        return _Vec(self.x * s, self.y * s)


def _kernel() -> float:
    acc = 0.0
    table = {}
    p = _Vec(0.5, 0.25)
    for i in range(3000):
        q = p * (i * 1e-6) + p
        acc += math.sqrt(q.x * q.x + q.y * q.y)
        table[i & 255] = acc
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class HostSpeed:
    """While active, times the kernel every PERIOD_S seconds from SIGALRM,
    on the measuring thread, in between whatever that thread runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernels: list[float] = []
        self._previous = None

    def sample(self) -> None:
        self.starts.append(perf_counter())
        self.kernels.append(kernel_seconds())

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed spent in [start, end] outside the
        kernel runs: the interval minus the kernel runs inside it, times
        REFERENCE_S over the mean time of those runs and of the nearest run
        on either side."""
        first = bisect_left(self.starts, start)
        last = bisect_right(self.starts, end)
        around = self.kernels[max(first - 1, 0) : last + 1]
        busy = sum(self.kernels[first:last])
        return (end - start - busy) * REFERENCE_S * len(around) / sum(around)

    def speed(self) -> float:
        """Median host speed over the samples, as a share of the reference."""
        ordered = sorted(self.kernels)
        return REFERENCE_S / ordered[len(ordered) // 2]
