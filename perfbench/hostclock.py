"""A clock that ticks at a fixed reference speed instead of the host's.

The 2-core host the benchmark was defined on switches every second or so
between a fast speed and one 1.6-1.9x slower, in proportions that drift
over minutes.  Raw wall times of the same code then spread by 15-25%
between runs, whatever estimator is taken over a 30 s run, because a
single run of the long workloads (1-3 s) straddles both speeds.

`HostClock` samples the host's speed while the program runs: a SIGALRM
handler in the measured process times a fixed pure-Python kernel every
`INTERVAL_S`.  Each stretch of wall time between two samples is rescaled
by REF_KERNEL_S over the kernel's time at its two ends, so it counts as
the time it would have taken on a host where the kernel takes exactly
REF_KERNEL_S.  The samples' own time is not counted.  A program that does
twice the work still takes twice the reference time; only the host's speed
cancels.  The kernel is fixed here, outside the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import math
import signal
import time
from bisect import bisect_right

INTERVAL_S = 0.02
# The kernel takes 70-80 us at the host's fast speed and ~150 us at its slow one.
KERNEL_STEPS = 400
REF_KERNEL_S = 1e-4
# Calls before the first sample, so that no sample pays for the
# interpreter specialising the kernel's bytecode.
WARMUP_CALLS = 20


def _kernel() -> float:
    x, seen = 0.0, {}
    for i in range(KERNEL_STEPS):
        x += math.log1p(0.5 * i) / (1.0 + math.exp(-1e-3 * x))
        seen[i & 15] = x
    return x


class HostClock:
    """Reference time between wall-clock (`time.perf_counter`) instants.

    Instants passed to `elapsed` must lie between `start()` and `stop()`.
    """

    def __init__(self) -> None:
        # Piecewise-linear map from wall time to reference time: flat while
        # a sample runs, sloped by the host's relative speed between samples.
        self._wall: list[float] = []
        self._ref: list[float] = []
        self.kernel_s: list[float] = []
        self._previous_handler = None

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        k = t1 - t0
        if self._wall:
            speed = 0.5 * REF_KERNEL_S * (1 / self.kernel_s[-1] + 1 / k)
            self._ref.append(self._ref[-1] + (t0 - self._wall[-1]) * speed)
        else:
            self._ref.append(0.0)
        self._wall.append(t0)
        self._wall.append(t1)
        self._ref.append(self._ref[-1])
        self.kernel_s.append(k)

    def start(self) -> None:
        for _ in range(WARMUP_CALLS):
            _kernel()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()

    def _at(self, t: float) -> float:
        i = bisect_right(self._wall, t)
        if i == 0 or i == len(self._wall):
            raise ValueError(f"instant {t} is outside the clock's running time")
        w0, w1 = self._wall[i - 1], self._wall[i]
        r0, r1 = self._ref[i - 1], self._ref[i]
        return r0 + (r1 - r0) * (t - w0) / (w1 - w0)

    def elapsed(self, t0: float, t1: float) -> float:
        """Reference seconds between wall instants t0 <= t1."""
        return self._at(t1) - self._at(t0)
