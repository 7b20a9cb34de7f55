"""Timings in reference seconds, steady on a host whose speed drifts.

On a shared machine the speed of one core can change by more than 1.5x
from one few-second stretch to the next, as neighbours load it. A run of
seconds then reads fast or slow as a whole, whatever the program does. To
take that out, the benchmark runs a fixed probe -- a short loop of small
numpy calls and Python object churn, the same kind of work as ttkit's
autodiff, and independent of ttkit -- before and after each timed
operation. The operation's measured seconds are scaled by REFERENCE_S over
the mean probe time around it, which reads the operation's cost on a core
that runs the probe in exactly REFERENCE_S. Raw wall-clock figures are
reported next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.004
PROBE_ITERATIONS = 1000


def probe() -> float:
    """Seconds for the fixed calibration loop."""
    a = np.ones((8, 32))
    w = np.full((32, 32), 0.01)
    keep = []
    start = perf_counter()
    for i in range(PROBE_ITERATIONS):
        a = np.tanh(a @ w) + 0.001
        keep.append((float(a[0, 0]), [i]))
    return perf_counter() - start


class Clock:
    """Splits time into consecutive intervals and converts each to
    reference seconds with a probe right after it."""

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]
        self.laps: list[tuple[float, float]] = []
        self.mark = perf_counter()

    def restart(self):
        """Begin an interval now, dropping the time since the last lap."""
        self.mark = perf_counter()

    def lap(self) -> tuple[float, float]:
        """End the current interval: (seconds, reference seconds). The next
        interval begins when this returns."""
        seconds = perf_counter() - self.mark
        now = probe()
        self.probes.append(now)
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.laps.append((seconds, seconds * factor))
        self.mark = perf_counter()
        return self.laps[-1]

    def speed(self) -> float:
        """Median machine speed over the run; 1.0 is the reference."""
        ordered = sorted(self.probes)
        return REFERENCE_S / ordered[len(ordered) // 2]
