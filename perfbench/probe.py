"""Host-speed probe: how fast the shared host runs, sampled during a run.

A shared host can run the same code up to about twice as slow for seconds
at a time, and process CPU time slows with it (the host is not taking the
CPU away, it is running it slower).  The probe measures that speed while
the workload runs: an interval timer interrupts the program every
``INTERVAL_S`` seconds and runs one reference slice, a fixed piece of work
with the same mix as the library (small numpy arrays, Python floats,
exact rationals, function calls), and times it.

``SpeedProbe.calibrated(start, end)`` then takes the slices out of a timed
interval and scales each stretch of program time between two slices by
``REFERENCE_SLICE_S`` over the time the neighbouring slices took: the
result is the interval's length on a host running at reference speed.

The reference slice is part of the benchmark's definition.  Changing it,
or ``REFERENCE_SLICE_S``, rescales every calibrated figure, so the parent
and the change of a comparison must use the same benchmark files.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.2
# Median time of one reference slice on an unloaded 2-vCPU Intel Xeon
# (Python 3, numpy 2.4, one BLAS thread) in its fast state.
REFERENCE_SLICE_S = 0.0043


def reference_slice() -> None:
    """Fixed work shaped like the library's inner loops: an RK4-like update
    on a two-vector, a 2x2 matrix product, float bookkeeping and rational
    grid points.  Deterministic; touches no global random state."""
    y = np.array([1.0, 0.5])
    m = np.array([[0.0, 1.0], [-1.0, -0.1]])
    h = 0.01
    acc = 0.0
    grid = Fraction(0)
    step = Fraction(1, 64)
    for i in range(800):
        k1 = m @ y
        k2 = m @ (y + 0.5 * h * k1)
        y = y + h * (k1 + k2) * 0.5
        t = i * h
        acc += float(y[0]) * t - acc * 1e-3
        if i % 8 == 0:
            grid += step
            if grid > 1:
                grid -= 1
            acc += float(grid)
    if not np.isfinite(acc):
        raise RuntimeError("reference slice diverged")


class SpeedProbe:
    """Reference slices taken on a timer; their start times and durations."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.on_slice = None   # called with each slice's duration
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_slice()
            t1 = time.perf_counter()
            self.at.append(t0)
            self.took.append(t1 - t0)
            if self.on_slice is not None:
                self.on_slice(t1 - t0)
        finally:
            self._busy = False

    @contextmanager
    def running(self):
        """Take a slice every ``INTERVAL_S`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _slowdown(self, k: int) -> float:
        """Slowdown at slice ``k``: the median of it and its neighbours
        over the reference time, so one interrupted slice does not count."""
        return statistics.median(self.took[max(0, k - 1):k + 2]) / REFERENCE_SLICE_S

    def calibrated(self, start: float, end: float) -> tuple[float, float]:
        """Program time in [start, end] with the slices taken out, and the
        same at reference speed.  Each stretch between slices is scaled by
        the slice that ends it; the last by the next slice after ``end``."""
        if not self.at:
            raise RuntimeError("no reference slices were taken")
        net = scaled = 0.0
        t = start
        k = bisect.bisect_left(self.at, start)
        while k < len(self.at) and self.at[k] < end:
            net += self.at[k] - t
            scaled += (self.at[k] - t) / self._slowdown(k)
            t = self.at[k] + self.took[k]
            k += 1
        if end > t:
            net += end - t
            scaled += (end - t) / self._slowdown(min(k, len(self.at) - 1))
        return net, scaled
