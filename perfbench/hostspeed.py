"""Host-speed scaling of measured times.

The benchmark host is shared, and its speed drifts by up to 2x within
minutes.  A fixed slice of pure-Python work, timed over and over while the
program runs, says how fast the host was at the time; a measured time is
multiplied by ``host_scale`` of the slices taken with it to give seconds at
nominal host speed.  The slice lives here, apart from ``schubert_atlas``, so
a change to the program moves the scaled times fully.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Mean time of one slice on the reference host, a 2-core shared Xeon at
# 2.1 GHz with Python 3.11.7, in a quiet period.
NOMINAL_SLICE_S = 0.0003
# The slowest share of slices, left out of their mean: those are the ones a
# preemption or an interrupt happened to hit, too few to estimate that noise
# from.
SLOW_SLICES_DROPPED = 0.1


def slice_of_work() -> int:
    """Row operations on a small integer tuple matrix and a few Fraction
    steps, the kinds of work schubert_atlas does: ~0.3 ms."""
    m = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    for k in range(24):
        i = k % 6
        m = tuple(tuple(x - (j == i) * row[i] for j, x in enumerate(row)) for row in m)
    q = Fraction(1, 3)
    for k in range(1, 9):
        q = q * Fraction(k, k + 2) + Fraction(1, k)
    return sum(map(sum, m)) + q.denominator


def time_slices(n: int) -> list:
    """Run n slices back to back; return the seconds of each."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        slice_of_work()
        times.append(time.perf_counter() - start)
    return times


def host_scale(slices) -> float:
    """NOMINAL_SLICE_S over the mean of the slice times ``slices``, the
    slowest SLOW_SLICES_DROPPED of them left out."""
    if not slices:
        raise RuntimeError("no host-speed slices were taken")
    kept = sorted(slices)[: len(slices) - int(len(slices) * SLOW_SLICES_DROPPED)]
    return NOMINAL_SLICE_S / statistics.fmean(kept)


class HostSampler:
    """Time a slice every PERIOD_S seconds of wall time, from a SIGALRM
    handler, interleaved with whatever the process is doing."""

    PERIOD_S = 0.01

    def __init__(self):
        self.times = []

    def _tick(self, signum, frame) -> None:
        self.times.extend(time_slices(1))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def take(self):
        """The seconds of each slice since the last take."""
        taken, self.times = self.times, []
        return taken
