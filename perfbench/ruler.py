"""A ruler for the host's speed, read between the benchmark's operations.

On a shared host the speed of one CPU drifts: a fixed pure-Python loop
takes up to 60% longer in some stretches of a few seconds than in others,
and its CPU time grows with its wall time, so the drift is not time spent
waiting for the CPU. Raw wall times of runs a few minutes apart therefore
differ by more than the changes the benchmark must detect.

The ruler is a fixed piece of work in the same kind of arithmetic as the
library (a third-order recurrence over Fraction). It is timed on the same
CPU, between operations. Every time the benchmark reports is scaled by
REFERENCE_S over the median of the ruler readings nearest to it, that is,
expressed in seconds of a host running at the reference speed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median time of one chunk() on the reference machine (2-vCPU VM,
# CPython 3.11.7). Scaled times are seconds at that speed.
REFERENCE_S = 0.0025
# Readings taken on each side of an operation; their median scales it.
NEIGHBOURS = 3
# Between short operations the ruler is read at most this often.
EVERY_S = 0.2


def chunk() -> Fraction:
    """One unit of fixed work: 150 steps of a rational recurrence."""
    r, s, t = Fraction(3, 2), Fraction(-1, 3), Fraction(5, 4)
    a, b, c = Fraction(1), Fraction(2, 3), Fraction(-5, 7)
    for _ in range(150):
        a, b, c = b, c, r * c + s * b + t * a
    return c


class Ruler:
    """Readings of chunk() in the order taken.

    mark() before an operation returns the number of readings so far;
    scale() then uses the NEIGHBOURS readings before that mark and the
    NEIGHBOURS after it. Read the ruler after the last operation, so that
    every operation has readings on both sides.
    """

    def __init__(self, clock=time.perf_counter, work=chunk) -> None:
        self.readings: list[float] = []
        self._clock = clock
        self._work = work
        self._last = float("-inf")

    def read(self) -> None:
        for _ in range(NEIGHBOURS):
            start = self._clock()
            self._work()
            self.readings.append(self._clock() - start)
        self._last = self._clock()

    def read_if_due(self) -> None:
        if self._clock() - self._last >= EVERY_S:
            self.read()

    def mark(self) -> int:
        return len(self.readings)

    def scale(self, seconds: float, mark: int) -> float:
        near = self.readings[max(0, mark - NEIGHBOURS):mark + NEIGHBOURS]
        return seconds * REFERENCE_S / statistics.median(near)

    def factor(self) -> float:
        """REFERENCE_S over the median of all readings: the whole run's scale."""
        return REFERENCE_S / statistics.median(self.readings)
