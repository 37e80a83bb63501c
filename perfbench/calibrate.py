"""Calibration: the CPU speed a run actually gets, from a fixed reference loop.

On a shared host the same op can take 40% longer from one minute to the
next, because the whole machine slows down.  The benchmark therefore times
a fixed pure-Python loop of small ``fractions.Fraction`` operations (a
"rep") during each run and reports every timing in reference seconds: wall
time multiplied by ``REFERENCE_S`` over the mean rep time measured while it
ran.  The loop uses only the standard library, so no change to the package
can change it.

While ops run, reps are taken from a timer signal every ``SAMPLE_INTERVAL_S``
of wall time, so the speed is sampled evenly through long ops as well as
short ones; the time spent in reps is left out of the op times.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator

# mean time of one rep at the reference speed; it scales every reported
# timing and must never change once baselines exist
REFERENCE_S = 0.003
SAMPLE_INTERVAL_S = 0.1


def _loop() -> int:
    total = 0
    for k in range(1, 300):
        a, b = Fraction(k, 64), Fraction(k + 1, 128)
        m = (a + b) / 2
        total += (m < a) + (m * 2 > b)
    return total


class Calibration:
    """Accumulates calibration reps over a run."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.reps = 0

    def rep(self) -> None:
        start = time.perf_counter()
        _loop()
        self.seconds += time.perf_counter() - start
        self.reps += 1

    def run(self, min_seconds: float) -> None:
        """Run whole reps, at least one, until ``min_seconds`` have passed."""
        end = time.perf_counter() + min_seconds
        self.rep()
        while time.perf_counter() < end:
            self.rep()

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Take one rep on every tick of a wall-clock interval timer."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.rep())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def rep_seconds(self) -> float:
        return self.seconds / self.reps
