"""Machine-speed reference for rescaling measured times.

On the 2-vCPU virtual machine this benchmark was built on, the speed
changes by up to about 1.9x for seconds at a time, long enough to cover most
of a run.  A fixed reference computation, timed between jobs, slows down by
nearly the same factor as the jobs, so dividing a job's wall time by the
reference time around it cancels most of the machine's speed: rescaled
times are in milliseconds at the speed where the reference takes
``REF_MS``.  (When the machine runs at about half speed the jobs slow a
little more than the reference, and rescaled medians read up to about 10%
high.)  The reference uses only NumPy and Python, never superact, so a
change to superact cannot move it directly; it shares the process with the
jobs, though, so a change to that process's state (BLAS threads, heap,
caches) can.  Check a claimed gain against wall time as well.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REF_MS = 1.0
REF_ROUNDS = 48
# Short jobs share one reference sample per interval; a longer job gets one
# right before and one right after it.
SAMPLE_INTERVAL_S = 0.05

_A = (np.random.default_rng(0).normal(size=(8, 8))
      + 1j * np.random.default_rng(1).normal(size=(8, 8)))


def reference() -> float:
    """Fixed small-matrix NumPy and Python work, like superact's own."""
    a = _A
    acc = 0.0
    for _ in range(REF_ROUNDS):
        h = a @ a.conj().T
        acc += float(np.linalg.eigvalsh(h)[0])
        a = np.tanh(a) + 0.01
        acc += sum(abs(x) for x in a[0])
    return acc


class Speed:
    """Timeline of reference timings taken between timed steps."""

    def __init__(self):
        self.stamps: list[float] = []
        self.seconds: list[float] = []

    def sample(self, force: bool = False) -> None:
        if (not force and self.stamps
                and perf_counter() - self.stamps[-1] < SAMPLE_INTERVAL_S):
            return
        start = perf_counter()
        reference()
        end = perf_counter()
        self.stamps.append(end)
        self.seconds.append(end - start)

    def rescale(self, start: float, end: float) -> float:
        """Rescaled length of the wall interval [start, end], in ms.

        Uses the mean of the last reference before the interval and the
        first one after it.
        """
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        ref = 0.5 * (self.seconds[max(before, 0)]
                     + self.seconds[min(after, len(self.seconds) - 1)])
        return (end - start) / ref * REF_MS

    def settle(self, samples: int = 5) -> float:
        """Median reference time in seconds over a few fresh samples."""
        for _ in range(samples):
            self.sample(force=True)
        return statistics.median(self.seconds[-samples:])
