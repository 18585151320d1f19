"""Machine-speed sampling for drift-corrected operation times.

On a shared machine the CPU's speed drifts: it flips between a fast and a
slow state every few seconds, so an operation's wall time depends on how
much of it ran slow. A probe between operations cannot see that; it
catches one instant. SpeedSampler instead times a small fixed piece of
reference work every INTERVAL_S while a timed region runs, from a SIGALRM
handler in the same thread, so the samples see the same CPU states as the
region itself. `factor` scales the region's time to the machine speed
where one sample takes REFERENCE_S. The reference work is the per-item
interpreter work that dominates alselect's hot paths (heap offers, float
parsing, arithmetic over a list) and never calls alselect, so no change to
the program can change its cost. It needs nothing beyond the standard
library, so a set-up process can start sampling before it imports numpy.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from contextlib import contextmanager

# median sample time on the baseline machine (see README.md)
REFERENCE_S = 0.00018
INTERVAL_S = 0.025


class SpeedSampler:
    def __init__(self):
        rng = random.Random(12345)
        self.keys = [rng.random() for _ in range(300)]
        self.cells = [repr(rng.gauss(0.0, 1.0)) for _ in range(100)]
        self.samples: list[float] = []

    def _work(self) -> float:
        total = 0.0
        for k in self.keys:
            total += k * k - 0.5 * k
        heap: list[tuple[float, int]] = []
        for i, k in enumerate(self.keys):
            if len(heap) < 30:
                heapq.heappush(heap, (k, i))
            elif (k, i) > heap[0]:
                heapq.heapreplace(heap, (k, i))
        parsed = sum(float(c) for c in self.cells)
        return total + len(heap) + parsed

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)

    @contextmanager
    def region(self):
        """Sample the machine speed while the body runs; yields the list
        the samples go to. A region too short for a timer tick gets one
        sample right after it."""
        self.samples = []
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            if not self.samples:
                self._sample()

    @staticmethod
    def factor(samples: list[float]) -> float:
        return REFERENCE_S / statistics.fmean(samples)
