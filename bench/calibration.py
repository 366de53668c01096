"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, which would swamp any change in rrqc. Timing the
calling thread's CPU time rather than wall time already leaves out the
spells when the host runs another guest on our CPU; what remains is the
CPU running slower, for instance when a neighbour shares its core or cache.
So the loop times a fixed reference job, which does not use rrqc, every
``INTERVAL_S`` seconds of cases, and scales each case's CPU time by
``REFERENCE_S / reference time``. The reference time is the median of the
measurements taken from ``WINDOW_S`` before the case starts to ``WINDOW_S``
after it ends, which follows drifts of a second or more without taking on
the noise of a single measurement. The result reads as the case's time on a
machine where the reference job takes ``REFERENCE_S``. A change to
rrqc moves the case time and not the reference, so it shows in full.

The job mixes what rrqc's cases are made of: Python bytecode walking a heap
larger than the private caches, small object churn, small numpy kernels and
the dense Hermitian kernels of the n = 6 register, with BLAS at its default
thread count.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Reference-job time the end-to-end figures are scaled to.
REFERENCE_S = 0.004
#: Case time between two reference measurements.
INTERVAL_S = 0.1
#: Runs of the job in one measurement.
REPEATS = 3
#: Reach of the reference measurements that calibrate a case, on each side.
WINDOW_S = 0.5


@dataclass(frozen=True)
class _Record:
    key: int
    value: tuple


class ReferenceJob:
    """Fixed work that does not touch rrqc; its time tracks the host's speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        big = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        mid = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        small = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        self._big = big + big.conj().T
        self._mid = mid + mid.conj().T
        self._small = small + small.conj().T
        self._flip = np.array([[0, 1], [1, 0]], dtype=complex)
        # a heap larger than a core's private caches, visited in random order
        heap = [_Record(i, (i,)) for i in range(60_000)]
        self._heap = [heap[i] for i in rng.permutation(len(heap))[:3000]]

    def _once(self) -> float:
        started = time.thread_time()
        total = 0
        for record in self._heap:
            total += record.key
        [_Record(i, ({"k": i}, (i, i + 1))) for i in range(300)]
        for _ in range(4):
            lift = np.kron(np.kron(np.eye(2), self._flip), np.eye(2))
            out = lift @ self._small @ lift.conj().T
            np.linalg.eigvalsh(out)
            np.abs(out - out.conj().T).max()
        self._big @ self._big
        np.linalg.eigvalsh(self._mid)
        return time.thread_time() - started

    def measure(self) -> float:
        """Median CPU time of ``REPEATS`` runs of the job, in seconds; the
        median keeps a single slow run from setting the figure."""
        return statistics.median(self._once() for _ in range(REPEATS))


class Calibration:
    """Reference-job measurements over a run, and the scale they give a case."""

    def __init__(self):
        self._job = ReferenceJob()
        self._stamps: list[float] = []  # midpoints of the measurements
        self._seconds: list[float] = []
        self._since = 0.0

    def measure(self) -> None:
        started = time.perf_counter()
        seconds = self._job.measure()
        self._stamps.append((started + time.perf_counter()) / 2)
        self._seconds.append(seconds)

    def after_case(self, elapsed: float) -> None:
        """Measure once ``INTERVAL_S`` of case time has passed since the last time."""
        self._since += elapsed
        if self._since >= INTERVAL_S:
            self.measure()
            self._since = 0.0

    def scale(self, start: float, end: float) -> float:
        """Factor that maps wall time spent in [start, end] to reference speed."""
        lo = bisect.bisect_left(self._stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self._stamps, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self._seconds[lo:hi])

    def median_ms(self) -> float:
        """Median reference-job time over the run, in milliseconds."""
        return statistics.median(self._seconds) * 1e3
