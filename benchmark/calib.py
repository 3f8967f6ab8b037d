"""A fixed calibration kernel, timed next to the measured work.

The benchmark host is shared, and its speed drifts by up to 2x over tens of
seconds. Process CPU time drifts with wall time, so the cause is contention
for the core, not scheduling. Timing this fixed kernel beside the work
gives a speed factor. A time scaled by REFERENCE_S / (the kernel's time at
that moment) reads in seconds of a host running the kernel in REFERENCE_S.
The ratio of the workload to the kernel stays within a few percent while
the raw times move by 70%.

The kernel mixes the two kinds of work singmod does: an mpmath
multiply-add chain at 3000 bits, like the j q-series, and a float loop,
like the lattice sums. It runs no singmod code, so no change to the
program can change it.
"""

from __future__ import annotations

import math
import statistics
import time

import mpmath as mp

# median kernel time on the reference host (a quiet 2-CPU x86-64 box)
REFERENCE_S = 0.0035


def kernel() -> float:
    with mp.workprec(3000):
        x = mp.mpf(2) / 3
        acc = mp.mpf(1)
        for _ in range(300):
            acc = acc * x + 1
    s = 0.0
    for i in range(1, 3000):
        s += math.sqrt(i) / (1.0 + 0.5 * i)
    return float(acc) + s


def sample() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def samples(n: int) -> list[float]:
    return [sample() for _ in range(n)]


def factor(times) -> float:
    """Scale that converts a time measured beside `times` to reference seconds."""
    return REFERENCE_S / statistics.median(times)


def windowed_factors(times, half: int = 4) -> list[float]:
    """Per-position factor from the median of the 2*half+1 nearest samples."""
    return [factor(times[max(0, i - half): i + half + 1]) for i in range(len(times))]
