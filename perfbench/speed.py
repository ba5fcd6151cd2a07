"""Machine speed reference used to calibrate the benchmark's wall times.

The machines this benchmark runs on are shared: the same Python work can
take up to twice as long from one half second to the next, as other tenants
come and go.  A fixed reference kernel, timed right before and right after
each timed call, measures the speed of the moment; a call's calibrated time
is its wall time times ``NOMINAL_S`` over the kernel's mean time around it.
Calibrated times read as seconds on this machine when it is unloaded.

The kernel is exact rational polynomial evaluation in plain Python, the
same kind of work as radpoly's hot path, written here so that no change to
radpoly can change the yardstick.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0016  # kernel time, median of three, on an unloaded 2-core Xeon
REPEATS = 3

_rng = random.Random(1)
_TERMS = {(i, j): Fraction(_rng.randint(-99, 99), _rng.randint(1, 99))
          for i in range(6) for j in range(6 - i)}
_POINTS = [(Fraction(_rng.randint(-5, 5), _rng.randint(1, 7)),
            Fraction(_rng.randint(-5, 5), _rng.randint(1, 7))) for _ in range(12)]


def _kernel() -> Fraction:
    total = Fraction(0)
    for point in _POINTS:
        for alpha, coeff in _TERMS.items():
            term = coeff
            for x, e in zip(point, alpha):
                if e:
                    term *= x ** e
            total += term
    return total


def reference_s() -> float:
    """Median time of the reference kernel over a few repeats."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to calibrated seconds."""
    return NOMINAL_S / ((before + after) / 2)
