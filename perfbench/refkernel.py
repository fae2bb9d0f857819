"""Reference kernel: a fixed piece of exact rational arithmetic.

Timings on a shared host swing with the host's CPU speed.  The benchmark
therefore times this kernel around every task and reports task times in
"ref" units (task time / kernel time).  The kernel uses only the standard
library, never dvbcalc, so a change to dvbcalc cannot change the unit.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

EXPECTED = 2666


def kernel() -> int:
    """Small-numerator Fraction products and sums, the mix dvbcalc runs on."""
    total = 0
    acc = Fraction(0)
    for i in range(420):
        x = Fraction(i % 13 - 6, i % 7 + 1)
        y = Fraction(i % 5 + 1, i % 11 + 1)
        acc = acc * Fraction(1, 2) + x * y - y
        if i % 8 == 7:
            total += acc.numerator % 97
            acc = Fraction(0)
    return total


def sample(repeats: int = 5) -> list[float]:
    """Wall seconds of `repeats` kernel runs; checks the kernel's result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        value = kernel()
        times.append(time.perf_counter() - start)
        if value != EXPECTED:
            raise RuntimeError(f"reference kernel returned {value}, expected {EXPECTED}")
    return times


def unit(before: list[float], after: list[float]) -> float:
    """One ref unit for a task: the median kernel time around it."""
    return statistics.median(before + after)
