"""The reference computation that every timed interval is scaled by.

The machine's speed drifts by tens of percent over minutes, so a wall
time alone does not compare across runs.  ``reference()`` is a fixed
stdlib-only computation of the same kind as the program's work: a
convolution mod p over lists, Fraction sums, a dict keyed by tuples and
big-integer products, so it allocates and touches memory as the program
does.  It is timed right before and right after each query; the query's wall
time times NOMINAL_S over the mean of those two reference times is its
reference-scaled time, in ref-s: seconds on a machine on which
``reference()`` takes exactly NOMINAL_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Nominal duration of one reference() call, in seconds; it was the median
# measured on the 2-core VM the benchmark was tuned on.
NOMINAL_S = 0.0015


def reference() -> int:
    p = 10007
    f = [i * 7919 % p for i in range(24)]
    g = [i * 104729 % p for i in range(24)]
    conv = [0] * 47
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            conv[i + j] = (conv[i + j] + a * b) % p
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k + 1) * Fraction(3, 2 * k + 1)
    table = {}
    for i in range(600):
        table[(i % 97, i // 97)] = i * i % p
    big = 3**300
    for k in range(25):
        big = big * (big + k) % 7**600
    return sum(conv) + acc.numerator % p + len(table) + big % p


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scale(wall: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds to ref-s, given the reference times on either side."""
    return wall * NOMINAL_S / ((ref_before + ref_after) / 2)
