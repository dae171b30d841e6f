"""p-adic valuations of exact rationals.

Valuations are returned as plain ints, with ``INFINITY`` (a float) standing
in for the valuation of zero.  Mixing ints with ``INFINITY`` keeps the
expected ordering and addition laws, so callers can compare and add
valuations without special cases.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

INFINITY = float("inf")

# Deterministic Miller-Rabin witness set, sufficient for n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise InputError(f"p must be a prime number, got {p!r}")
    return p


def _int_valuation(p: int, n: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(p: int, a) -> int | float:
    """p-adic valuation of the rational ``a``; ``INFINITY`` for a = 0.

    p is trusted to be prime: it is proved prime once, where it enters
    (``require_prime``), not on every valuation.
    """
    a = Fraction(a)
    if a == 0:
        return INFINITY
    return _int_valuation(p, a.numerator) - _int_valuation(p, a.denominator)

