"""p-adic valuations of exact rationals.

Valuations are returned as plain ints, with ``INFINITY`` (a float) standing
in for the valuation of zero.  Mixing ints with ``INFINITY`` keeps the
expected ordering and addition laws, so callers can compare and add
valuations without special cases.
"""

from __future__ import annotations

from .errors import InputError, ResourceLimitError

INFINITY = float("inf")

# Strong probable primes to the bases 2..41 are prime below PSI13 (Sorenson-Webster,
# Math. Comp. 86, 2017); psi12 = 318665857834031151167461 passes the bases 2..37.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, never True for a composite: a factor up to 41 or
    Miller-Rabin below PSI13 decides, and an n >= PSI13 left undecided raises.
    """
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    if n >= PSI13:
        raise ResourceLimitError(
            f"primality: {n.bit_length()}-bit input at or above the bound psi13 = {PSI13}; "
            "Miller-Rabin to the bases 2 to 41 proves primality only below it"
        )
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


def _int_valuation(p: int, n: int) -> tuple[int, int]:
    # (v, n / p^v) for n != 0 and p^v the largest power of p dividing it; as
    # v_(p^2)(n / p) = (v - 1) // 2, it takes O(log v) divisions, one when v = 0
    if n % p:
        return 0, n
    w, m = _int_valuation(p * p, n // p)
    return (2 * w + 2, m // p) if m % p == 0 else (2 * w + 1, m)


def vp(p: int, a) -> int | float:
    """p-adic valuation of the int or Fraction ``a``; ``INFINITY`` for a = 0.

    p is trusted to be prime: it is proved prime once, where it enters
    (``require_prime``), not on every valuation.
    """
    if a == 0:
        return INFINITY
    return _int_valuation(p, a.numerator)[0] - _int_valuation(p, a.denominator)[0]

