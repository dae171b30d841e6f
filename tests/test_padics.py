"""Primality of p against sympy: exact below psi13, refused at and above it;
valuations against a loop that divides by p once per factor."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.ntheory.primetest import mr

from padicdyn.errors import ResourceLimitError
from padicdyn.padics import INFINITY, PSI13, is_prime, vp

# psi_t: the least odd composite that is a strong probable prime to each of
# the first t prime bases (OEIS A014233)
PSI = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
]
BASES = list(sympy.primerange(2, 42))

CARMICHAEL = [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
    46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
]


def test_agrees_with_sympy_below_200000():
    assert [n for n in range(200_000) if is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("t", range(1, 14))
def test_strong_pseudoprimes_to_the_first_t_bases(t):
    n = PSI[t - 1]
    assert not sympy.isprime(n) and mr(n, BASES[:t])
    if n < PSI13:
        assert is_prime(n) is False
    else:
        with pytest.raises(ResourceLimitError, match=f"primality.*{PSI13}"):
            is_prime(n)


def test_carmichael_numbers_are_composite():
    rng = random.Random(11)
    chernick = []  # (6k+1)(12k+1)(18k+1) with all three factors prime
    while len(chernick) < 20:
        k = rng.randrange(1, 10**7)
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in factors):
            chernick.append(factors[0] * factors[1] * factors[2])
    for n in CARMICHAEL + chernick:
        assert n < PSI13 and not sympy.isprime(n)
        factors = sympy.factorint(n)  # Korselt: squarefree, and p - 1 | n - 1
        assert set(factors.values()) == {1} and all((n - 1) % (q - 1) == 0 for q in factors)
        assert is_prime(n) is False


def test_random_semiprimes_and_primes():
    rng = random.Random(5)
    for bits in (8, 16, 24, 32, 40):
        for _ in range(25):
            a = sympy.randprime(2 ** (bits - 1), 2**bits)
            b = sympy.nextprime(a + rng.randrange(1, 2**bits))
            assert is_prime(a) is True
            assert is_prime(a * b) is False
            assert is_prime(a * a) is False


def test_at_and_above_psi13_only_a_small_factor_decides():
    big = sympy.nextprime(PSI13)
    for n in (PSI13, big, 2**89 - 1, big * sympy.nextprime(big)):
        with pytest.raises(ResourceLimitError, match="psi13"):
            is_prime(n)
    assert is_prime(2 * PSI13 + 2) is False
    assert is_prime(41 * big) is False
    assert is_prime(sympy.prevprime(PSI13)) is True


def _dividing_loop(p, n):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_vp_matches_a_dividing_loop():
    # vp halves k by recursing on p^2, one parity bit a level, so every k below
    # 130 is covered, and each side of 256 and 1,024
    rng = random.Random(23)
    for p in (2, 3, 5, 7, 101, 2**61 - 1):
        for k in [*range(130), 255, 256, 257, 1023, 1024, 1025]:
            u = rng.randrange(1, 10**40)
            n = p**k * u
            assert vp(p, n) == vp(p, -n) == _dividing_loop(p, n)
            assert vp(p, Fraction(u, n)) == _dividing_loop(p, u) - _dividing_loop(p, n)
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7))
        n = rng.choice((rng.randrange(1, 10**60), rng.randrange(1, 100) * p ** rng.randrange(200)))
        m = rng.randrange(1, 10**20) * p ** rng.randrange(50)
        assert vp(p, n) == _dividing_loop(p, n)
        assert vp(p, Fraction(-n, m)) == _dividing_loop(p, n) - _dividing_loop(p, m)
    assert vp(5, 0) == vp(5, Fraction(0)) == INFINITY


def test_vp_is_exact_at_valuations_the_loop_cannot_reach():
    # up to k = 10^5 the loop takes seconds, so the oracle is the definition:
    # p^k divides n and p^(k+1) does not
    rng = random.Random(29)
    for p in (2, 3, 7):
        for k in (2**16 - 1, 2**16, 2**16 + 1, 10**5):
            u = rng.randrange(1, 10**40) * p + rng.randrange(1, p)
            n = p**k * u
            assert n % p**k == 0 and n % p ** (k + 1) != 0
            assert vp(p, n) == k and vp(p, Fraction(u, n)) == -k
