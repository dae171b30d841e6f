"""Seeded query generators, one per workload.

A workload is a round: a fixed list of slots, each slot a shape (command,
degree, prime range, depth, kind) from which the seed draws the map,
prime and basepoint.  The shapes bound every query's cost by its makeup,
so no query is chosen by timing it, and two seeds give rounds of similar
total work.  The program receives only the generated strings; ``meta``
keeps what the checks need, in the benchmark's own terms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from maps import conjugate, factor_degrees, iterate, map_text, primitive, rational_pc


@dataclass(frozen=True)
class Query:
    argv: tuple
    meta: dict


def _primes_between(lo, hi):
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [n for n in range(lo, hi) if sieve[n]]


def _prime(rng, lo, hi, d):
    return rng.choice([q for q in _primes_between(lo, hi) if d % q])


def _nonzero(rng, lo, hi):
    return rng.choice([c for c in range(lo, hi + 1) if c])


def _poly(coeffs_by_degree, d):
    """Forms of the polynomial map sum c_i z^i of degree d."""
    F = [0] * (d + 1)
    for i, c in coeffs_by_degree.items():
        F[i] = c
    G = [0] * (d + 1)
    G[0] = 1
    return primitive(F, G)


def _unicritical_family(rng, d, p):
    """Polynomial maps whose finite critical points are all rational mod p.

    d = 2: z^2 + b z + c, critical at -b/2.  d = 3: z^3 + b z^2 + c,
    critical at 0 and -2b/3.  d = 4: z^4 + c, critical at 0.
    Returns the integer forms and the critical residues (with infinity).
    """
    c = rng.randint(-6, 6)
    if d == 2:
        b = rng.randint(-3, 3)
        F, G = _poly({2: 1, 1: b, 0: c}, 2)
        crit = [(-b * pow(2, -1, p)) % p]
    elif d == 3:
        b = rng.randint(-3, 3)
        F, G = _poly({3: 1, 2: b, 0: c}, 3)
        crit = [0, (-2 * b * pow(3, -1, p)) % p]
    else:
        F, G = _poly({4: 1, 0: c}, 4)
        crit = [0]
    return F, G, crit + [None]


def _unit_mobius(rng, p):
    """An integer Mobius matrix with unit determinant at p and a pole."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if c and (a * d - b * c) % p:
            return (a, b, c, d)


# -- tower ---------------------------------------------------------------------

# (degree, depth, prime, tree): the tree entry fixes the degree m of the
# field F_{p^m} that splits the level-n fiber, which sets the cost of the
# preimage tree; 3^32 is over the program's field cap, so those fibers are
# irreducible and build no tree.  "on-pc" puts the basepoint on the
# postcritical set.
#
# The median falls inside the 28 slots of the first kind and p90 inside
# the 14 of the second.
TOWER_SLOTS = (
    [(2, 3, 5, 4)] * 28
    + [(2, 4, 3, 4)] * 14
    + [(3, 2, 5, 2)] * 4
    + [(2, 5, 3, 32)] * 4
    + [(2, 4, 5, "on-pc")] * 3
    + [(3, 3, 5, "on-pc")] * 3
)


def _splitting_degree(F, G, n, r, p):
    """Degree over F_p of the field that splits the level-n fiber over r."""
    Fn, Gn = iterate(F, G, n)
    return math.lcm(*factor_degrees([f - r * g for f, g in zip(Fn, Gn)], p))


def tower_round(seed):
    rng = random.Random(seed)
    out = []
    for d, n, p, tree in TOWER_SLOTS:
        while True:
            F, G, crit = _unicritical_family(rng, d, p)
            pc = rational_pc(F, G, crit, p)
            residues = [r for r in range(p) if (r in pc) == (tree == "on-pc")]
            if not residues:
                continue
            r = rng.choice(residues)
            if tree == "on-pc":
                break
            if _splitting_degree(F, G, n, r, p) == tree:
                break
        x = r - p * rng.randint(0, 1)
        argv = ("tower", map_text(F, G), "-p", str(p), f"-x={x}", "-n", str(n))
        out.append(Query(argv, {"F": F, "G": G, "p": p, "x": x, "n": n, "pc": pc}))
    return out


# -- orbit ---------------------------------------------------------------------

# (orbit length, tower depth, start kind).  Heights double at every step,
# so the orbit length and depth set the work; the median falls inside the
# depth-2 integral and p-integral tier and p90 inside the depth-3 one.
ORBIT_SLOTS = (
    [(6, 2, "non-integral")] * 24
    + [(7, 2, "integral"), (7, 2, "p-integral")] * 24
    + [(4, 3, "non-integral")] * 8
    + [(4, 3, "integral"), (4, 3, "p-integral")] * 12
)


def orbit_round(seed):
    rng = random.Random(seed)
    out = []
    for N, n, kind in ORBIT_SLOTS:
        p = _prime(rng, 3, 14, 2)
        b = rng.randint(-2, 2)
        v = rng.choice([1, 1, 2, 3, 4])
        while v % p == 0:
            v += 1
        c = Fraction(rng.randint(-5, 5), v)
        F, G = primitive([c, b, 1], [1, 0, 0])
        crit = [(-b * pow(2, -1, p)) % p, None]
        pc = rational_pc(F, G, crit, p)
        if kind == "integral":
            x = Fraction(rng.randint(-4, 4))
        else:
            den = rng.choice([q for q in range(2, 6) if q % p]) if kind == "p-integral" else p
            x = Fraction(_nonzero(rng, -4, 4), den)
            while x.denominator == 1:
                x += Fraction(1, den)
        argv = ("orbit", map_text(F, G), "-p", str(p), f"-x={x}", "-N", str(N), "-n", str(n))
        out.append(Query(argv, {"F": F, "G": G, "p": p, "x": x, "N": N, "n": n, "pc": pc}))
    return out


# -- analyze -------------------------------------------------------------------

# (prime range, degree, kind)
#   polynomial: a unicritical polynomial, rational critical points;
#   rational: its conjugate by an integer Mobius map, the same points moved;
#   quadratic: a generic quadratic rational map, critical points of degree
#              <= 2, kept at p <= 13 so the PC set stays small;
#   bad: p*z^d + (degree d-1 polynomial), reducing to a lower degree.
# Work grows with p (the locus walk) and with the PC set, so the windows
# are narrow, and the tiers are sized so that the median falls inside the
# p ~ 100 tier and p90 inside the p ~ 10^3 tier, not on a boundary.
ANALYZE_SLOTS = (
    [((11, 14), 2, "quadratic")] * 14
    + [((89, 110), 3, "bad"), ((11, 14), 4, "bad")] * 4
    + [((89, 110), d, kind) for d in (2, 3, 4) for kind in ("polynomial", "rational")] * 4
    + [((1009, 1100), 3, "rational")] * 6
    + [((5000, 5100), 2, "polynomial")] * 2
    + [((9900, 10000), 2, "polynomial")]
)


def _quadratic_rational(rng, p):
    """(a z^2 + b z + c)/(e z^2 + f z + g) with unit resultant at p."""
    while True:
        F = [rng.randint(-5, 5) for _ in range(3)]
        G = [rng.randint(-5, 5) for _ in range(3)]
        f0, f1, f2 = F
        g0, g1, g2 = G
        # resultant of the binary forms, by the 2x2 Bezout formula
        res = (f2 * g0 - f0 * g2) ** 2 - (f2 * g1 - f1 * g2) * (f1 * g0 - f0 * g1)
        if res % p and f2:
            return primitive(F, G)


def analyze_round(seed):
    rng = random.Random(seed)
    out = []
    for (lo, hi), d, kind in ANALYZE_SLOTS:
        p = _prime(rng, lo, hi, d)
        if kind == "quadratic":
            F, G = _quadratic_rational(rng, p)
        elif kind == "bad":
            base = {i: _nonzero(rng, -4, 4) for i in range(d)}
            base[d - 1] = 1
            base[d] = p
            F, G = _poly(base, d)
        else:
            F, G, _ = _unicritical_family(rng, d, p)
            if kind == "rational":
                F, G = conjugate(F, G, _unit_mobius(rng, p))
        argv = ("analyze", map_text(F, G), "-p", str(p))
        out.append(Query(argv, {"F": F, "G": G, "p": p, "d": d}))
    return out


# -- moduli --------------------------------------------------------------------

# (prime range, degree, kind)
#   early: conjugate of a good map by M0^-1 with M0 = p^a0 z + b0, found at
#          a = a0 on the grid, after (a0 + 3) p candidates (a0 = 1 or 2);
#   inversion: composed with z -> 1/z as well, a model with a pole; p z
#              is still a witness, so it is found after 4p candidates;
#   walk: z^d + c/p has no conjugate of good reduction: all 21p candidates.
# The prime windows are narrow because a query's work grows with p; the
# median falls inside the ten a0 = 1 slots and p90 inside the p ~ 30 walks.
MODULI_SLOTS = (
    [((11, 18), 2, "inversion", 1)] * 4
    + [((11, 14), 3, "early", 1)] * 4
    + [((29, 32), 2, "early", 1)] * 10
    + [((29, 32), 2, "early", 2)] * 2
    + [((11, 14), 3, "walk", None)] * 2
    + [((29, 32), 2, "walk", None)] * 4
    + [((101, 104), 2, "walk", None)]
)


def moduli_round(seed):
    rng = random.Random(seed)
    out = []
    for (lo, hi), d, kind, a0 in MODULI_SLOTS:
        p = _prime(rng, lo, hi, d)
        if kind == "walk":
            F, G = _poly({d: 1, 0: Fraction(_nonzero(rng, 1, p - 1), p)}, d)
        else:
            F, G, _ = _unicritical_family(rng, d, p)
            b0 = rng.randint(0, p - 1)
            # phi = M0^-1 o psi o M0 with M0 = p^a0 z + b0: conjugating by
            # M0^-1 = (z - b0)/p^a0
            M = (1, -b0, 0, p**a0)
            if kind == "inversion":
                M = (M[1], M[0], M[3], M[2])  # (M0^-1) o (1/z)
            F, G = conjugate(F, G, M)
        argv = ("moduli", map_text(F, G), "-p", str(p))
        out.append(Query(argv, {"F": F, "G": G, "p": p, "d": d, "kind": kind}))
    return out


ROUNDS = {
    "tower": tower_round,
    "orbit": orbit_round,
    "analyze": analyze_round,
    "moduli": moduli_round,
}
