"""Seeded random model corpora shared by the property suites.

The mix is deliberately adversarial for reduction analysis: plain
polynomial maps, generic rational maps, numerators with all
coefficients divisible by p, pairs engineered to share a linear factor
mod p, and leading coefficients killed mod p.  Everything is driven by
random.Random(seed) so test runs are reproducible.
"""

import random

from padicdyn.maps import RationalMapModel
from padicdyn.qpolys import binary_form_resultant


def _coeffs(rng, d, bound):
    return [rng.randint(-bound, bound) for _ in range(d + 1)]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def random_models(p, count, *, degrees=(2, 3), seed=0, bound=9):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice(degrees)
        style = rng.random()
        F = _coeffs(rng, d, bound)
        G = _coeffs(rng, d, bound)
        if style < 0.25:
            G = [0] * (d + 1)
            G[0] = 1
        elif style < 0.40:
            F = [p * c for c in F]
        elif style < 0.55:
            # both reductions share the factor X - c*Y
            c = rng.randrange(p)
            line = [-c, 1]
            F = [
                u + p * r
                for u, r in zip(_mul(line, _coeffs(rng, d - 1, bound)), _coeffs(rng, d, bound))
            ]
            G = [
                u + p * r
                for u, r in zip(_mul(line, _coeffs(rng, d - 1, bound)), _coeffs(rng, d, bound))
            ]
        elif style < 0.65:
            F[d] *= p
        if binary_form_resultant(F, G, d) != 0:
            out.append(RationalMapModel(F, G))
    return out


def random_mobius_models(p, count, *, seed=0, bound=9):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if rng.random() < 0.4:
            a *= p ** rng.choice((1, 2))
        if binary_form_resultant([b, a], [d, c], 1) != 0:
            out.append(RationalMapModel([b, a], [d, c]))
    return out
