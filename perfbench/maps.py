"""Rational-map arithmetic of the benchmark's own, kept apart from padicdyn.

The generators use it to build map strings and to place basepoints on or
off the postcritical set; the checks use it to recompute what the program
reports.  A map is a pair (F, G) of binary forms of one formal degree d,
stored as ascending coefficient tuples: entry i multiplies X^i Y^(d-i),
so the affine map is z -> F(z, 1) / G(z, 1).
"""

from __future__ import annotations

import math
from fractions import Fraction


def form_mul(A, B):
    out = [0] * (len(A) + len(B) - 1)
    for i, a in enumerate(A):
        if a:
            for j, b in enumerate(B):
                out[i + j] += a * b
    return out


def compose(F, U, V):
    """The form F(U, V) for binary forms U, V of one formal degree."""
    d = len(F) - 1
    pu, pv = [[1]], [[1]]
    for _ in range(d):
        pu.append(form_mul(pu[-1], U))
        pv.append(form_mul(pv[-1], V))
    out = [0] * (d * (len(U) - 1) + 1)
    for i, c in enumerate(F):
        if c:
            for k, t in enumerate(form_mul(pu[i], pv[d - i])):
                out[k] += c * t
    return out


def primitive(F, G):
    """Scale (F, G) jointly to coprime integers with content 1."""
    allc = [Fraction(c) for c in list(F) + list(G)]
    den = math.lcm(*(c.denominator for c in allc))
    ints = [int(c * den) for c in allc]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    return tuple(ints[: len(F)]), tuple(ints[len(F):])


def conjugate(F, G, M):
    """Forms of M o phi o M^-1 for M = (alpha, beta, gamma, delta)."""
    a, b, c, d = M
    U, V = (-b, d), (a, -c)  # M^-1 on [X : Y]
    FU, GU = compose(F, U, V), compose(G, U, V)
    return primitive(
        [a * f + b * g for f, g in zip(FU, GU)],
        [c * f + d * g for f, g in zip(FU, GU)],
    )


def iterate(F, G, n):
    """Forms of the n-th iterate (not content-reduced)."""
    Fn, Gn = list(F), list(G)
    for _ in range(n - 1):
        Fn, Gn = compose(F, Fn, Gn), compose(G, Fn, Gn)
    return Fn, Gn


def evaluate(F, G, x):
    """phi(x) for x a Fraction or None (the point at infinity)."""
    a, b = (1, 0) if x is None else (Fraction(x), 1)
    d = len(F) - 1
    fa = sum(c * a**i * b ** (d - i) for i, c in enumerate(F))
    ga = sum(c * a**i * b ** (d - i) for i, c in enumerate(G))
    return None if ga == 0 else Fraction(fa) / ga


def evaluate_mod(F, G, x, p):
    """The reduced map at a residue x (None is infinity); assumes good reduction."""
    a, b = (1, 0) if x is None else (x, 1)
    d = len(F) - 1
    fa = sum(c * pow(a, i, p) * pow(b, d - i, p) for i, c in enumerate(F)) % p
    ga = sum(c * pow(a, i, p) * pow(b, d - i, p) for i, c in enumerate(G)) % p
    if ga == 0:
        return None
    return fa * pow(ga, -1, p) % p


def rational_pc(F, G, crit, p):
    """Postcritical set of a good-reduction map whose critical points are
    the rational residues ``crit``: every forward image, as residues."""
    pc = set()
    frontier = {evaluate_mod(F, G, c, p) for c in crit}
    while frontier:
        pc |= frontier
        frontier = {evaluate_mod(F, G, x, p) for x in frontier} - pc
    return pc


def vp(p, a):
    a = Fraction(a)
    if a == 0:
        return math.inf
    v, n, d = 0, a.numerator, a.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def p_primitive(coeffs, p):
    """Integer coefficients scaled by a power of p to minimum valuation 0."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    while den % p == 0:
        den //= p
    coeffs = [c * den for c in coeffs]
    shift = min(vp(p, c) for c in coeffs if c)
    out = [c / Fraction(p) ** shift for c in coeffs]
    return [int(c) for c in out]


def poly_text(coeffs):
    """Ascending coefficients as the program's map syntax, e.g. '3*z^2-1/2'."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[i])
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            term = ("" if mag == 1 else f"{mag}*") + "z" + (f"^{i}" if i > 1 else "")
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + term)
    return "".join(parts) or "0"


def map_text(F, G):
    """The affine map F(z,1)/G(z,1) as a string for the command line."""
    num, den = poly_text(F), poly_text(G)
    if den == "1":
        return num
    return f"({num})/({den})"


# -- polynomials over F_p, ascending int lists ----------------------------------


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _divmod_p(f, g, p):
    f = _trim(list(f))
    q = [0] * max(len(f) - len(g) + 1, 1)
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        k = len(f) - len(g)
        q[k] = c
        for i, gc in enumerate(g):
            f[i + k] = (f[i + k] - c * gc) % p
        _trim(f)
    return _trim(q), f


def _gcd_p(f, g, p):
    while g:
        f, g = g, _divmod_p(f, g, p)[1]
    return f


def _mulmod_p(f, g, m, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _divmod_p(_trim(out), m, p)[1]


def factor_degrees(f, p):
    """Degrees of the irreducible factors of a squarefree f over F_p
    (distinct-degree factorization)."""
    f = _trim([c % p for c in f])
    degs, h, k = [], [0, 1], 0
    while len(f) > 1:
        k += 1
        if 2 * k > len(f) - 1:
            degs.append(len(f) - 1)
            break
        x_pk, base, e = [1], h, p  # h <- h^p mod f
        while e:
            if e & 1:
                x_pk = _mulmod_p(x_pk, base, f, p)
            base = _mulmod_p(base, base, f, p)
            e >>= 1
        h = x_pk
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = _gcd_p(f, _trim(diff), p)
        if len(g) > 1:
            degs.extend([k] * ((len(g) - 1) // k))
            f = _divmod_p(f, g, p)[0]
            h = _divmod_p(h, f, p)[1] if len(f) > 1 else h
    return sorted(degs)
