"""Independent oracles that only the tests use."""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import sympy

from padicdyn.errors import InputError
from padicdyn.finitefield import (
    FqField,
    fiber_form,
    form_is_squarefree,
    form_is_zero,
    fq_extension,
    iterate_forms,
)
from padicdyn.maps import Mobius, ProjPointQ, ReducedMap, eval_reduced
from padicdyn.reduction import ClosedPoint, PostcriticalSet, closed_points_of_form


def form_resultant(field: FqField, F, G) -> int:
    """Determinant of the formal-degree Sylvester matrix over the field."""
    d = len(F) - 1
    if len(G) != len(F):
        raise InputError("forms must share a formal degree")
    size = 2 * d
    rows = []
    fd = list(reversed(F))
    gd = list(reversed(G))
    for i in range(d):
        row = [0] * size
        for j, c in enumerate(fd):
            row[i + j] = c
        rows.append(row)
    for i in range(d):
        row = [0] * size
        for j, c in enumerate(gd):
            row[i + j] = c
        rows.append(row)
    det = field.of_int(1)
    for k in range(size):
        pivot_row = None
        for i in range(k, size):
            if rows[i][k] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = field.neg(det)
        pivot = rows[k][k]
        det = field.mul(det, pivot)
        inv = field.inv(pivot)
        for i in range(k + 1, size):
            factor = rows[i][k]
            if factor:
                scale = field.neg(field.mul(factor, inv))
                rows[i] = [
                    field.add(rows[i][j], field.mul(scale, rows[k][j]))
                    for j in range(size)
                ]
    return det


def poly_mul(field: FqField, a, b) -> list:
    """Schoolbook product of two ascending coefficient lists, trimmed,
    by one field add and mul per pair of terms."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    while out and out[-1] == 0:
        out.pop()
    return out


def int_poly_mul(a, b) -> list:
    """Schoolbook product of two ascending integer coefficient lists, trimmed."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def form_eval(field: FqField, coeffs, a: int, b: int) -> int:
    """A form at (X, Y) = (a, b): the sum of c_i a^i b^(D-i) over its terms."""
    d = len(coeffs) - 1
    acc = 0
    pa = field.of_int(1)
    pows_a = []
    for _ in range(d + 1):
        pows_a.append(pa)
        pa = field.mul(pa, a)
    pb = field.of_int(1)
    for i in range(d, -1, -1):
        c = coeffs[i]
        if c:
            acc = field.add(acc, field.mul(field.mul(c, pows_a[i]), pb))
        pb = field.mul(pb, b)
    return acc


def map_table(field: FqField, F, G) -> dict:
    """[F : G] at every point of P^1(field), with None for infinity.

    F and G are integer binary forms of one formal degree (entry i is the
    coefficient of X^i Y^(D-i)), reduced through Z -> F_p and evaluated
    point by point, so they must have no common zero mod p.
    """

    def value(form, z):
        acc = 0
        for c in reversed(form):
            acc = field.add(field.mul(acc, z), field.of_int(c))
        return acc

    table = {}
    for z in [*range(field.q), None]:
        if z is None:
            fz, gz = field.of_int(F[-1]), field.of_int(G[-1])
        else:
            fz, gz = value(F, z), value(G, z)
        if fz == 0 and gz == 0:
            raise InputError("the forms share a zero mod p")
        table[z] = None if gz == 0 else field.mul(fz, field.inv(gz))
    return table


def sylvester_det(f_asc, g_asc):
    """Determinant of the textbook Sylvester matrix via sympy.Matrix.

    Both lists are ascending; their lengths fix the degrees, so trailing
    zeros give the formal-degree matrix of binary forms.
    """
    f_desc = [sympy.Rational(c) for c in reversed(f_asc)]
    g_desc = [sympy.Rational(c) for c in reversed(g_asc)]
    n, m = len(f_desc) - 1, len(g_desc) - 1
    size = n + m
    rows = [[0] * i + f_desc + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + g_desc + [0] * (size - m - 1 - i) for i in range(n)]
    return Fraction(str(sympy.Matrix(rows).det()))


# the rational function field Q(z): each quotient is cancelled on construction
_QZ, _Z = sympy.field("z", sympy.QQ)


def _rational(c):
    return sympy.QQ(c.numerator, c.denominator)


def _function(F, G, w=_Z):
    """F(w) / G(w) in Q(z) for ascending coefficient lists F and G."""
    num = den = _QZ(0)
    for f, g in zip(reversed(F), reversed(G)):
        num, den = num * w + _rational(f), den * w + _rational(g)
    return num / den


def fiber_numerator(F, G, n, a, b):
    """The numerator of b*phi^n(z) - a in Q[z], phi^n composed in Q(z)."""
    w = _Z
    for _ in range(n):
        w = _function(F, G, w)
    return (b * w - a).numer


def _forms(f, d):
    """The ascending degree-d forms (numerator, denominator) of f in Q(z)."""
    F, G = (
        [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(poly.to_dense())]
        for poly in (f.numer, f.denom)
    )
    assert max(len(F), len(G)) == d + 1, "conjugation changed the degree"
    return F + [Fraction(0)] * (d + 1 - len(F)), G + [Fraction(0)] * (d + 1 - len(G))


def _valuation(p, c):
    return sympy.multiplicity(p, c.numerator) - sympy.multiplicity(p, c.denominator)


def _resultant_valuation(F, G, p):
    """v_p of the Sylvester determinant of the p-primitive scaling of (F, G)."""
    shift = min(_valuation(p, c) for c in F + G if c)
    scale = Fraction(p) ** -shift
    det = sylvester_det([c * scale for c in F], [c * scale for c in G])
    return _valuation(p, det)


def _canonical(F, G):
    """Integer forms of content 1 with the first nonzero coefficient of G positive."""
    den = lcm(*(c.denominator for c in F + G))
    ints = [int(c * den) for c in F + G]
    g = gcd(*ints)
    sign = 1 if next(c for c in ints[len(F):] + ints if c) > 0 else -1
    ints = [sign * c // g for c in ints]
    return tuple(ints[: len(F)]), tuple(ints[len(F):])


def moduli_walk(F, G, p):
    """The moduli search's grid walked with sympy rational functions.

    Candidates M are z -> p^a z + b for a in -3..3 and b in range(p), a
    ascending then b; then each composed with 1/z on the right; then 1/z
    composed with each.  Each conjugate M o phi o M^-1 is composed in
    sympy's field Q(z), which cancels it, and rated by v_p of the
    Sylvester determinant of its p-primitive forms.  The walk keeps the
    first strictly smaller value and stops at 0.  Returns (tried,
    initial, best, entries of the best M, its canonical conjugate forms).
    """
    d = len(F) - 1
    phi = _function(F, G)
    grid = [(Fraction(p) ** a, b) for a in range(-3, 4) for b in range(p)]
    candidates = [(s, b, 0, 1) for s, b in grid]
    candidates += [(b, s, 1, 0) for s, b in grid]
    candidates += [(0, 1, s, b) for s, b in grid]
    best = None
    tried = 0
    for M in candidates:
        al, be, ga, de = (_rational(Fraction(e)) for e in M)
        image = _function(F, G, (de * _Z - be) / (-ga * _Z + al))
        forms = _forms((al * image + be) / (ga * image + de), d)
        val = _resultant_valuation(*forms, p)
        tried += 1
        if best is None or val < best[0]:
            best = (val, M, forms)
        if best[0] == 0:
            break
    initial = _resultant_valuation(*_forms(phi, d), p)
    return tried, initial, best[0], tuple(Fraction(e) for e in best[1]), _canonical(*best[2])


def fiber_sweep(rmap: ReducedMap, d: int, locus) -> tuple:
    """The fiber criterion point by point: (witnesses, violations).

    A point of the locus passes when the reduced map has the model's full
    degree d and its fiber form over the point is squarefree, decided by
    one gcd over F_p per point.
    """
    full = rmap.reduced_degree == d
    witnesses, violations = [], []
    for xbar in locus:
        a, b = (1, 0) if xbar is None else (xbar, 1)
        fib = fiber_form(rmap.field, rmap.F1, rmap.G1, a, b)
        ok = full and form_is_squarefree(rmap.field, fib)
        (witnesses if ok else violations).append(xbar)
    return tuple(witnesses), tuple(violations)


@lru_cache(maxsize=None)
def universal_discriminant(d: int):
    """Disc_d as a sympy Poly in the coefficients a0..ad of a0 + ... + ad*x^d."""
    x = sympy.Symbol("x")
    a = sympy.symbols(f"a0:{d + 1}")
    generic = sum(c * x**i for i, c in enumerate(a))
    return sympy.Poly(sympy.expand(sympy.discriminant(generic, x)), *a)


def separable_oracle(rmap: ReducedMap) -> bool:
    """Brute force: is some fiber of the reduced map e distinct points?

    The fiber forms of an inseparable map are p-th powers, so none is
    squarefree.  A separable map of degree e has a ramification divisor of
    degree 2e - 2, hence at most 2e - 2 branch points, and its fiber over
    any other point is etale: P^1(F_{p^k}) holds such a point once
    p^k + 1 > 2e - 2, which for e <= 3 means k <= 2.
    """
    e = rmap.reduced_degree
    k = 1
    while rmap.p**k + 1 <= 2 * e - 2:
        k += 1
    field = fq_extension(rmap.p, k)
    for a, b in [(a, 1) for a in range(field.q)] + [(1, 0)]:
        if form_is_squarefree(field, fiber_form(field, rmap.F1, rmap.G1, a, b)):
            return True
    return False


def etale_fiber_oracle(rmap: ReducedMap, xbar: int | None, n: int) -> bool:
    """Brute force: does the fiber of the n-th reduced iterate over xbar
    consist of deg^n distinct points?

    Returns False for every input when the reduced map is inseparable or
    constant (no fiber of an iterate is ever etale there).
    """
    if n < 1:
        raise InputError("iteration depth must be >= 1")
    if rmap.reduced_degree < 1:
        return False
    if not separable_oracle(rmap):
        return False
    Fn, Gn = iterate_forms(rmap.field, rmap.F1, rmap.G1, n)
    a, b = (1, 0) if xbar is None else (xbar, 1)
    fib = fiber_form(rmap.field, Fn, Gn, a, b)
    return form_is_squarefree(rmap.field, fib)


def frontier_pushforward(point: ClosedPoint, rmap: ReducedMap) -> ClosedPoint:
    """Image of a closed point, computed in its own residue field.

    Builds F_p[T]/(m) from the point's minimal polynomial m, evaluates the
    reduced map at the class of T, and multiplies out the Frobenius orbit
    of the image.
    """
    p, k = rmap.p, point.degree
    if k == 1:
        c = None if point.is_infinity else (-point.poly[0]) % p
        return ClosedPoint.of_residue(p, eval_reduced(rmap.field, rmap.F1, rmap.G1, c))
    ext = FqField(p, k, point.poly)
    beta = eval_reduced(ext, rmap.F1, rmap.G1, p)  # p encodes the class of T
    if beta is None:
        return ClosedPoint.infinity(p)
    orbit = [beta]
    while (g := ext.frobenius(orbit[-1])) != beta:
        orbit.append(g)
    minpoly = [1]
    for root in orbit:
        minpoly = poly_mul(ext, minpoly, [ext.neg(root), 1])
    assert all(c < p for c in minpoly)
    return ClosedPoint(p, tuple(minpoly))


def frontier_postcritical_set(mp) -> PostcriticalSet:
    """PC level by level: push the whole frontier of new closed points
    forward until a level adds nothing; the depth is the number of levels
    that added a point."""
    rmap, crit = mp.rmap, mp.critical
    if form_is_zero(crit):
        return PostcriticalSet(rmap.p, frozenset(), True, 0, frozenset())
    critpts = frozenset(pt for pt, _ in closed_points_of_form(rmap.field, crit))
    pc, frontier, depth = set(), critpts, 0
    while frontier:
        new = {frontier_pushforward(q, rmap) for q in frontier} - pc
        if new:
            depth += 1
        pc |= new
        frontier = new
    return PostcriticalSet(rmap.p, frozenset(pc), False, depth, critpts)


# -- Mobius maps z -> (alpha z + beta)/(gamma z + delta) with rational entries


def mobius_det(M: Mobius) -> Fraction:
    return M.alpha * M.delta - M.beta * M.gamma


def mobius_inverse(M: Mobius) -> Mobius:
    return Mobius(M.delta, -M.beta, -M.gamma, M.alpha)


def mobius_apply(M: Mobius, point: ProjPointQ) -> ProjPointQ:
    a = M.alpha * point.a + M.beta * point.b
    b = M.gamma * point.a + M.delta * point.b
    den = lcm(a.denominator, b.denominator)
    return ProjPointQ(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))


def mobius_is_p_unit(M: Mobius, p: int) -> bool:
    """Entries p-integral and determinant a p-adic unit."""
    entries = (M.alpha, M.beta, M.gamma, M.delta)
    return all(e.denominator % p for e in entries) and mobius_det(M).numerator % p != 0
