"""Exact polynomial arithmetic against sympy oracles."""

import random
from fractions import Fraction

import pytest
import sympy

from oracles import sylvester_det
from padicdyn.errors import InputError
from padicdyn.qpolys import (
    QPoly,
    binary_form_resultant,
    det_bareiss,
    discriminant,
    poly_str,
    resultant,
)

T = sympy.Symbol("T")


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed([sympy.Rational(c) for c in coeffs])), T)


def _random_poly(rng, deg, bound=8):
    # nonzero leading coefficient so formal and true degree agree
    c = [Fraction(rng.randint(-bound, bound)) for _ in range(deg)]
    c.append(Fraction(rng.choice([v for v in range(-3, 4) if v])))
    return c


def test_resultant_matches_sylvester_determinant():
    # oracle is the defining determinant; PRS-based resultants can drift
    # in sign for unbalanced degrees, so sympy.resultant is not used here
    rng = random.Random(11)
    for _ in range(60):
        f = _random_poly(rng, rng.randint(1, 5))
        g = _random_poly(rng, rng.randint(1, 5))
        ours = resultant(QPoly(f), QPoly(g))
        assert ours == sylvester_det(f, g)


def test_resultant_edge_cases_match_sylvester_determinant():
    # shared factors (resultant 0), constants, non-monic and rational inputs,
    # and degrees past the random test's
    rng = random.Random(43)
    cases = [
        ([3], [1, 2, 5]),
        ([1, 2, 5], [-3]),
        ([4], [7]),
        ([-4, 1], [0, 0, 0, 1]),
        ([0, 0, 0, 1], [-4, 1]),
        ([Fraction(1, 2), 3], [Fraction(-2, 3), 0, Fraction(5, 4)]),
    ]
    for _ in range(30):
        common = _random_poly(rng, rng.randint(1, 2))
        f = (QPoly(common) * QPoly(_random_poly(rng, rng.randint(0, 3)))).coeffs
        g = (QPoly(common) * QPoly(_random_poly(rng, rng.randint(0, 3)))).coeffs
        cases.append((list(f), list(g)))
    for _ in range(15):
        cases.append((_random_poly(rng, rng.randint(6, 9)), _random_poly(rng, rng.randint(6, 9))))
    for f, g in cases:
        want = sylvester_det(f, g)
        assert resultant(QPoly(f), QPoly(g)) == want, (f, g)
    assert resultant(QPoly([-4, 1]), QPoly([0, 0, 0, 1])) == 64


def test_discriminant_matches_sylvester_determinant():
    rng = random.Random(47)
    for _ in range(40):
        f = _random_poly(rng, rng.randint(1, 8))
        if rng.random() < 0.3:
            f = list((QPoly(f) * QPoly(f[:2] or [1, 1])).coeffs)  # a repeated factor
        n = len(f) - 1
        df = [i * c for i, c in enumerate(f)][1:]
        sign = -1 if n * (n - 1) // 2 % 2 else 1
        assert discriminant(QPoly(f)) == sign * sylvester_det(f, df) / f[-1]


def test_resultant_matches_sympy_up_to_antisymmetry():
    rng = random.Random(29)
    for _ in range(40):
        f = _random_poly(rng, rng.randint(1, 4))
        g = _random_poly(rng, rng.randint(1, 4))
        ours = resultant(QPoly(f), QPoly(g))
        theirs = Fraction(str(sympy.resultant(_sympy_poly(f), _sympy_poly(g))))
        assert ours in (theirs, -theirs)


def test_discriminant_matches_sympy():
    rng = random.Random(13)
    for _ in range(60):
        f = _random_poly(rng, rng.randint(1, 5))
        ours = discriminant(QPoly(f))
        theirs = sympy.discriminant(_sympy_poly(f).as_expr(), T)
        assert ours == Fraction(str(theirs))


def test_discriminant_rational_coefficients():
    f = QPoly([Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)])
    expr = sympy.Rational(5, 6) * T**2 - sympy.Rational(3, 4) * T + sympy.Rational(1, 2)
    assert discriminant(f) == Fraction(str(sympy.discriminant(expr, T)))


def test_det_bareiss_matches_sympy():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(rows) == int(sympy.Matrix(rows).det())


def test_det_bareiss_needs_pivot_swap():
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 0], [0, 0]]) == 0
    assert det_bareiss([]) == 1


def test_binary_form_resultant_dehomogenized_agreement():
    rng = random.Random(19)
    for _ in range(40):
        d = rng.randint(1, 4)
        f = _random_poly(rng, d)
        g = _random_poly(rng, d)
        assert binary_form_resultant(f, g, d) == resultant(QPoly(f), QPoly(g))


def test_binary_form_resultant_matches_formal_sylvester_determinant():
    # formal coefficient lists, vanishing top coefficients (roots at
    # infinity) included, against the 2d x 2d determinant
    rng = random.Random(53)
    for _ in range(120):
        d = rng.randint(1, 5)
        f = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(d + 1)]
        g = [Fraction(rng.randint(-6, 6)) for _ in range(d + 1)]
        for form in (f, g):
            for k in range(rng.choice([0, 0, 1, 2])):
                form[d - k] = 0
        if rng.random() < 0.2:
            f = [0] + [c for c in f[:-1]]  # a root at X = 0
            g = [0] + [c for c in g[:-1]]
        assert binary_form_resultant(f, g, d) == sylvester_det(f, g), (f, g, d)
    assert binary_form_resultant([0, 0, 0], [1, 2, 3], 2) == 0


def test_binary_form_resultant_formal_scaling():
    # scaling one degree-d form scales the resultant by lambda^d
    f = [1, 2, 3]
    g = [4, 5, 6]
    base = binary_form_resultant(f, g, 2)
    assert binary_form_resultant([7 * c for c in f], g, 2) == 49 * base
    assert binary_form_resultant(f, [7 * c for c in g], 2) == 49 * base


def test_binary_form_resultant_detects_common_projective_root():
    # both forms divisible by X: common root [1:0], which dehomogenizing hides
    assert binary_form_resultant([0, 1, 1], [0, 2, 5], 2) == 0
    assert binary_form_resultant([0, 1], [0, 3], 1) == 0
    assert binary_form_resultant([3, 0], [0, 3], 1) == -9


def test_resultant_of_known_pair():
    # Res(X^2 + XY, Y^2) = 1 drives the unit-resultant witnesses
    assert binary_form_resultant([0, 1, 1], [1, 0, 0], 2) == 1
    assert binary_form_resultant([5, 0, 1], [1, 0, 0], 2) == 1


def test_qpoly_divmod_roundtrip():
    rng = random.Random(23)
    for _ in range(30):
        f = QPoly(_random_poly(rng, rng.randint(2, 6)))
        g = QPoly(_random_poly(rng, rng.randint(1, 3)))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


def test_qpoly_gcd_of_engineered_pair():
    common = QPoly([1, 1])
    f = common * QPoly([2, 0, 1])
    g = common * QPoly([-3, 1])
    got = f.gcd(g)
    assert got.degree == 1
    assert got(-1) == 0


def test_error_paths():
    with pytest.raises(InputError):
        resultant(QPoly([0]), QPoly([1, 1]))
    with pytest.raises(InputError):
        discriminant(QPoly([5]))
    with pytest.raises(InputError):
        binary_form_resultant([1, 2], [1, 2, 3], 2)
    with pytest.raises(InputError):
        binary_form_resultant([1], [2], 0)


def test_poly_str_rendering():
    assert poly_str((4, 1)) == "T+4"
    assert poly_str((0, 0, 1)) == "T^2"
    assert poly_str((5, 0, 1), var="z") == "z^2+5"
    assert poly_str((Fraction(1, 2), Fraction(-3), 1)) == "T^2-3*T+1/2"
    assert poly_str((0,)) == "0"
    assert poly_str((1, -2, -1)) == "-T^2-2*T+1"
