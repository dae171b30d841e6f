"""Exact integer polynomial arithmetic against sympy oracles."""

import random
from fractions import Fraction
from math import gcd

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
ZT, _ = sympy.ring("T", sympy.ZZ)


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed([sympy.Rational(c) for c in coeffs])), T)


def _random_poly(rng, deg, bound=8):
    # nonzero leading coefficient so formal and true degree agree
    c = [rng.randint(-bound, bound) for _ in range(deg)]
    c.append(rng.choice([v for v in range(-3, 4) if v]))
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
    # shared factors (resultant 0), constants, non-monic inputs with
    # content, and degrees past the random test's
    rng = random.Random(43)
    cases = [
        ([3], [1, 2, 5]),
        ([1, 2, 5], [-3]),
        ([4], [7]),
        ([-4, 1], [0, 0, 0, 1]),
        ([0, 0, 0, 1], [-4, 1]),
        ([6, 36], [-8, 0, 15]),
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
    # non-monic, and also scaled by a content with either sign, so the
    # exact division by lc(f) meets composite and negative divisors
    rng = random.Random(13)
    for _ in range(60):
        f = _random_poly(rng, rng.randint(1, 5))
        for k in (1, rng.choice([2, 3, 6, -4, -15])):
            fk = [k * c for c in f]
            ours = discriminant(QPoly(fk))
            theirs = sympy.discriminant(_sympy_poly(fk).as_expr(), T)
            assert ours == int(theirs), fk


def test_discriminant_rational_coefficients():
    # a rational f is (1/den) * an integer polynomial g of degree n, and
    # Disc(lambda g) = lambda^(2n-2) Disc(g)
    expr = sympy.Rational(5, 6) * T**2 - sympy.Rational(3, 4) * T + sympy.Rational(1, 2)
    g = [6, -9, 10]  # 12 * expr, ascending
    assert Fraction(discriminant(QPoly(g)), 12**2) == Fraction(str(sympy.discriminant(expr, T)))
    rng = random.Random(59)
    for _ in range(20):
        g = _random_poly(rng, rng.randint(1, 6))
        lam = rng.choice([2, -3, 5, 12])
        n = len(g) - 1
        assert discriminant(QPoly([lam * c for c in g])) == lam ** (2 * n - 2) * discriminant(QPoly(g))


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
        f = [rng.randint(-6, 6) * rng.choice([1, 1, 2, 3]) for _ in range(d + 1)]
        g = [rng.randint(-6, 6) for _ in range(d + 1)]
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


def test_qpoly_gcd_of_engineered_pair():
    common = QPoly([1, 1])
    f = common * QPoly([2, 0, 1])
    g = common * QPoly([-3, 1])
    assert f.gcd(g) == common
    assert QPoly([-6, -6]).gcd(QPoly([4, 0, -4])) == common


def _sympy_primitive_gcd(f, g):
    # sympy's gcd over Z keeps the content and a positive lc
    h = ZT.from_list(list(reversed(f))).gcd(ZT.from_list(list(reversed(g))))
    if not h:
        return ()
    cs = [int(c) for c in reversed(h.to_dense())]
    content = gcd(*cs)
    return tuple(c // content for c in cs)


def test_qpoly_gcd_matches_sympy():
    # a planted common factor, content on either side, negative leading
    # coefficients, constants and zero; the gcd over Q is returned as a
    # primitive integer polynomial with positive leading coefficient
    rng = random.Random(61)
    cases = [([], []), ([], [0, 2, -4]), ([-6], []), ([6], [4]), ([-5], [1, 1]), ([3, 3], [-3])]
    for _ in range(200):
        common = _random_poly(rng, rng.randint(0, 3))
        f = (QPoly(common) * QPoly(_random_poly(rng, rng.randint(0, 4)))).coeffs
        g = (QPoly(common) * QPoly(_random_poly(rng, rng.randint(0, 4)))).coeffs
        f = [rng.choice([1, 1, 2, -3, 6]) * c for c in f]
        g = [rng.choice([1, 1, 4, -9]) * c for c in g]
        cases.append((f, g))
    for f, g in cases:
        got = QPoly(f).gcd(QPoly(g))
        assert got.coeffs == _sympy_primitive_gcd(f, g), (f, g)
        assert got.is_zero() or got.lc > 0
        assert got == QPoly(g).gcd(QPoly(f))


def test_integer_kernel_refuses_fractions():
    # a Fraction would otherwise be floor-divided by the exact integer steps
    with pytest.raises(TypeError):
        QPoly((Fraction(1, 2),))
    with pytest.raises(TypeError):
        QPoly((1, Fraction(3, 1)))
    with pytest.raises(TypeError):
        binary_form_resultant([Fraction(1, 2), 1], [1, 0], 1)
    assert QPoly((2, 0, 0)).coeffs == (2,)
    assert all(type(c) is int for c in (QPoly([3, -1]) ** 3).coeffs)
    assert type(resultant(QPoly([1, 2]), QPoly([3, 4, 5]))) is int
    assert type(discriminant(QPoly([1, 2, 3]))) is int


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
