"""Parsing, projective points, models, iteration, conjugation, reduction."""

import random
from fractions import Fraction

import pytest

from corpus_util import random_models
from padicdyn.errors import InputError, ResourceLimitError
from padicdyn.maps import (
    Mobius,
    ProjPointQ,
    RationalMapModel,
    conjugate_map,
    eval_map,
    eval_reduced,
    iterate_map,
    normalize_integral,
    parse_map,
    reduce_map,
)
from padicdyn.finitefield import form_gcd_split, form_is_zero, prime_field_of
from padicdyn.padics import vp


def test_parse_basic_forms():
    m = parse_map("z^2 + p", 5)
    assert (m.d, m.F, m.G) == (2, (5, 0, 1), (1, 0, 0))
    assert m.map_str() == "z^2+5"
    m = parse_map("p*z^2 + z", 5)
    assert (m.F, m.G) == ((0, 1, 5), (1, 0, 0))
    m = parse_map("z^2/(1 + p*z^2)", 5)
    assert (m.F, m.G) == ((0, 0, 1), (1, 0, 5))
    m = parse_map("1/z", 7)
    assert (m.F, m.G) == ((1, 0), (0, 1))
    m = parse_map("(z^2 - 1)/(3*z + 2)", 5)
    assert (m.F, m.G) == ((-1, 0, 1), (2, 3, 0))


def test_parse_rational_coefficients_cleared():
    m = parse_map("z^2/2 + 1/3", 5)
    assert (m.F, m.G) == ((2, 0, 3), (6, 0, 0))


def test_parse_unary_minus_and_powers():
    m = parse_map("-z^3 + 2", 5)
    assert (m.F, m.G) == ((2, 0, 0, -1), (1, 0, 0, 0))
    with pytest.raises(InputError):
        parse_map("z^2^3", 5)  # exponent chains are ambiguous, rejected


def test_parse_rejections():
    with pytest.raises(InputError, match="implicit multiplication"):
        parse_map("2z", 5)
    with pytest.raises(InputError, match="common factor"):
        parse_map("(z^2 + z)/z", 5)
    with pytest.raises(InputError, match="constant"):
        parse_map("3 + 1", 5)
    with pytest.raises(InputError):
        parse_map("z + w", 5)
    with pytest.raises(InputError):
        parse_map("z^z", 5)
    with pytest.raises(InputError):
        parse_map("(z + 1", 5)
    with pytest.raises(InputError):
        parse_map("1/(z - z)", 5)
    # negative exponents are sugar for the reciprocal power, not an error
    m = parse_map("z^-2", 5)
    assert (m.F, m.G) == ((1, 0, 0), (0, 0, 1))


def test_parse_prime_substitution_happens_before_arithmetic():
    assert parse_map("z + p^2", 3).F == (9, 1)
    assert parse_map("z + p", 11).F == (11, 1)


def test_projective_point_canonicalization():
    assert (ProjPointQ(2, 4).a, ProjPointQ(2, 4).b) == (1, 2)
    assert (ProjPointQ(-3, -6).a, ProjPointQ(-3, -6).b) == (1, 2)
    assert (ProjPointQ(5, 0).a, ProjPointQ(5, 0).b) == (1, 0)
    assert (ProjPointQ(0, -7).a, ProjPointQ(0, -7).b) == (0, 1)
    assert ProjPointQ(Fraction(1, 2), 3) == ProjPointQ(1, 6)
    assert str(ProjPointQ.from_value("inf")) == "inf"
    assert ProjPointQ.from_value("-2/6") == ProjPointQ(-1, 3)


def test_projective_point_reduction():
    assert ProjPointQ(7, 3).reduce(5) == 4  # 7 * 3^{-1} = 2 * 2 = 4
    assert ProjPointQ(1, 5).reduce(5) is None
    assert ProjPointQ.from_value("inf").reduce(5) is None
    assert ProjPointQ(5, 1).reduce(5) == 0
    assert ProjPointQ(7, 3).is_integral(3) is False
    assert ProjPointQ(7, 3).is_integral(5) is True


def test_eval_map_matches_affine_formula():
    m = parse_map("(z^2 + 1)/(2*z - 3)", 5)
    rng = random.Random(5)
    for _ in range(25):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if 2 * x - 3 == 0:
            continue
        got = eval_map(m, ProjPointQ(x.numerator, x.denominator))
        assert got == ProjPointQ((x * x + 1).numerator * (2 * x - 3).denominator,
                                 (x * x + 1).denominator * (2 * x - 3).numerator)
    assert eval_map(m, ProjPointQ.from_value("inf")) == ProjPointQ.from_value("inf")
    assert eval_map(m, ProjPointQ.from_value("3/2")) == ProjPointQ.from_value("inf")


def test_iterate_matches_repeated_eval():
    rng = random.Random(7)
    for m in random_models(5, 12, seed=77):
        it2 = iterate_map(m, 2)
        for _ in range(6):
            x = ProjPointQ(rng.randint(-5, 5), rng.randint(1, 5))
            assert eval_map(it2, x) == eval_map(m, eval_map(m, x))


def test_iterate_degree_cap():
    m = parse_map("z^2 + 1", 5)
    with pytest.raises(ResourceLimitError):
        iterate_map(m, 4, cap_degree=8)


def test_mobius_algebra():
    M = Mobius(1, 2, 3, 4)
    N = Mobius(0, 1, 1, 0)
    for x in (ProjPointQ(2, 1), ProjPointQ(-1, 3), ProjPointQ(1, 0)):
        assert M.inverse().apply(M.apply(x)) == x
    assert N.apply(ProjPointQ(0, 1)) == ProjPointQ.from_value("inf")
    assert Mobius(Fraction(1, 5), 2, 0, 1).apply(ProjPointQ(5, 1)) == ProjPointQ(3, 1)
    with pytest.raises(InputError):
        Mobius(1, 2, 2, 4)


def test_conjugation_round_trip_and_composition():
    rng = random.Random(11)
    for m in random_models(5, 10, seed=101):
        M = Mobius(1, 2, 1, 3)
        back = conjugate_map(conjugate_map(m, M), M.inverse())
        assert back == m
        # phi^M(M(x)) = M(phi(x))
        for _ in range(4):
            x = ProjPointQ(rng.randint(-4, 4), rng.randint(1, 4))
            assert eval_map(conjugate_map(m, M), M.apply(x)) == M.apply(eval_map(m, x))


def test_conjugation_by_inversion_worked_example():
    m = parse_map("z^2 + p", 7)
    psi = conjugate_map(m, Mobius.inversion())
    assert psi == parse_map("z^2/(1 + p*z^2)", 7)


def test_normalize_integral_is_p_primitive():
    for p in (3, 5):
        for m in random_models(p, 20, seed=13):
            prim = normalize_integral(m, p)
            assert min(vp(p, c) for c in prim.F + prim.G) == 0
            assert (prim.F, prim.G) == (m.F, m.G)  # content 1 is p-primitive


def test_resultant_degree_consistency():
    m = parse_map("z^2 + p", 5)
    prim = normalize_integral(m, 5)
    assert prim.resultant() == 1
    assert vp(5, normalize_integral(parse_map("p*z^2 + z", 5), 5).resultant()) == 2


def test_reduce_map_splits_common_factor():
    for p in (3, 5):
        field = prime_field_of(p)
        for m in random_models(p, 30, seed=17):
            rmap = reduce_map(normalize_integral(m, p))
            if form_is_zero(rmap.raw_F) or form_is_zero(rmap.raw_G):
                assert rmap.reduced_degree == 0
                continue
            # coprime parts really are coprime and rebuild the raw reduction
            common, f1, g1 = form_gcd_split(field, rmap.raw_F, rmap.raw_G)
            assert (common, f1, g1) == (rmap.common, rmap.F1, rmap.G1)
            assert rmap.reduced_degree == m.d - (len(rmap.common) - 1)
            again, _, _ = form_gcd_split(field, rmap.F1, rmap.G1)
            assert len(again) == 1


def test_reduced_map_evaluation_commutes_under_full_degree():
    # with no degree drop, reduction commutes with evaluation everywhere
    rng = random.Random(19)
    p = 5
    for m in random_models(p, 40, seed=23):
        rmap = reduce_map(normalize_integral(m, p))
        if rmap.reduced_degree < m.d:
            continue
        for _ in range(8):
            lift = ProjPointQ(rng.randint(-12, 12), rng.randint(1, 12))
            image = eval_reduced(rmap.field, rmap.F1, rmap.G1, lift.reduce(p))
            assert image == eval_map(m, lift).reduce(p)


def test_degenerate_reduction_shapes():
    # numerator divisible by p: raw reduced F vanishes identically
    m = RationalMapModel.from_coeffs([5, 10], [1, 0])
    rmap = reduce_map(normalize_integral(m, 5))
    assert form_is_zero(rmap.raw_F)
    assert rmap.reduced_degree == 0
    assert rmap.is_degenerate


def test_map_str_round_trip():
    for text in ("z^2+5", "(z^2+1)/(z-1)", "1/z", "z^3-2*z+1"):
        m = parse_map(text, 5)
        assert parse_map(m.map_str(), 5) == m
