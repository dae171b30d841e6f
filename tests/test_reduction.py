"""Residual geometry: closed points, postcritical sets, the two good
reduction criteria, and the brute-force etale fiber oracle."""

import random
from fractions import Fraction

import pytest
import sympy

from padicdyn.errors import InputError, ResourceLimitError
from padicdyn.finitefield import FqField, form_degree, form_eval, form_is_zero
from padicdyn.maps import normalize_integral, parse_map, reduce_map
from padicdyn.padics import vp
from padicdyn.reduction import (
    ClosedPoint,
    MapAtPrime,
    analyze_map,
    closed_points_of_form,
    condition2_check,
    critical_divisor,
    degree_one_check,
    good_locus,
    postcritical_set,
    pushforward,
    strict_good_reduction,
)

from corpus_util import random_mobius_models, random_models
from oracles import etale_fiber_oracle


def _rmap(text, p):
    return reduce_map(normalize_integral(parse_map(text, p), p))


def _mp(text, p):
    return MapAtPrime(parse_map(text, p), p)


def test_closed_point_basics():
    p = 5
    assert ClosedPoint.of_residue(p, 4).render() == "T+1"
    assert ClosedPoint.of_residue(p, None) == ClosedPoint.infinity(p)
    assert ClosedPoint.infinity(p).degree == 1
    assert ClosedPoint(p, (2, 0, 1)).degree == 2
    with pytest.raises(InputError):
        ClosedPoint(p, (1, 0, 2))  # not monic


def test_closed_points_of_form_examples():
    F5 = FqField(5, 1, (0, 1))
    assert [(q.render(), m) for q, m in closed_points_of_form(F5, (0, 0, 1))] == [("T", 2)]
    # (X - Y)^2 picks up the residue 1 twice
    assert [(q.render(), m) for q, m in closed_points_of_form(F5, (1, 3, 1))] == [("T+4", 2)]
    assert closed_points_of_form(F5, (2,)) == []
    assert [(q.render(), m) for q, m in closed_points_of_form(F5, (0, 4, 0))] == [
        ("T", 1),
        ("inf", 1),
    ]
    with pytest.raises(InputError):
        closed_points_of_form(F5, (0, 0, 0))


def test_closed_points_of_form_matches_brute_evaluation():
    # rational zeros and total degree agree with direct evaluation
    p = 5
    field = FqField(p, 1, (0, 1))
    rng = random.Random(31)
    for _ in range(40):
        coeffs = tuple(rng.randrange(p) for _ in range(rng.randint(2, 6)))
        if form_is_zero(coeffs):
            continue
        pts = closed_points_of_form(field, coeffs)
        assert sum(m * q.degree for q, m in pts) == form_degree(coeffs)
        rational = {q for q, _ in pts if q.degree == 1}
        brute = {
            ClosedPoint.of_residue(p, c)
            for c in range(p)
            if form_eval(field, coeffs, c, 1) == 0
        }
        if form_eval(field, coeffs, 1, 0) == 0:
            brute.add(ClosedPoint.infinity(p))
        assert rational == brute


def test_critical_divisor_examples():
    # z^2: branch points 0 and infinity, derivative numerator 2XY
    assert critical_divisor(_rmap("z^2", 5)) == (0, 2, 0)
    assert critical_divisor(_rmap("z^2 - 1", 5)) == (0, 2, 0)
    # inseparable reduction: the derivative numerator collapses
    assert form_is_zero(critical_divisor(_rmap("z^3", 3)))
    # degree 1 maps have no critical points, the form is a unit constant
    r1 = _rmap("z + 1", 5)
    assert form_degree(critical_divisor(r1)) == 0
    assert not form_is_zero(critical_divisor(r1))
    with pytest.raises(InputError):
        critical_divisor(_rmap("p^2*z^2", 5))  # constant reduction


def _etale_residues_by_sympy(text, p, levels):
    """Residues c of F_p over which the level-n fibers of a polynomial map
    are squarefree of full degree for every n in levels, by sympy over GF(p).

    The fiber over infinity of a polynomial map of degree >= 2 is the
    point at infinity with full multiplicity, so it never qualifies.
    """
    z = sympy.symbols("z")
    f = sympy.Poly(sympy.sympify(text.replace("^", "**")), z, modulus=p)
    out = set()
    for c in range(p):
        ok = True
        it = f
        for n in range(1, max(levels) + 1):
            if n > 1:
                it = it.compose(f)
            if n in levels:
                h = it - c
                ok = ok and h.degree() == f.degree() ** n and h.gcd(h.diff(z)).degree() == 0
        if ok:
            out.add(c)
    return out


@pytest.mark.parametrize("text,p", [("z^3+z", 3), ("z^2+z+1", 2)])
def test_separable_reduction_when_p_divides_the_degree(text, p):
    # f' = 1 in both cases: separable, with the only critical point at
    # infinity, even though the Wronskian F_X G_Y - F_Y G_X vanishes
    rep = analyze_map(MapAtPrime(parse_map(text, p), p))
    assert not rep.sgr.inseparable_reduction
    assert not rep.pc.everything
    assert rep.pc.points == frozenset({ClosedPoint.infinity(p)})
    brute = _etale_residues_by_sympy(text, p, (1, 2))
    assert set(rep.locus) == brute == set(range(p))
    assert rep.condition2.holds
    assert rep.condition2.witnesses == rep.locus
    assert rep.condition2.violations == ()


def test_pushforward_examples():
    r = _rmap("z^2", 5)
    inf = ClosedPoint.infinity(5)
    assert pushforward(inf, r) == frozenset({inf})
    assert pushforward(ClosedPoint.of_residue(5, 2), r) == frozenset(
        {ClosedPoint.of_residue(5, 4)}
    )
    # T^2 + 2 has roots with square 3, so the orbit lands on a rational point
    assert pushforward(ClosedPoint(5, (2, 0, 1)), r) == frozenset(
        {ClosedPoint.of_residue(5, 3)}
    )
    # cube roots of unity square to each other: the closed point is fixed
    mu3 = ClosedPoint(5, (1, 1, 1))
    assert pushforward(mu3, r) == frozenset({mu3})


def test_pushforward_never_raises_degree():
    rng = random.Random(3)
    for m in random_models(5, 12, seed=41):
        r = reduce_map(normalize_integral(m, 5))
        if r.reduced_degree < 1:
            continue
        for _ in range(4):
            poly = _rand_monic_irreducible(rng, 5)
            src = ClosedPoint(5, poly)
            (img,) = pushforward(src, r)
            assert img.degree <= src.degree


def _rand_monic_irreducible(rng, p):
    from padicdyn.finitefield import FqPoly, fq_factor

    field = FqField(p, 1, (0, 1))
    while True:
        coeffs = tuple(rng.randrange(p) for _ in range(rng.choice((1, 2)))) + (1,)
        if len(coeffs) == 1:
            continue
        poly = FqPoly(field, coeffs)
        facs = fq_factor(poly)
        if len(facs) == 1 and facs[0][1] == 1:
            return coeffs


def test_postcritical_set_examples():
    pc = postcritical_set(_mp("z^2 - 1", 5))
    assert pc.points == frozenset(
        {
            ClosedPoint.of_residue(5, 0),
            ClosedPoint.of_residue(5, 4),
            ClosedPoint.infinity(5),
        }
    )
    assert pc.stable_depth == 2
    assert pc.crit == frozenset({ClosedPoint.of_residue(5, 0), ClosedPoint.infinity(5)})
    assert not pc.everything
    assert pc.contains_residue(4) and pc.contains_residue(None)
    assert not pc.contains_residue(1)

    pc2 = postcritical_set(_mp("z^2", 5))
    assert pc2.points == frozenset({ClosedPoint.of_residue(5, 0), ClosedPoint.infinity(5)})
    assert pc2.stable_depth == 1

    # 0 -> 1 -> 2 -> 2 at p = 3, so only the residue 0 stays off the set
    r3 = _mp("z^2 + 1", 3)
    pc3 = postcritical_set(r3)
    assert {q.render() for q in pc3.points} == {"T+1", "T+2", "inf"}
    assert pc3.stable_depth == 2
    assert good_locus(r3.rmap, pc3) == (0,)


def test_postcritical_set_inseparable_is_everything():
    r = _mp("z^3", 3)
    pc = postcritical_set(r)
    assert pc.everything
    assert pc.points == frozenset()
    assert pc.stable_depth == 0
    assert pc.contains_residue(0) and pc.contains_residue(None)
    assert good_locus(r.rmap, pc) == ()


def test_postcritical_set_cap():
    with pytest.raises(ResourceLimitError):
        postcritical_set(_mp("z^2 - 1", 5), cap=1)


def test_strict_good_reduction_examples():
    s = strict_good_reduction(MapAtPrime(parse_map("z^2 + p", 5), 5))
    assert s.is_strict_good_reduction
    assert s.resultant == 1
    assert s.res_valuation == 0
    assert s.reduced_degree == 2
    assert not s.inseparable_reduction

    s2 = strict_good_reduction(MapAtPrime(parse_map("p*z^2 + z", 5), 5))
    assert not s2.is_strict_good_reduction
    assert s2.res_valuation == 2
    assert s2.reduced_degree == 1

    s3 = strict_good_reduction(MapAtPrime(parse_map("p^2*z^2", 5), 5))
    assert (s3.res_valuation, s3.reduced_degree) == (4, 0)

    # good reduction can still be inseparable
    s4 = strict_good_reduction(MapAtPrime(parse_map("z^3", 3), 3))
    assert s4.is_strict_good_reduction
    assert s4.inseparable_reduction


def test_sgr_invariant_under_scaling():
    # the valuation only depends on the map, not the chosen pair
    p = 5
    for m in random_models(p, 15, seed=11):
        scaled = type(m)(
            tuple(c * Fraction(50, 3) for c in m.F),
            tuple(c * Fraction(50, 3) for c in m.G),
        )
        assert (
            strict_good_reduction(MapAtPrime(scaled, p)).res_valuation
            == strict_good_reduction(MapAtPrime(m, p)).res_valuation
        )


def test_condition2_counts_the_fiber_point_at_infinity():
    # fiber over 0 is cut out by XY, one of whose zeros is infinity;
    # forgetting it would undercount the fiber and flag a false violation
    c2 = condition2_check(MapAtPrime(parse_map("z/(z^2 + 1)", 7), 7))
    assert c2.holds
    assert c2.sgr.is_strict_good_reduction
    assert c2.locus == (0, 2, 5, None)
    assert c2.witnesses == (0, 2, 5, None)
    assert c2.violations == ()
    assert 0 in c2.witnesses


def test_condition2_degenerate_and_degree_drop():
    c2 = condition2_check(MapAtPrime(parse_map("p*z^2 + z", 5), 5))
    assert not c2.holds
    assert not c2.reduced_degree_full
    assert set(c2.violations) == set(c2.locus)
    assert c2.witnesses == ()

    # constant reduction: empty locus, nothing to certify
    c0 = condition2_check(MapAtPrime(parse_map("p^2*z^2", 5), 5))
    assert not c0.holds
    assert c0.locus == () and c0.pc is None


def test_condition2_agrees_with_resultant_criterion_on_corpus():
    # the internal alarm cross-checks every call; sweep a mixed corpus
    for p in (3, 5):
        for m in random_models(p, 40, seed=p):
            c2 = condition2_check(MapAtPrime(m, p))
            assert c2.holds == (c2.sgr.is_strict_good_reduction and c2.separable)


def test_etale_fiber_oracle_spot_checks():
    r3 = _rmap("z^2 + 1", 3)
    assert all(etale_fiber_oracle(r3, 0, n) for n in (1, 2, 3, 4))
    assert not etale_fiber_oracle(r3, 1, 1)  # 1 is postcritical
    assert not etale_fiber_oracle(_rmap("z^3", 3), 0, 1)  # inseparable
    assert not etale_fiber_oracle(_rmap("p^2*z^2", 5), 0, 1)  # constant
    with pytest.raises(InputError):
        etale_fiber_oracle(r3, 0, 0)


def test_degree_one_check_examples():
    d1 = degree_one_check(MapAtPrime(parse_map("z + 1", 5), 5))
    assert d1.is_strict_good_reduction and d1.det == 1 and d1.towers_trivial
    assert "K(X_n(x)) = K" in d1.note

    d2 = degree_one_check(MapAtPrime(parse_map("p*z", 5), 5))
    assert not d2.is_strict_good_reduction
    assert (d2.det, d2.det_valuation) == (5, 1)

    d3 = degree_one_check(MapAtPrime(parse_map("1/z", 5), 5))
    assert d3.is_strict_good_reduction and d3.det == -1

    with pytest.raises(InputError):
        degree_one_check(MapAtPrime(parse_map("z^2", 5), 5))


def test_degree_one_check_agrees_with_resultant():
    for p in (3, 7):
        for m in random_mobius_models(p, 25, seed=p):
            agree = degree_one_check(MapAtPrime(m, p)).is_strict_good_reduction
            assert agree == strict_good_reduction(MapAtPrime(m, p)).is_strict_good_reduction
            # for Mobius maps the resultant is the determinant up to sign
            prim = normalize_integral(m, p)
            assert vp(p, prim.resultant()) == degree_one_check(MapAtPrime(m, p)).det_valuation


def test_analyze_report_coherence():
    rep = analyze_map(MapAtPrime(parse_map("z^2 - 1", 7), 7))
    assert rep.p == 7
    assert rep.sgr is rep.condition2.sgr
    assert rep.pc is rep.condition2.pc
    assert rep.locus == rep.condition2.locus
    assert rep.rmap.reduced_degree == rep.sgr.reduced_degree
