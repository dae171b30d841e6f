"""Residual geometry: closed points, postcritical sets, the two good
reduction criteria, and the brute-force etale fiber oracle."""

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

import padicdyn.cli as cli
import padicdyn.reduction as reduction
from padicdyn.errors import InputError, ResourceLimitError
from padicdyn.finitefield import (
    FqField,
    FqPoly,
    form_is_zero,
    fq_extension,
    fq_factor,
    prime_field_of,
    split_roots,
)
from padicdyn.maps import parse_map, reduce_map
from padicdyn.padics import vp
from padicdyn.reduction import (
    ClosedPoint,
    MapAtPrime,
    closed_points_of_form,
    condition2_check,
    critical_divisor,
    good_locus,
    pencil_discriminant,
    postcritical_set,
    pushforward,
    strict_good_reduction,
)

from corpus_util import random_mobius_models, random_models
from oracles import (
    etale_fiber_oracle,
    fiber_sweep,
    form_eval,
    frontier_postcritical_set,
    frontier_pushforward,
    separable_oracle,
    universal_discriminant,
)


def _rmap(text, p):
    return reduce_map(parse_map(text, p), p)


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
        assert sum(m * q.degree for q, m in pts) == len(coeffs) - 1
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
    assert len(critical_divisor(r1)) == 1
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
    mp = MapAtPrime(parse_map(text, p), p)
    c2 = condition2_check(mp)
    assert not mp.sgr.inseparable_reduction
    assert not mp.pc.everything
    assert mp.pc.points == frozenset({ClosedPoint.infinity(p)})
    brute = _etale_residues_by_sympy(text, p, (1, 2))
    assert set(c2.locus) == brute == set(range(p))
    assert c2.holds
    assert c2.witnesses == c2.locus
    assert c2.violations == ()


def test_pushforward_examples():
    r = _rmap("z^2", 5)
    F5, F25 = r.field, fq_extension(5, 2)
    inf = ClosedPoint.infinity(5)
    assert pushforward(F5, r, None) == (None, inf)
    assert pushforward(F5, r, 2) == (4, ClosedPoint.of_residue(5, 4))
    # T^2 + 2 has roots with square 3, so the orbit lands on a rational point
    root = split_roots(F25, (2, 0, 1))[0]
    assert pushforward(F25, r, root) == (3, ClosedPoint.of_residue(5, 3))
    # cube roots of unity square to each other: the closed point is fixed,
    # and the image is the Frobenius conjugate (zeta^5 = zeta^2)
    mu3 = ClosedPoint(5, (1, 1, 1))
    root = split_roots(F25, mu3.poly)[0]
    assert pushforward(F25, r, root) == (F25.frobenius(root), mu3)


def test_pushforward_never_raises_degree():
    rng = random.Random(3)
    for m in random_models(5, 12, seed=41):
        r = reduce_map(m, 5)
        if r.reduced_degree < 1:
            continue
        for _ in range(4):
            src = ClosedPoint(5, _rand_monic_irreducible(rng, 5))
            ext = fq_extension(5, src.degree)
            _, img = pushforward(ext, r, split_roots(ext, src.poly)[0])
            assert img.degree <= src.degree
            assert img == frontier_pushforward(src, r)


def test_postcritical_walk_matches_frontier_oracle():
    # maps of degree 2 to 7, so p | d at p = 2, 3 and 5, and the maps of
    # degree 5 to 7 bring critical points of degree 5 and 6; maps whose
    # critical points need a field of more than 5,000 elements are skipped
    # to keep the oracle's per-point fields small
    batches = [(p, 40, (2, 3, 4, 6), 100 + p) for p in (2, 3, 5, 7, 13)]
    batches += [(3, 20, (5, 6, 7), 203), (5, 12, (5, 6), 205)]
    degrees, p_divides_d = set(), 0
    for p, count, map_degrees, seed in batches:
        for model in random_models(p, count, degrees=map_degrees, seed=seed):
            mp = MapAtPrime(model, p)
            if mp.rmap.reduced_degree < 1:
                continue
            crit = () if form_is_zero(mp.critical) else closed_points_of_form(mp.rmap.field, mp.critical)
            if any(p**q.degree > 5000 for q, _ in crit):
                continue
            got, want = postcritical_set(mp), frontier_postcritical_set(mp)
            assert (got.points, got.everything, got.stable_depth, got.crit) == (
                want.points,
                want.everything,
                want.stable_depth,
                want.crit,
            )
            # every extension field above the cap: these walks close within
            # their step allowance, so the set is the same
            assert postcritical_set(MapAtPrime(model, p, cap_field=p)) == got
            degrees.update(q.degree for q, _ in crit)
            p_divides_d += mp.d % p == 0 and not got.everything
    assert {1, 2, 3, 4, 5, 6} <= degrees
    assert p_divides_d >= 10


def test_short_walk_above_the_field_cap_is_answered():
    # T^2+1 at p = 1031 needs 1031^2 elements, above the default cap, but
    # z^3+3z maps a*i to (3a - a^3)*i and the walk closes at once
    mp = _mp("z^3+3*z", 1031)
    assert mp.p**2 > mp.cap_field
    pc = postcritical_set(mp)
    assert pc == frontier_postcritical_set(mp)
    assert {q.render() for q in pc.crit} == {"T^2+1", "inf"}


def test_walk_above_the_field_cap_gets_a_step_allowance(monkeypatch):
    # at p = 7 the walk from T^2+1 under z^3+3z reaches T^2+4 and closes at
    # its second step, so it needs an allowance of 2 steps at k = 2
    want = postcritical_set(_mp("z^3+3*z", 7))
    above = MapAtPrime(parse_map("z^3+3*z", 7), 7, cap_field=7)
    monkeypatch.setattr(reduction, "PC_WORK_ABOVE_CAP", 2 * 2**2)
    assert postcritical_set(above) == want
    monkeypatch.setattr(reduction, "PC_WORK_ABOVE_CAP", 2 * 2**2 - 1)
    with pytest.raises(ResourceLimitError) as exc:
        postcritical_set(above)
    assert str(exc.value) == (
        "postcritical set: the walk from critical point T^2+1 of degree 2 did not "
        "close within 1 steps, and its field size 7^2 exceeds cap 7"
    )
    assert above.pc_refusal == str(exc.value)
    assert _mp("z^3+3*z", 7).pc_refusal is None


def test_walk_allowed_no_step_is_refused_before_its_field(monkeypatch):
    # z^74+z+1 at p = 5 has the critical point (T^73 - 1)/(T - 1) of degree 72,
    # and 4096 // 72^2 = 0: the walk is refused before F_5[T]/(c) is built
    built = []
    monkeypatch.setattr(reduction, "residue_field", lambda p, c: built.append(c))
    mp = _mp("z^74+z+1", 5)
    with pytest.raises(ResourceLimitError) as exc:
        postcritical_set(mp)
    c = "+".join(f"T^{i}" for i in range(72, 1, -1)) + "+T+1"
    assert str(exc.value) == (
        f"postcritical set: the walk from critical point {c} of degree 72 is allowed "
        "4096 // 72^2 = 0 steps, as its field size 5^72 exceeds cap 1048576"
    )
    assert built == [] and mp.pc_refusal == str(exc.value)


def test_critical_divisor_past_the_work_cap_is_refused_before_factoring(monkeypatch):
    # 3z^2+1, the critical divisor of z^3+z+1 over F_7, takes 2^3 * 3 steps to factor
    want = postcritical_set(_mp("z^3+z+1", 7))
    monkeypatch.setattr(reduction, "PC_FACTOR_WORK_CAP", 2**3 * 3)
    assert postcritical_set(_mp("z^3+z+1", 7)) == want
    monkeypatch.setattr(reduction, "PC_FACTOR_WORK_CAP", 2**3 * 3 - 1)
    factored = []
    monkeypatch.setattr(reduction, "closed_points_of_form", lambda *args: factored.append(args))
    mp = _mp("z^3+z+1", 7)
    with pytest.raises(ResourceLimitError) as exc:
        postcritical_set(mp)
    assert str(exc.value) == (
        "postcritical set: factoring the critical divisor of degree 2 over F_7 "
        "takes 2^3 * 3 (bits of p) steps, above cap 23"
    )
    assert factored == [] and mp.pc_refusal == str(exc.value)


def _rand_monic_irreducible(rng, p):
    field = prime_field_of(p)
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


def test_postcritical_set_cap(monkeypatch):
    monkeypatch.setattr(reduction, "PC_CAP", 1)
    with pytest.raises(ResourceLimitError, match="exceeded cap 1"):
        postcritical_set(_mp("z^2 - 1", 5))


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
    mp = MapAtPrime(parse_map("z/(z^2 + 1)", 7), 7)
    c2 = condition2_check(mp)
    assert c2.holds
    assert mp.sgr.is_strict_good_reduction
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
    mp0 = MapAtPrime(parse_map("p^2*z^2", 5), 5)
    c0 = condition2_check(mp0)
    assert not c0.holds
    assert c0.locus == () and mp0.pc is None


def test_condition2_agrees_with_resultant_criterion_on_corpus():
    # the internal alarm cross-checks every call; sweep a mixed corpus
    for p in (3, 5):
        for m in random_models(p, 40, seed=p):
            mp = MapAtPrime(m, p)
            c2 = condition2_check(mp)
            assert c2.holds == (mp.sgr.is_strict_good_reduction and c2.separable)


def test_condition2_matches_the_per_point_sweep():
    # one gcd over F_p per locus point against one pencil discriminant
    seen = Counter()
    cases = [(2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2, 3, 4)), (7, (2, 3)), (13, (2, 3)), (47, (2,))]
    for p, degrees in cases:
        for m in random_models(p, 30, degrees=degrees, seed=900 + p):
            mp = MapAtPrime(m, p)
            c2 = condition2_check(mp)
            F1, G1 = mp.rmap.F1, mp.rmap.G1
            swept = fiber_sweep(mp.rmap, mp.d, c2.locus)
            assert (c2.witnesses, c2.violations) == swept, (m.map_str(), p)
            seen["p | d"] += mp.d % p == 0 and bool(c2.locus)
            seen["not full"] += bool(c2.violations)
            seen["infinity"] += None in c2.locus
            seen["affine degree lost"] += c2.reduced_degree_full and any(
                (F1[-1] - x * G1[-1]) % p == 0 for x in c2.locus if x is not None
            )
    assert min(seen.values()) >= 5, seen


def _sympy_squarefree(form, p):
    """Squarefree over GF(p) with infinity of multiplicity d - deg counted."""
    affine = [c % p for c in form]
    while affine and affine[-1] == 0:
        affine.pop()
    if not affine or len(form) - len(affine) > 1:
        return False
    # sqf_list, not is_sqf: sympy calls x^2 over GF(2) squarefree
    _, parts = sympy.Poly(list(reversed(affine)), sympy.Symbol("x"), modulus=p).sqf_list()
    return all(mult == 1 for _, mult in parts)


@pytest.mark.parametrize("d", range(1, 7))
def test_pencil_discriminant_decides_squarefree_fibers(d):
    rng = random.Random(70 + d)
    universal = universal_discriminant(d)
    for _ in range(12):
        F = [rng.randint(-9, 9) for _ in range(d + 1)]
        G = [rng.randint(-9, 9) for _ in range(d + 1)]
        for form in rng.sample([F, G], rng.randint(0, 2)):
            k = rng.randint(1, 2)
            form[-k:] = [0] * k  # roots at infinity, simple or double
        D = pencil_discriminant(F, G)
        assert len(D) <= 2 * d - 1
        # 2d - 1 points off the interpolation nodes 0..2d-2 pin a degree-(2d-2) polynomial
        for t in range(-1, -2 * d, -1):
            want = universal(*(f - t * g for f, g in zip(F, G)))
            assert sum(c * t**i for i, c in enumerate(D)) == want, (F, G, t)
        for p in (2, 3, 5, 7, 11):
            for a in range(p):
                form = [f - a * g for f, g in zip(F, G)]
                if d == 1 and all(c % p == 0 for c in form):
                    continue  # Disc_1 = 1 cannot see the zero form; a coprime pair never gives it
                value = sum(c * a**i for i, c in enumerate(D)) % p
                assert (value != 0) == _sympy_squarefree(form, p), (F, G, p, a)


def test_separable_oracle_matches_the_critical_divisor():
    for p in (2, 3, 5):
        maps = random_models(p, 40, degrees=(2, 3), seed=950 + p)
        maps += [parse_map(f"z^{p}+z^{2 * p}", p), parse_map(f"(z^{p}+1)/(z^{p}+2*z^{2 * p})", p)]
        for m in maps:
            rmap = MapAtPrime(m, p).rmap
            if rmap.reduced_degree >= 1:
                separable = not form_is_zero(critical_divisor(rmap))
                assert separable_oracle(rmap) == separable, m.map_str()


def test_etale_fiber_oracle_spot_checks():
    r3 = _rmap("z^2 + 1", 3)
    assert all(etale_fiber_oracle(r3, 0, n) for n in (1, 2, 3, 4))
    assert not etale_fiber_oracle(r3, 1, 1)  # 1 is postcritical
    assert not etale_fiber_oracle(_rmap("z^3", 3), 0, 1)  # inseparable
    assert not etale_fiber_oracle(_rmap("p^2*z^2", 5), 0, 1)  # constant
    with pytest.raises(InputError):
        etale_fiber_oracle(r3, 0, 0)


def _det(model):
    """The 2x2 Sylvester determinant of a degree-1 model [F : G], by hand."""
    (f0, f1), (g0, g1) = model.F, model.G
    return f1 * g0 - f0 * g1


def _analyze_json(text, p):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", text, "-p", str(p), "--format", "json"]) == 0
    return json.loads(out.getvalue())["sgr"]


def test_degree_one_examples():
    for text, det, good in (("z + 1", 1, True), ("p*z", 5, False), ("1/z", -1, True)):
        mp = MapAtPrime(parse_map(text, 5), 5)
        assert _det(mp.model) == mp.sgr.resultant == det
        assert (mp.sgr.res_valuation, mp.sgr.is_strict_good_reduction) == (vp(5, det), good)
        sgr = _analyze_json(text, 5)
        assert (sgr["det"], sgr["det_valuation"]) == (str(det), vp(5, det))
    assert "det" not in _analyze_json("z^2", 5)


def test_degree_one_resultant_is_the_determinant():
    for p in (2, 3, 5, 7):
        for m in random_mobius_models(p, 25, seed=p):
            mp = MapAtPrime(m, p)
            assert mp.sgr.resultant == _det(m)
            assert mp.sgr.is_strict_good_reduction == (_det(m) % p != 0)
            sgr = _analyze_json(m.map_str(), p)
            assert sgr["det"] == sgr["resultant"] == str(_det(m))
            assert sgr["det_valuation"] == sgr["res_valuation"] == vp(p, _det(m))


def test_postcritical_walk_builds_no_polynomial_per_step(monkeypatch):
    # both critical points of (z^2+1)/(z-1), 1 +- sqrt(2), are rational at
    # p = 1009, so every step stays in F_p: it evaluates the reduced map on
    # coefficient tuples and multiplies out no minimal polynomial
    products, per_step = [], []
    mul = reduction._mul

    def counting_mul(*args):
        products.append(None)
        return mul(*args)

    def counting_step(*args):
        before = len(products)
        out = pushforward(*args)
        per_step.append(len(products) - before)
        return out

    monkeypatch.setattr(reduction, "_mul", counting_mul)
    monkeypatch.setattr(reduction, "pushforward", counting_step)
    mp = MapAtPrime(parse_map("(z^2+1)/(z-1)", 1009), 1009)
    condition2_check(mp)
    assert len(mp.pc.points) == 57 and len(per_step) > 57
    # the critical divisor's two products show that the count is live
    assert sum(per_step) == 0 and len(products) == 2
