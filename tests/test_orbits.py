"""Forward orbits, orbit-wide tower reports, and the conjugate search for
a model with unit resultant."""

import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy

import padicdyn.orbits as orbits
from padicdyn.errors import ResourceLimitError
from padicdyn.maps import (
    Mobius,
    ProjPointQ,
    RationalMapModel,
    conjugate_forms,
    conjugate_map,
    eval_map,
    parse_map,
)
from padicdyn.orbits import MODULI_EXPONENTS, forward_orbit, moduli_search, orbital_report
from padicdyn.padics import vp
from padicdyn.reduction import MapAtPrime, strict_good_reduction
from padicdyn.towers import NO_CERTIFICATE, UNRAMIFIED

from corpus_util import random_models
from oracles import (
    etale_fiber_oracle,
    frontier_postcritical_set,
    mobius_apply,
    mobius_inverse,
    mobius_is_p_unit,
    moduli_walk,
)


def _pt(text):
    return ProjPointQ.from_value(text)


def test_forward_orbit_cycle_detection():
    prof = forward_orbit(MapAtPrime(parse_map("z^2 - 1", 5), 5), _pt("0"), 6)
    assert [str(q) for q in prof.points] == ["0", "-1", "0", "-1", "0", "-1", "0"]
    assert (prof.preperiod, prof.period) == (0, 2)
    assert prof.reductions == (0, 4, 0, 4, 0, 4, 0)
    assert all(prof.integral_flags)
    assert all(prof.in_pc_flags)

    # strictly preperiodic: 1 falls onto the 2-cycle after one step
    prof2 = forward_orbit(MapAtPrime(parse_map("z^2 - 1", 5), 5), _pt("1"), 4)
    assert (prof2.preperiod, prof2.period) == (1, 2)

    # generic rational orbits never close up
    prof3 = forward_orbit(MapAtPrime(parse_map("z^2 + p", 5), 5), _pt("1"), 3)
    assert (prof3.preperiod, prof3.period) == (None, None)


def test_forward_orbit_nonintegral():
    # 1/p stays non-integral and reduces to infinity, which is postcritical
    prof = forward_orbit(MapAtPrime(parse_map("z^2 + p", 5), 5), _pt("1/5"), 2)
    assert prof.integral_flags == (False, False, False)
    assert prof.reductions == (None, None, None)
    assert prof.in_pc_flags == (True, True, True)


def test_forward_orbit_height_cap():
    with pytest.raises(ResourceLimitError, match="exceeded 16 bits"):
        forward_orbit(MapAtPrime(parse_map("z^2", 5), 5, cap_height=16), _pt("2"), 20)


def test_forward_orbit_length_cap(monkeypatch):
    # a cycling orbit bounds no coordinate, so only the cap bounds its length;
    # it is refused before the first step, and orbital_report goes through it
    mp = MapAtPrime(parse_map("z^2", 5), 5)
    with pytest.raises(ResourceLimitError, match="^orbit length 100001 exceeds cap 100000$"):
        forward_orbit(mp, _pt("0"), 100_001)
    monkeypatch.setattr(orbits, "ORBIT_CAP", 5)
    monkeypatch.setattr(orbits, "eval_map", None)  # no step may be taken
    with pytest.raises(ResourceLimitError, match="^orbit length 6 exceeds cap 5$"):
        orbital_report(mp, _pt("0"), 6, 1)
    monkeypatch.undo()
    monkeypatch.setattr(orbits, "ORBIT_CAP", 5)
    assert forward_orbit(mp, _pt("0"), 5).points == (_pt("0"),) * 6


def test_forward_orbit_tail_consistency():
    rng = random.Random(2)
    for m in random_models(5, 10, seed=53):
        x = ProjPointQ(rng.randint(-4, 4), 1)
        try:
            prof = forward_orbit(MapAtPrime(m, 5), x, 5)
        except ResourceLimitError:
            continue
        shifted = forward_orbit(MapAtPrime(m, 5), eval_map(m, x), 4)
        assert shifted.points == prof.points[1:]


def test_orbital_report_unramified_everywhere_on_orbit():
    rep = orbital_report(MapAtPrime(parse_map("z^2 + p", 5), 5), _pt("1"), 2, 2)
    assert rep.all_unramified_on_locus
    assert len(rep.levels) == 3
    for pt_levels in rep.levels:
        assert [fr.certificate for fr, _ in pt_levels] == [UNRAMIFIED, UNRAMIFIED]
        assert [c for _, c in pt_levels] == [(1, 1), (1, 1, 1, 1)]


def test_orbital_report_off_locus_is_not_a_failure():
    # x = p reduces to 0, inside the postcritical set: no certificate is
    # expected there and the overall flag must not trip
    rep = orbital_report(MapAtPrime(parse_map("z^2 + p", 5), 5), _pt("5"), 1, 1)
    assert rep.all_unramified_on_locus
    [(fr, cycle)] = rep.levels[0]
    assert fr.certificate == NO_CERTIFICATE
    assert cycle is None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_orbital_report_agrees_with_the_theorem(p):
    # Under strict good reduction the level-n certificate over x is
    # UNRAMIFIED exactly when v_p(lc) = 0 and the brute-force reduced fiber
    # of the n-th iterate over x-bar is etale, i.e. x-bar misses the first
    # n images of the critical points.  The condition at infinity is
    # v_p(lc) = 0, not "no reduced fiber point at infinity": a fiber
    # polynomial can lose its root at infinity over Q itself.  Integral and
    # non-integral basepoints alike; p = 2, 3 include p | d.  The PC flags
    # and the headline flag are read against the frontier PC walk.
    rng = random.Random(60 + p)
    seen = {UNRAMIFIED: 0, NO_CERTIFICATE: 0, "lc": 0, "flag": 0}
    for m in random_models(p, 24, seed=100 + p):
        mp = MapAtPrime(m, p)
        x = rng.choice(
            [ProjPointQ(rng.randint(-p, 2 * p), 1), ProjPointQ(rng.choice([-1, 1, 2]), p), _pt("inf")]
        )
        rep = orbital_report(mp, x, 2, 4 if mp.d == 2 else 3)  # d^n <= 27
        prof = rep.profile
        if mp.rmap.reduced_degree < 1:
            assert set(prof.in_pc_flags) == {None} and rep.all_unramified_on_locus is None
            continue
        pc = frontier_postcritical_set(mp)
        assert prof.in_pc_flags == tuple(pc.contains_residue(r) for r in prof.reductions)
        if not mp.sgr.is_strict_good_reduction:
            continue
        on_locus_lc_units = True
        for pt_levels, xbar, integral, in_pc in zip(
            rep.levels, prof.reductions, prof.integral_flags, prof.in_pc_flags
        ):
            for n, (fr, _) in enumerate(pt_levels, 1):
                etale = etale_fiber_oracle(mp.rmap, xbar, n)
                assert (fr.certificate == UNRAMIFIED) == (fr.lc_valuation == 0 and etale)
                seen[fr.certificate] += 1
                seen["lc"] += fr.lc_valuation > 0 and etale
                if integral and not in_pc and fr.lc_valuation > 0:
                    on_locus_lc_units = False
        # off PC a certificate can be missing only for want of a unit lc
        assert rep.all_unramified_on_locus == on_locus_lc_units
        seen["flag"] += on_locus_lc_units
    assert all(seen.values()), seen


def test_sgr_is_invariant_under_unit_conjugation():
    # any p-integral unit-determinant change of coordinates preserves SGR
    p = 5
    mats = [Mobius(1, 1, 0, 1), Mobius(2, 1, 1, 1), Mobius(0, 1, 1, 0), Mobius(3, 0, 0, 1)]
    rng = random.Random(9)
    for m in random_models(p, 14, seed=71, degrees=(2,)):
        M = rng.choice(mats)
        assert mobius_is_p_unit(M, p)
        assert (
            strict_good_reduction(MapAtPrime(m, p)).is_strict_good_reduction
            == strict_good_reduction(MapAtPrime(conjugate_map(m, M), p)).is_strict_good_reduction
        )


def test_orbit_report_is_invariant_under_affine_unit_conjugation():
    # the tower summary is phrased in the affine chart (integral points,
    # affine fiber polynomials), so it transports exactly along unit
    # affine substitutions, which fix the chart at infinity
    p = 5
    mats = [Mobius(1, 1, 0, 1), Mobius(3, 0, 0, 1), Mobius(2, 4, 0, 1)]
    rng = random.Random(9)
    checked = 0
    for m in random_models(p, 14, seed=71, degrees=(2,)):
        M = rng.choice(mats)
        assert mobius_is_p_unit(M, p)
        twisted = conjugate_map(m, M)
        x = ProjPointQ(rng.randint(-3, 3), 1)
        try:
            a = orbital_report(MapAtPrime(m, p), x, 2, 1)
            b = orbital_report(MapAtPrime(twisted, p), mobius_apply(M, x), 2, 1)
        except ResourceLimitError:
            continue
        assert a.all_unramified_on_locus == b.all_unramified_on_locus
        assert b.profile.points == tuple(mobius_apply(M, pt) for pt in a.profile.points)
        for la, lb in zip(a.levels, b.levels):
            assert [fr.certificate for fr, _ in la] == [fr.certificate for fr, _ in lb]
            assert [c for _, c in la] == [c for _, c in lb]
        checked += 1
    assert checked >= 8


def test_moduli_search_frozen_witnesses():
    mr = moduli_search(parse_map("p*z^2 + z", 5), 5)
    assert (mr.initial_valuation, mr.best_valuation, mr.achieved_zero) == (2, 0, True)
    assert mr.best_mobius.formula() == "5*z"
    assert mr.best_model.map_str() == "z^2+z"
    assert mr.tried == 21

    mr2 = moduli_search(parse_map("p^2*z^2", 5), 5)
    assert (mr2.best_valuation, mr2.achieved_zero) == (0, True)
    assert mr2.best_mobius.formula() == "25*z"
    assert mr2.best_model.map_str() == "z^2"
    assert mr2.tried == 26

    # already-good maps keep their identity model
    mr3 = moduli_search(parse_map("z^2 + p", 5), 5)
    assert (mr3.initial_valuation, mr3.best_valuation) == (0, 0)
    assert mr3.best_mobius.formula() == "z"
    assert mr3.best_model.map_str() == "z^2+5"


def test_moduli_search_refuses_a_grid_past_the_width_cap(monkeypatch):
    # the cap bounds the 7p affine conjugations, and binds before the first
    m = parse_map("z^2/p", 5)
    monkeypatch.setattr(orbits, "MODULI_WIDTH_CAP", 7 * 5)
    assert moduli_search(m, 5).achieved_zero
    monkeypatch.setattr(orbits, "MODULI_WIDTH_CAP", 7 * 5 - 1)
    conjugated = []
    monkeypatch.setattr(orbits, "conjugate_forms", lambda *args: conjugated.append(args))
    with pytest.raises(ResourceLimitError, match="^moduli search at p=5: 35 affine conjugations exceed cap 34$"):
        moduli_search(m, 5)
    assert conjugated == []


def test_moduli_search_cap_falls_with_the_degree(monkeypatch):
    # a conjugation at degree d costs about d^2 products, so 7p is capped at
    # MODULI_WIDTH_CAP * 4 // d^2; d <= 2 keeps the width cap itself.  A search
    # the cap lets through reaches its first conjugation; a refused one does not
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(orbits, "conjugate_forms", reached)
    for d, cap in ((1, 131072), (2, 131072), (3, 58254), (4, 32768), (32, 512)):
        last = sympy.prevprime(cap // 7 + 1)
        with pytest.raises(Reached):
            moduli_search(parse_map(f"z^{d}+1/p", last), last)
        beyond = sympy.nextprime(last)
        message = f"^moduli search at p={beyond}: {7 * beyond} affine conjugations exceed cap {cap}"
        with pytest.raises(ResourceLimitError, match=message + (f" at degree {d}$" if d > 2 else "$")):
            moduli_search(parse_map(f"z^{d}+1/p", beyond), beyond)


def test_moduli_search_cap_weighs_the_coefficient_height(monkeypatch):
    # a conjugation of h-bit coefficients counts 1 + h // 8192 times, so below
    # 8,192 bits the cap and its message are those of a small map
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(orbits, "conjugate_forms", reached)
    monkeypatch.setattr(orbits, "MODULI_WIDTH_CAP", 7 * 5 * 2)
    for c in (1, 2**8191 - 1, 2**8191, 2**16383 - 1):
        with pytest.raises(Reached):
            moduli_search(RationalMapModel((1, 0, c), (5, 0, 0)), 5)
    message = (
        "^moduli search at p=5: 35 affine conjugations of 16384-bit coefficients,"
        " each counted 3 times, exceed cap 70$"
    )
    with pytest.raises(ResourceLimitError, match=message):
        moduli_search(RationalMapModel((1, 0, 2**16383), (5, 0, 0)), 5)
    monkeypatch.setattr(orbits, "MODULI_WIDTH_CAP", 7 * 5 - 1)
    with pytest.raises(ResourceLimitError, match="^moduli search at p=5: 35 affine conjugations exceed cap 34$"):
        moduli_search(RationalMapModel((1, 0, 2**8191 - 1), (5, 0, 0)), 5)


def test_moduli_search_walks_its_grid_in_constant_memory():
    # the candidates are made as they are rated, not listed first:
    # z^2 + 1 at p = 1009 rates 3p + 1 of them before the identity
    m = parse_map("z^2+1", 1009)
    moduli_search(m, 1009)  # the zero witness's re-verification fills caches
    tracemalloc.start()
    try:
        assert moduli_search(m, 1009).tried == 3 * 1009 + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_moduli_search_never_worsens_and_is_sound():
    for p in (3, 5):
        for m in random_models(p, 12, seed=p + 19, degrees=(2,)):
            mr = moduli_search(m, p)
            assert mr.best_valuation <= mr.initial_valuation
            assert mr.achieved_zero == (mr.best_valuation == 0)
            if mr.achieved_zero:
                assert strict_good_reduction(MapAtPrime(mr.best_model, p)).is_strict_good_reduction


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_moduli_search_matches_a_sympy_walk_of_the_grid(p):
    # random degree-2 and -3 models (p | d at 2 and 3, poles included),
    # plus good maps moved off the identity by one candidate each (one
    # with a < 0 and one of each inversion composite) and by (z - 1)/p,
    # which the grid does not reach; z^2 + 1/p finds no zero at any p,
    # so the walk rates all 21p candidates, at p = 2 with p | d
    models = random_models(p, 4, degrees=(2, 3), seed=7 * p) + [parse_map("z^2+1/p", p)]
    movers = [
        Mobius(Fraction(1, p), 1, 0, 1),
        Mobius(1, p, 1, 0),
        Mobius(0, 1, p * p, p - 1),
        Mobius(1, -1, 0, p),
    ]
    for text, M in zip(["z^2+1", "(z^3+2)/(z+1)", "z^3-z+1", "z^2"], movers):
        models.append(conjugate_map(parse_map(text, p), mobius_inverse(M)))
    for m in models:
        mr = moduli_search(m, p)
        tried, initial, best, entries, forms = moduli_walk(m.F, m.G, p)
        assert (mr.tried, mr.initial_valuation, mr.best_valuation) == (tried, initial, best)
        M = mr.best_mobius
        assert (M.alpha, M.beta, M.gamma, M.delta) == entries
        assert M.formula() == Mobius(*entries).formula()
        assert (mr.best_model.F, mr.best_model.G) == forms


def test_grid_candidates_rate_as_their_vertex():
    # The valuation of a conjugate's resultant depends only on the vertex
    # of the Bruhat-Tits tree that M^-1 sends the Gauss point to.  For
    # every b in range(p), z -> p^a z + b reaches the disk about 0 of
    # radius |p^-a|; inversion on the right reflects it to a' = -a, and
    # inversion on the left does not move it.  So the 21p candidates of
    # moduli_search rate as the seven plain affine maps with b = 0, and it
    # conjugates only the 7p affine ones.
    divides = 0
    for p in (2, 3, 5, 7):
        for m in random_models(p, 6, degrees=(2, 3), seed=11 * p):
            divides += m.d % p == 0

            def rate(matrix):
                return vp(p, RationalMapModel(*conjugate_forms(m, *matrix)).resultant())

            vertex = {}
            for a in MODULI_EXPONENTS:
                vertex[a] = rate((p**a, 0, 0, 1) if a >= 0 else (1, 0, 0, p**-a))
            for a in MODULI_EXPONENTS:
                for b in range(p):
                    s, t, u = (p**a, b, 1) if a >= 0 else (1, b * p**-a, p**-a)
                    assert rate((s, t, 0, u)) == vertex[a]
                    assert rate((t, s, u, 0)) == vertex[-a]
                    assert rate((0, u, s, t)) == vertex[a]
    assert divides >= 4
