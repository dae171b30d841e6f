"""Fiber polynomials, unramifiedness certificates, and reduced preimage
trees with their Frobenius action."""

import contextlib
import io
import random
from fractions import Fraction

import pytest
import sympy

import padicdyn.cli as cli
import padicdyn.reduction as reduction
from padicdyn.errors import InputError, ResourceLimitError
from padicdyn.finitefield import FqPoly, form_is_zero, fq_extension
from padicdyn.maps import ProjPointQ, eval_map, eval_reduced, parse_map
from padicdyn.padics import vp
from padicdyn.qpolys import QPoly
from padicdyn.reduction import ClosedPoint, MapAtPrime, closed_points_of_form, postcritical_set
from padicdyn.towers import (
    NO_CERTIFICATE,
    UNRAMIFIED,
    fiber_polynomial,
    fiber_report,
    frobenius_cycle_type,
    newton_polygon,
    preimage_tree,
    shift_divisibility_check,
)

from corpus_util import random_models
from oracles import fiber_numerator, frontier_pushforward, map_table


def _pt(text):
    return ProjPointQ.from_value(text)


def _form(mp, n, x):
    """The fiber form of formal degree d^n: the affine part, padded at the top."""
    poly = fiber_polynomial(mp, n, x)
    return poly.coeffs + (0,) * (mp.d**n - poly.degree)


def test_fiber_polynomial_forms():
    m = parse_map("z^2 + p", 5)
    fp = fiber_polynomial(MapAtPrime(m, 5), 1, _pt("1"))
    assert type(fp) is QPoly and fp == QPoly((4, 0, 1))
    assert _form(MapAtPrime(m, 5), 1, _pt("1")) == (4, 0, 1)
    assert fiber_report(MapAtPrime(m, 5), 1, _pt("1")).degree_full

    # non-integral basepoint: the p-primitive form keeps a p in the top slot
    assert _form(MapAtPrime(m, 5), 1, _pt("1/5")) == (24, 0, 5)
    integral = [fiber_report(MapAtPrime(m, 5), 1, _pt(x)).integral for x in ("1", "1/5")]
    assert integral == [True, False]

    # over infinity the affine part collapses to a constant: infinity twice
    mp = MapAtPrime(parse_map("z^2", 5), 5)
    assert fiber_polynomial(mp, 1, _pt("inf")) == QPoly((-1,))
    assert _form(mp, 1, _pt("inf")) == (-1, 0, 0)
    assert not fiber_report(mp, 1, _pt("inf")).degree_full

    with pytest.raises(InputError):
        fiber_polynomial(MapAtPrime(m, 5), 0, _pt("1"))
    with pytest.raises(InputError):
        fiber_polynomial(MapAtPrime(m, 6), 1, _pt("1"))
    with pytest.raises(ResourceLimitError):
        fiber_polynomial(MapAtPrime(m, 5, cap_degree=16), 5, _pt("1"))


def test_fiber_polynomial_is_p_primitive():
    rng = random.Random(13)
    for m in random_models(5, 12, seed=61):
        x = ProjPointQ(rng.randint(-8, 8), rng.randint(1, 8))
        assert min(vp(5, c) for c in _form(MapAtPrime(m, 5), 2, x)) == 0


def test_newton_polygon_cases():
    assert newton_polygon(QPoly((-5, 0, 1)), 5) == ((Fraction(-1, 2), 2),)
    assert newton_polygon(QPoly((5, -6, 1)), 5) == (
        (Fraction(-1), 1),
        (Fraction(0), 1),
    )
    # vanishing at 0 shortens the polygon
    assert newton_polygon(QPoly((0, 5, 1)), 5) == ((Fraction(-1), 1),)
    assert newton_polygon(QPoly((0, 0, 1)), 5) == ()
    with pytest.raises(InputError):
        newton_polygon(QPoly((3,)), 5)


def test_fiber_report_certificates():
    m = parse_map("z^2 + p", 5)

    rep = fiber_report(MapAtPrime(m, 5), 1, _pt("1"))
    assert rep.certificate == UNRAMIFIED
    assert (rep.lc_valuation, rep.disc_valuation) == (0, 0)
    assert rep.disc == -16
    assert rep.reduced_factor_degrees == (1, 1)
    assert rep.newton is None
    assert rep.degree_full

    # unit lc fails: no certificate, Newton polygon attached
    rep2 = fiber_report(MapAtPrime(m, 5), 1, _pt("1/5"))
    assert rep2.certificate == NO_CERTIFICATE
    assert rep2.lc_valuation == 1
    assert rep2.newton == ((Fraction(1, 2), 2),)

    # basepoint p: the fiber polynomial is z^2, discriminant vanishes
    rep3 = fiber_report(MapAtPrime(m, 5), 1, _pt("5"))
    assert rep3.certificate == NO_CERTIFICATE
    assert rep3.disc == 0
    assert rep3.disc_valuation == float("inf")

    # degree-0 affine part: nothing to certify
    rep4 = fiber_report(MapAtPrime(parse_map("z^2", 5), 5), 1, _pt("inf"))
    assert rep4.certificate == NO_CERTIFICATE
    assert rep4.disc is None
    assert rep4.disc_valuation == float("inf")
    assert rep4.reduced_factor_degrees is None


def test_fiber_report_unramified_ladder():
    # the worked tower: every level over x = 1 certifies
    m = parse_map("z^2 + p", 7)
    for n in (1, 2, 3):
        rep = fiber_report(MapAtPrime(m, 7), n, _pt("1"))
        assert rep.certificate == UNRAMIFIED
        assert sum(rep.reduced_factor_degrees) == 2**n


def test_frobenius_cycle_type_examples():
    assert frobenius_cycle_type(MapAtPrime(parse_map("z^2 + 1", 3), 3), 1, 0) == (2,)
    assert frobenius_cycle_type(MapAtPrime(parse_map("z^2 + 1", 3), 3), 2, 0) == (4,)
    assert frobenius_cycle_type(MapAtPrime(parse_map("z^2", 5), 5), 1, 2) == (2,)
    assert frobenius_cycle_type(MapAtPrime(parse_map("z^2", 5), 5), 1, 4) == (1, 1)
    # an infinity basepoint works when infinity is off the postcritical set
    assert frobenius_cycle_type(MapAtPrime(parse_map("z/(z^2 + 1)", 7), 7), 1, None) == (2,)


def test_frobenius_cycle_type_preconditions():
    with pytest.raises(InputError):
        frobenius_cycle_type(MapAtPrime(parse_map("z^2", 5), 5), 0, 2)
    with pytest.raises(ResourceLimitError):
        frobenius_cycle_type(MapAtPrime(parse_map("z^2", 5), 5, cap_degree=32), 6, 2)
    # no cycle type: 0 is critical, so its fiber is z^2, not separable ...
    mp = MapAtPrime(parse_map("z^2", 5), 5)
    assert mp.fiber_pattern(1, 0) == ((1, 2),)
    assert frobenius_cycle_type(mp, 1, 0) is None
    # ... and a reduction of degree 1 < 2 leaves every fiber degree-deficient,
    # separable or not, so not even the fiber pattern is read
    mp = MapAtPrime(parse_map("p*z^2 + z", 5), 5)
    assert mp.rmap.reduced_degree == 1
    assert all(frobenius_cycle_type(mp, 1, r) is None for r in (*range(5), None))
    assert "_reduced_iterates" not in vars(mp) and not mp._factor_degrees


def test_frobenius_cycle_type_sums_to_fiber_degree():
    for p in (3, 5):
        for m in random_models(p, 25, seed=p + 100):
            mp = MapAtPrime(m, p)
            rmap = mp.rmap
            if rmap.reduced_degree < m.d:
                continue
            pc = postcritical_set(mp)
            if pc.everything:
                continue
            for xbar in range(p):
                if pc.contains_residue(xbar):
                    continue
                for n in (1, 2):
                    # off the postcritical set every level's fiber is separable
                    ct = frobenius_cycle_type(mp, n, xbar)
                    assert ct is not None and sum(ct) == m.d**n


def _branch_sets(mp, n_max):
    """phi~^j(Crit) for j = 1..n_max, pushed forward point by point by the
    frontier oracle; None when the reduction is inseparable (Crit is all)."""
    if form_is_zero(mp.critical):
        return None
    layer, out = {pt for pt, _ in closed_points_of_form(mp.rmap.field, mp.critical)}, []
    for _ in range(n_max):
        layer = {frontier_pushforward(q, mp.rmap) for q in layer}
        out.append(layer)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fiber_certificates_agree_with_the_theorem(p):
    # Under strict good reduction the level-n certificate over x is
    # UNRAMIFIED exactly when v_p(lc) = 0 and x-bar lies in no branch set
    # phi~^j(Crit), 1 <= j <= n; the reduced fiber is separable, so a
    # cycle type exists, exactly off those sets; and a basepoint in one
    # of them is in the postcritical set of the walk.  The certificate's
    # discriminant is sympy's.  d^n <= 27, and p = 2, 3 include p | d.
    rng = random.Random(80 + p)
    z = sympy.Symbol("z")
    seen = {UNRAMIFIED: 0, "branch": 0, "lc": 0, "inf": 0}
    for m in random_models(p, 60, seed=300 + p):
        mp = MapAtPrime(m, p)
        if not mp.sgr.is_strict_good_reduction:
            continue
        n_max = 4 if mp.d == 2 else 3
        branch = _branch_sets(mp, n_max)
        # integral, non-integral and infinite basepoints, and one over the
        # image of infinity, where the fiber polynomial loses degree mod p
        image = eval_reduced(mp.rmap.field, mp.rmap.F1, mp.rmap.G1, None)
        lift = ProjPointQ(p * rng.randint(1, 3) + (p if image is None else image), 1)
        integral, nonintegral = ProjPointQ(rng.randint(-p, 2 * p), 1), ProjPointQ(rng.choice([-1, 1, 2]), p)
        for x in (integral, nonintegral, _pt("inf"), lift):
            xbar = x.reduce(p)
            point = ClosedPoint.of_residue(p, xbar)
            for n in range(1, n_max + 1):
                rep, poly = fiber_report(mp, n, x), fiber_polynomial(mp, n, x)
                off = branch is not None and all(point not in b for b in branch[:n])
                if mp.d**n - poly.degree > 1:
                    # infinity is a multiple root over Q itself, so x-bar is
                    # a branch value; the certificate speaks of the affine roots
                    assert not off
                    seen["inf"] += 1
                else:
                    assert (rep.certificate == UNRAMIFIED) == (rep.lc_valuation == 0 and off)
                if poly.degree < 1:
                    assert rep.disc is None
                else:
                    assert rep.disc == sympy.discriminant(sympy.Poly(poly.coeffs[::-1], z))
                assert (frobenius_cycle_type(mp, n, xbar) is not None) == off
                if not off:
                    assert mp.pc.contains_residue(xbar)
                seen[UNRAMIFIED] += rep.certificate == UNRAMIFIED
                seen["branch"] += not off
                seen["lc"] += off and rep.lc_valuation > 0
    assert all(seen.values()), seen


def test_preimage_tree_example():
    t = preimage_tree(MapAtPrime(parse_map("z^2 + 1", 3), 3), 2, 0)
    assert t.level_sizes == (1, 2, 4)
    assert t.m == 4
    assert t.levels[0] == (0,)
    assert t.cycle_type(1) == (2,)
    assert t.cycle_type(2) == (4,)


def test_preimage_tree_invariants():
    checked = 0
    for p in (3, 5):
        for m in random_models(p, 20, seed=p + 7):
            mp = MapAtPrime(m, p)
            rmap = mp.rmap
            if rmap.reduced_degree < m.d or m.d**3 > 64:
                continue
            pc = postcritical_set(mp)
            if pc.everything:
                continue
            for xbar in list(range(p)) + [None]:
                if pc.contains_residue(xbar):
                    continue
                try:
                    t = preimage_tree(mp, 3, xbar)
                except (InputError, ResourceLimitError):
                    continue
                checked += 1
                ext = fq_extension(p, t.m)
                assert t.level_sizes[0] == 1
                for n in range(1, 4):
                    level, prev = t.levels[n], t.levels[n - 1]
                    assert len(set(level)) == len(level)
                    # parent edges recompute under the reduced map
                    for i, pt in enumerate(level):
                        assert eval_reduced(ext, rmap.F1, rmap.G1, pt) == prev[t.parents[n][i]]
                    # Frobenius is a permutation commuting with the edges
                    frob_n, frob_prev = t.frob[n], t.frob[n - 1]
                    assert sorted(frob_n) == list(range(len(level)))
                    for i in range(len(level)):
                        assert t.parents[n][frob_n[i]] == frob_prev[t.parents[n][i]]
                    assert sum(t.cycle_type(n)) == len(level)
                assert t.frob[0] == (0,)
    assert checked >= 10


@pytest.mark.parametrize(
    "text,p,xbar,N",
    [
        ("(z^2+2)/(z+1)", 5, None, 4),  # xbar = inf, and inf on every level
        ("(z^2+3)/(z^2+z)", 7, 2, 2),  # inf first appears at level 2
        ("(z^2+z+1)/z", 2, None, 5),  # p = 2: trace splitting over F_256
        ("z^2+z+1", 2, 0, 5),
        ("z^3+z", 3, 1, 3),  # separable cubic with p | d, over F_729
        ("z^3-z+1", 3, 1, 3),
    ],
)
def test_preimage_tree_against_brute_force(text, p, xbar, N):
    mp = MapAtPrime(parse_map(text, p), p)
    t = preimage_tree(mp, N, xbar)
    ext = fq_extension(p, t.m)
    assert ext.q <= 729
    table = map_table(ext, mp.model.F, mp.model.G)
    # level n is exactly {z in P^1(F_q) : phi~^n(z) = xbar}, in sort order
    level = [xbar]
    for n in range(N + 1):
        assert list(t.levels[n]) == sorted(level, key=lambda z: (z is None, z or 0))
        assert len(level) == mp.d**n
        for i, z in enumerate(t.levels[n]):
            assert t.levels[n][t.frob[n][i]] == (None if z is None else ext.pow(z, p))
            if n:
                assert t.levels[n - 1][t.parents[n][i]] == table[z]
        level = [z for z in table if table[z] in level]
    # F_{p^m} is the smallest field holding every level
    points = [z for lev in t.levels for z in lev if z is not None]
    for k in range(1, t.m):
        if t.m % k == 0:
            assert any(ext.pow(z, p**k) != z for z in points)


@pytest.mark.parametrize(
    "text,p,xbar,N",
    [
        ("z^2+1", 3, 0, 3),  # a digit field, F_{3^8}
        ("(z^2+2)/(z+1)", 5, None, 4),  # a log-table field, inf on every level
        ("z^3-z+1", 3, 1, 3),  # cubic fibers, split by Cantor-Zassenhaus
    ],
)
def test_preimage_tree_takes_one_frobenius_image_per_point(monkeypatch, text, p, xbar, N):
    # the climb keeps sigma(z) of each affine point it finds, and the levels'
    # permutations are read off those images: none is taken twice, and
    # xbar, in F_p, needs none
    mp = MapAtPrime(parse_map(text, p), p)
    field = type(fq_extension(p, preimage_tree(mp, N, xbar).m))
    images = []
    frobenius = field.frobenius

    def counting(self, a):
        images.append(a)
        return frobenius(self, a)

    monkeypatch.setattr(field, "frobenius", counting)
    t = preimage_tree(mp, N, xbar)
    affine = [z for level in t.levels[1:] for z in level if z is not None]
    assert sorted(images) == sorted(affine)


def test_preimage_tree_errors_and_caps():
    with pytest.raises(InputError):
        preimage_tree(MapAtPrime(parse_map("z^2", 5), 5), 0, 2)
    with pytest.raises(InputError, match="constant"):
        preimage_tree(MapAtPrime(parse_map("p^2*z^2", 5), 5), 1, 2)
    with pytest.raises(InputError, match="postcritical"):
        preimage_tree(MapAtPrime(parse_map("z^2", 5), 5), 1, 0)
    with pytest.raises(ResourceLimitError):
        preimage_tree(MapAtPrime(parse_map("z^2", 5), 5, cap_degree=64), 7, 2)
    # the session's degree cap binds the iterates over F_p as it does those over Q
    with pytest.raises(ResourceLimitError, match="iterate degree 2\\^6 exceeds cap 32"):
        MapAtPrime(parse_map("z^2", 5), 5, cap_degree=32).fiber_pattern(6, 2)
    # the fiber z^2 = 2 splits only in F_{5^2}: the session's field cap bounds the tree
    with pytest.raises(ResourceLimitError, match="field size 5\\^2 exceeds cap 24"):
        preimage_tree(MapAtPrime(parse_map("z^2", 5), 5, cap_field=24), 1, 2)


def test_shift_divisibility_examples():
    m = parse_map("z^2 + p", 5)
    assert all(shift_divisibility_check(MapAtPrime(m, 5), n, _pt("1")) for n in (1, 2, 3))
    assert shift_divisibility_check(MapAtPrime(parse_map("z^2 - 1", 5), 5), 1, _pt("3"))
    with pytest.raises(InputError):
        shift_divisibility_check(MapAtPrime(m, 5), 0, _pt("1"))
    with pytest.raises(InputError, match="affine"):
        shift_divisibility_check(MapAtPrime(m, 5), 1, _pt("inf"))
    with pytest.raises(InputError, match="infinity"):
        shift_divisibility_check(MapAtPrime(parse_map("1/z", 5), 5), 1, _pt("0"))
    with pytest.raises(InputError, match="inseparable"):
        shift_divisibility_check(MapAtPrime(parse_map("z^2", 5), 5), 1, _pt("0"))


def test_shift_divisibility_on_corpus():
    # sympy divides the level-(n+1) fiber over phi(x) by the level-n fiber
    # over x, both composed in Q(z); the same gcd test against the fiber
    # over phi(x) + 1 must fail wherever sympy leaves a remainder
    rng = random.Random(17)
    checked = refused = 0
    for m in random_models(5, 15, seed=29):
        for _ in range(3):
            x = ProjPointQ(rng.randint(-6, 6), rng.randint(1, 4))
            for n in (1, 2):
                mp = MapAtPrime(m, 5)
                try:
                    ok = shift_divisibility_check(mp, n, x)
                except InputError:
                    continue
                y = eval_map(m, x)
                f = fiber_numerator(m.F, m.G, n, x.a, x.b)
                g = fiber_numerator(m.F, m.G, n + 1, y.a, y.b)
                assert ok and g.rem(f) == 0
                f_ours = QPoly(mp.fiber_form(n, x))
                g_off = fiber_numerator(m.F, m.G, n + 1, y.a + y.b, y.b)
                off = QPoly(mp.fiber_form(n + 1, ProjPointQ(y.a + y.b, y.b)))
                divides = f_ours.gcd(off).degree == f_ours.degree
                assert divides == (not g_off.rem(f))
                checked += 1
                refused += not divides
    assert checked >= 40 and refused >= 20


@pytest.mark.parametrize(
    "argv,bound",
    [
        # levels 2 and 3 lie over the postcritical set: SFF and DDF alone
        (["tower", "z^2+1", "-p", "5", "-x", "2", "-n", "3"], 20),
        # a tree in F_{2^8} with 32 points at level 5
        (["tower", "z^2+z+1", "-p", "2", "-x", "1", "-n", "5"], 100),
    ],
)
def test_tower_builds_no_polynomial_object_per_kernel_step(monkeypatch, argv, bound):
    # factorizations and root splits run on coefficient lists: the one
    # polynomial record, FqPoly, is built only as fq_factor's argument, not
    # per fiber, gcd, division or power (110 and 861 objects if each of
    # those built one; the two queries build 1 and 0)
    built, factored = [], []
    new, factor = FqPoly.__new__, reduction.fq_factor

    def counting_new(cls, *args):
        built.append(None)
        return new(cls, *args)

    def counting_factor(f):
        factored.append(f)
        return factor(f)

    monkeypatch.setattr(FqPoly, "__new__", counting_new)
    monkeypatch.setattr(reduction, "fq_factor", counting_factor)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(built) == len(factored) <= bound

