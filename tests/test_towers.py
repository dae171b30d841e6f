"""Fiber polynomials, unramifiedness certificates, and reduced preimage
trees with their Frobenius action."""

import random
from fractions import Fraction

import pytest

from padicdyn.errors import InputError, ResourceLimitError
from padicdyn.finitefield import fq_extension
from padicdyn.maps import ProjPointQ, eval_map, eval_reduced, parse_map
from padicdyn.padics import vp
from padicdyn.qpolys import QPoly
from padicdyn.reduction import MapAtPrime, postcritical_set
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
from oracles import fiber_numerator, map_table


def _pt(text):
    return ProjPointQ.from_value(text)


def test_fiber_polynomial_forms():
    m = parse_map("z^2 + p", 5)
    fp = fiber_polynomial(MapAtPrime(m, 5), 1, _pt("1"))
    assert fp.form == (4, 0, 1)
    assert fp.poly == QPoly((4, 0, 1))
    assert (fp.formal_degree, fp.inf_multiplicity, fp.integral) == (2, 0, True)

    # non-integral basepoint: the p-primitive form keeps a p in the top slot
    fp2 = fiber_polynomial(MapAtPrime(m, 5), 1, _pt("1/5"))
    assert fp2.form == (24, 0, 5)
    assert not fp2.integral

    # over infinity the affine part collapses to a constant
    fp3 = fiber_polynomial(MapAtPrime(parse_map("z^2", 5), 5), 1, _pt("inf"))
    assert fp3.form == (-1, 0, 0)
    assert fp3.poly.degree == 0
    assert fp3.inf_multiplicity == 2

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
        fp = fiber_polynomial(MapAtPrime(m, 5), 2, x)
        assert min(vp(5, c) for c in fp.form) == 0


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
    with pytest.raises(InputError, match="not\\s+separable|postcritical"):
        frobenius_cycle_type(MapAtPrime(parse_map("z^2", 5), 5), 1, 0)
    with pytest.raises(InputError, match="degree"):
        frobenius_cycle_type(MapAtPrime(parse_map("p*z^2 + z", 5), 5), 1, 0)


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
                    try:
                        ct = frobenius_cycle_type(mp, n, xbar)
                    except InputError:
                        # level-n fibers can still meet the postcritical set
                        continue
                    assert sum(ct) == m.d**n


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
    table = map_table(ext, mp.integral.F, mp.integral.G)
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


def test_preimage_tree_errors_and_caps():
    with pytest.raises(InputError):
        preimage_tree(MapAtPrime(parse_map("z^2", 5), 5), 0, 2)
    with pytest.raises(InputError, match="constant"):
        preimage_tree(MapAtPrime(parse_map("p^2*z^2", 5), 5), 1, 2)
    with pytest.raises(InputError, match="postcritical"):
        preimage_tree(MapAtPrime(parse_map("z^2", 5), 5), 1, 0)
    with pytest.raises(ResourceLimitError, match="extension cap"):
        preimage_tree(MapAtPrime(parse_map("z^2", 5), 5), 1, 2, m_cap=1)
    with pytest.raises(ResourceLimitError):
        preimage_tree(MapAtPrime(parse_map("z^2", 5), 5, cap_degree=64), 7, 2)


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
