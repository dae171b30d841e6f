"""End-to-end checks of the headline guarantees, one visible verdict line
per criterion.

Run with `pytest -v tests/test_acceptance.py`; each test prints
`criterion N: PASS/FAIL <summary>` directly to the terminal.
"""

from padicdyn.finitefield import form_is_zero
from padicdyn.maps import (
    ProjPointQ,
    iterate_map,
    parse_map,
    reduce_map,
)
from padicdyn.orbits import moduli_search
from padicdyn.padics import vp
from padicdyn.reduction import (
    ClosedPoint,
    MapAtPrime,
    condition2_check,
    critical_divisor,
    postcritical_set,
    strict_good_reduction,
)
from padicdyn.towers import (
    NO_CERTIFICATE,
    UNRAMIFIED,
    fiber_polynomial,
    fiber_report,
    frobenius_cycle_type,
    preimage_tree,
)

from corpus_util import random_mobius_models, random_models
from oracles import etale_fiber_oracle, form_resultant


def _verdict(capsys, num, summary, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d}: FAIL  {summary}")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d}: PASS  {summary}")


def _pc_points(model, p):
    return postcritical_set(MapAtPrime(model, p)).points


def test_criterion_01(capsys):
    def body():
        for p in (3, 5, 7):
            m = parse_map("z^2 + p", p)
            sgr = strict_good_reduction(MapAtPrime(m, p))
            assert sgr.res_valuation == 0 and sgr.is_strict_good_reduction
            rmap = reduce_map(m, p)
            assert (rmap.F1, rmap.G1) == ((0, 0, 1), (1, 0, 0))  # z^2
            assert _pc_points(m, p) == frozenset(
                {ClosedPoint.of_residue(p, 0), ClosedPoint.infinity(p)}
            )
            for x in (1, 2, 3):
                pt = ProjPointQ(x, 1)
                rep1 = fiber_report(MapAtPrime(m, p), 1, pt)
                assert rep1.disc == -4 * (p - x)
                # x = p lands on the postcritical residue 0: the level-1
                # discriminant vanishes and no unit certificate can exist
                want = UNRAMIFIED if x % p else NO_CERTIFICATE
                for n in (1, 2, 3):
                    rep = fiber_report(MapAtPrime(m, p), n, pt)
                    assert rep.certificate == want

    _verdict(capsys, 1, "z^2+p: unit resultant, PC {0,inf}, disc -4(p-x), towers certify", body)


def test_criterion_02(capsys):
    def body():
        for p in (5, 7, 11):
            m = parse_map("z^2 - 1", p)
            assert _pc_points(m, p) == frozenset(
                {
                    ClosedPoint.of_residue(p, p - 1),
                    ClosedPoint.of_residue(p, 0),
                    ClosedPoint.infinity(p),
                }
            )
            c2 = condition2_check(MapAtPrime(m, p))
            assert c2.holds
            assert c2.violations == ()
            assert len(c2.witnesses) == len(c2.locus) > 0

    _verdict(capsys, 2, "z^2-1: PC {-1,0,inf} and fiber criterion holds at p=5,7,11", body)


def test_criterion_03(capsys):
    def body():
        for p in (3, 5, 7):
            m = parse_map("p*z^2 + z", p)
            sgr = strict_good_reduction(MapAtPrime(m, p))
            assert sgr.reduced_degree == 1
            assert not sgr.is_strict_good_reduction
            c2 = condition2_check(MapAtPrime(m, p))
            assert not c2.holds
            # every residue point fails: no degree-2 separable level-1 fiber
            assert set(c2.violations) == set(c2.locus) != set()
            assert c2.witnesses == ()

    _verdict(capsys, 3, "p*z^2+z: degree drops to 1, no good reduction, all fibers fail", body)


def test_criterion_04(capsys):
    def body():
        for p in (3, 5, 7):
            m = parse_map("z^2/(1 + p*z^2)", p)
            assert m.resultant() == 1
            sgr = strict_good_reduction(MapAtPrime(m, p))
            assert sgr.res_valuation == 0
            rmap = reduce_map(m, p)
            assert (rmap.F1, rmap.G1) == ((0, 0, 1), (1, 0, 0))
            assert _pc_points(m, p) == frozenset(
                {ClosedPoint.of_residue(p, 0), ClosedPoint.infinity(p)}
            )

    _verdict(capsys, 4, "z^2/(1+p*z^2): resultant 1, squaring reduction, PC {0,inf}", body)


def test_criterion_05(capsys):
    def body():
        for p in (3, 5):
            checked = 0
            for m in random_models(p, 300, seed=500 + p):
                sgr = strict_good_reduction(MapAtPrime(m, p))
                if sgr.inseparable_reduction:
                    # the fiber criterion presumes a separable reduction;
                    # an inseparable map can keep full degree yet has no
                    # etale fiber anywhere
                    continue
                c2 = condition2_check(MapAtPrime(m, p))
                assert c2.holds == sgr.is_strict_good_reduction, m.map_str()
                checked += 1
            assert checked >= 200

    _verdict(capsys, 5, "resultant test == fiber test on 200+ random maps at p=3,5", body)


def test_criterion_06(capsys):
    def body():
        for p in (3, 5, 7):
            kept = 0
            for m in random_models(p, 150, seed=600 + p):
                mp = MapAtPrime(m, p)
                rmap = mp.rmap
                if rmap.reduced_degree < 1:
                    continue
                if form_is_zero(critical_divisor(rmap)):
                    continue
                pc = postcritical_set(mp)
                if pc.everything or pc.stable_depth > 4:
                    # depth-4 fiber checks can only see the depth-4 part
                    # of the postcritical set
                    continue
                kept += 1
                if kept > 50:
                    break
                for xbar in list(range(p)) + [None]:
                    all_etale = all(etale_fiber_oracle(rmap, xbar, n) for n in (1, 2, 3, 4))
                    assert all_etale == (not pc.contains_residue(xbar)), (
                        m.map_str(),
                        xbar,
                    )
            assert kept >= 50

    _verdict(capsys, 6, "etale fibers for n<=4 exactly off PC, exhaustive over P^1(F_p)", body)


def test_criterion_07(capsys):
    def body():
        checked = 0
        for p in (3, 5):
            for m in random_models(p, 120, seed=p):
                if not strict_good_reduction(MapAtPrime(m, p)).is_strict_good_reduction:
                    continue
                checked += 1
                for n in (2, 3):
                    prim = iterate_map(m, n)
                    rm = reduce_map(prim, p)
                    # unit resultant iff the reduced resultant is nonzero;
                    # fall back to the exact valuation before failing
                    raw_F, raw_G = (tuple(c % p for c in f) for f in (prim.F, prim.G))
                    if form_resultant(rm.field, raw_F, raw_G) == 0:
                        assert vp(p, prim.resultant()) == 0, (m.map_str(), n)
        assert checked >= 80

    _verdict(capsys, 7, "iterates of good-reduction maps keep unit resultants (n=2,3)", body)


def _brute_force_tree_over_f25():
    """Enumerate the squaring map on F_25 = F_5[s]/(s^2-2) directly.

    Returns (level_sizes, level2_cycle_type, commutes) computed without
    any package code: elements are pairs (a, b) standing for a + b*s.
    """
    els = [(a, b) for a in range(5) for b in range(5)]

    def mul(x, y):
        a, b = x
        c, d = y
        return ((a * c + 2 * b * d) % 5, (a * d + b * c) % 5)

    def sq(x):
        return mul(x, x)

    def frob(x):  # x -> x^5
        out = x
        for _ in range(4):
            out = mul(out, x)
        return out

    one = (1, 0)
    level1 = [x for x in els if sq(x) == one]
    level2 = [x for x in els if sq(sq(x)) == one]
    sizes = (1, len(level1), len(level2))

    def cycle_type(points):
        remaining = set(points)
        out = []
        while remaining:
            start = next(iter(remaining))
            length = 0
            cur = start
            while True:
                remaining.discard(cur)
                length += 1
                cur = frob(cur)
                if cur == start:
                    break
            out.append(length)
        return tuple(sorted(out))

    commutes = all(sq(frob(x)) == frob(sq(x)) for x in level2)
    return sizes, cycle_type(level2), commutes


def test_criterion_08(capsys):
    def body():
        sizes, ct2, commutes = _brute_force_tree_over_f25()
        assert sizes == (1, 2, 4)
        # all fourth roots of unity are rational over F_5, so Frobenius
        # fixes the level pointwise
        assert ct2 == (1, 1, 1, 1)
        assert commutes

        t = preimage_tree(MapAtPrime(parse_map("z^2", 5), 5), 2, 1)
        assert t.level_sizes == sizes
        assert t.cycle_type(2) == ct2
        assert t.cycle_type(1) == (1, 1)
        for n in (1, 2):
            for i in range(len(t.levels[n])):
                assert t.parents[n][t.frob[n][i]] == t.frob[n - 1][t.parents[n][i]]

    _verdict(capsys, 8, "z^2 tree over x=1 at p=5 matches brute-force F_25 enumeration", body)


def test_criterion_09(capsys):
    def body():
        for p in (3, 5, 7):
            for text in ("p*z^2 + z", "p^2*z^2"):
                mr = moduli_search(parse_map(text, p), p)
                assert mr.achieved_zero
                assert mr.best_valuation == 0
                assert mr.initial_valuation > 0
                assert strict_good_reduction(MapAtPrime(mr.best_model, p)).is_strict_good_reduction
        mr5 = moduli_search(parse_map("p*z^2 + z", 5), 5)
        assert mr5.best_mobius.formula() == "5*z"
        assert moduli_search(parse_map("p^2*z^2", 5), 5).best_mobius.formula() == "25*z"

    _verdict(capsys, 9, "conjugate search reaches valuation 0 for p*z^2+z and p^2*z^2", body)


def test_criterion_10(capsys):
    def body():
        p = 5
        count = 0
        for m in random_mobius_models(p, 100, seed=1010):
            count += 1
            # F = F[1] X + F[0] Y and G likewise: the determinant by hand
            det = m.F[1] * m.G[0] - m.F[0] * m.G[1]
            sgr = strict_good_reduction(MapAtPrime(m, p))
            assert sgr.resultant == det
            assert sgr.is_strict_good_reduction == (vp(p, det) == 0)
            for n in (1, 2, 3):
                mp = MapAtPrime(m, p)
                poly = fiber_polynomial(mp, n, ProjPointQ(2, 1))
                assert mp.d**n == 1 and poly.degree <= 1
                # one reduced fiber point, or no cycle type at a constant reduction
                cycle = frobenius_cycle_type(mp, n, 2)
                assert cycle == ((1,) if sgr.is_strict_good_reduction else None)
        assert count == 100

    _verdict(capsys, 10, "100 Mobius maps: determinant test agrees, towers stay trivial", body)
