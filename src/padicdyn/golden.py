"""Reproduction battery for the worked examples.

Every check here pins a value that can be recomputed by hand: unit
resultants, reduced coefficient tuples, postcritical sets, the closed
form Disc(F_{1,x}) = -4(p-x) for z^2+p, certificate outcomes on and off
the postcritical set, and the degree-one dichotomy.  The battery is
parameterized by an odd prime so the same family of maps exercises any
chosen p; reductions like z^2 are inseparable at 2, which would change
the expected answers, so p = 2 is rejected.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .maps import Mobius, ProjPointQ, conjugate_map, parse_map
from .padics import require_prime
from .qpolys import rational_str
from .reduction import ClosedPoint, MapAtPrime, condition2_check
from .towers import fiber_polynomial, fiber_report


class GoldenCheck(NamedTuple):
    name: str
    ok: bool
    expected: str
    got: str


def _render(value) -> str:
    if isinstance(value, frozenset):
        parts = sorted(
            (q.render() for q in value),
            key=lambda s: (s == "inf", len(s), s),
        )
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, int) and not isinstance(value, bool):
        return rational_str(value)
    return str(value)


def run_battery(p: int) -> tuple:
    """All worked-example checks at the odd prime p; see module docstring."""
    require_prime(p)
    if p == 2:
        raise InputError("the worked examples assume an odd prime")
    checks = []

    def expect(name: str, expected, got):
        checks.append(GoldenCheck(name, expected == got, _render(expected), _render(got)))

    point0 = ClosedPoint.of_residue(p, 0)
    point_inf = ClosedPoint.infinity(p)

    # z^2 - 1: good reduction with a three-point postcritical set
    mp = MapAtPrime(parse_map("z^2 - 1", p), p)
    sgr = mp.sgr
    expect("z^2-1: resultant is the unit 1", 1, sgr.resultant)
    expect("z^2-1: strict good reduction", True, sgr.is_strict_good_reduction)
    expect("z^2-1: reduced degree", 2, mp.rmap.reduced_degree)
    expect(
        "z^2-1: reduced coefficients",
        ((p - 1, 0, 1), (1, 0, 0)),
        mp.rmap.canonical_pair(),
    )
    c2 = condition2_check(mp)
    expect(
        "z^2-1: postcritical set {-1, 0, inf}",
        frozenset({ClosedPoint.of_residue(p, p - 1), point0, point_inf}),
        mp.pc.points,
    )
    expect("z^2-1: fiber criterion holds", True, c2.holds)
    rep = fiber_report(mp, 1, ProjPointQ.from_value("1"))
    expect("z^2-1: unit discriminant over x=1", 0, rep.disc_valuation)
    expect("z^2-1: certificate over x=1", "UNRAMIFIED", rep.certificate)

    # z^2 + p: squaring reduction, explicit level-1 discriminants
    m = parse_map("z^2 + p", p)
    mp = MapAtPrime(m, p)
    sgr = mp.sgr
    expect("z^2+p: resultant is the unit 1", 1, sgr.resultant)
    expect("z^2+p: strict good reduction", True, sgr.is_strict_good_reduction)
    expect(
        "z^2+p: reduces to the squaring map",
        ((0, 0, 1), (1, 0, 0)),
        mp.rmap.canonical_pair(),
    )
    c2 = condition2_check(mp)
    expect(
        "z^2+p: postcritical set {0, inf}",
        frozenset({point0, point_inf}),
        mp.pc.points,
    )
    for x in (1, 2, 3):
        rep = fiber_report(mp, 1, ProjPointQ.from_value(str(x)))
        expect(f"z^2+p: Disc(F_1,x) = -4(p-x) at x={x}", -4 * (p - x), rep.disc)
        want = "UNRAMIFIED" if x % p else "NO_CERTIFICATE"
        for n in (1, 2, 3):
            repn = fiber_report(mp, n, ProjPointQ.from_value(str(x)))
            expect(f"z^2+p: certificate at x={x}, level {n}", want, repn.certificate)
    rep = fiber_report(mp, 1, ProjPointQ(1, p))
    expect("z^2+p: non-integral basepoint 1/p is not certified", "NO_CERTIFICATE", rep.certificate)
    expect("z^2+p: non-integral basepoint has non-unit leading coefficient", True, rep.lc_valuation > 0)
    rep = fiber_report(mp, 1, ProjPointQ.from_value(str(p)))
    expect("z^2+p: basepoint over the critical residue 0 is not certified", "NO_CERTIFICATE", rep.certificate)

    # z^2/(1+p z^2): the inversion conjugate of z^2+p stays good
    psi = conjugate_map(m, Mobius.inversion())
    expect(
        "z^2/(1+p*z^2): equals the inversion conjugate of z^2+p",
        parse_map("z^2/(1+p*z^2)", p),
        psi,
    )
    mp = MapAtPrime(psi, p)
    sgr = mp.sgr
    expect("z^2/(1+p*z^2): resultant is the unit 1", 1, sgr.resultant)
    expect("z^2/(1+p*z^2): strict good reduction", True, sgr.is_strict_good_reduction)
    expect(
        "z^2/(1+p*z^2): reduces to the squaring map",
        ((0, 0, 1), (1, 0, 0)),
        mp.rmap.canonical_pair(),
    )
    c2 = condition2_check(mp)
    expect(
        "z^2/(1+p*z^2): postcritical set {0, inf}",
        frozenset({point0, point_inf}),
        mp.pc.points,
    )
    for n in (1, 2, 3):
        rep = fiber_report(mp, n, ProjPointQ.from_value("1"))
        expect(f"z^2/(1+p*z^2): certificate over x=1, level {n}", "UNRAMIFIED", rep.certificate)

    # p z^2 + z: degree drop, criterion fails everywhere
    mp = MapAtPrime(parse_map("p*z^2 + z", p), p)
    sgr = mp.sgr
    expect("p*z^2+z: no strict good reduction", False, sgr.is_strict_good_reduction)
    expect("p*z^2+z: resultant valuation", 2, sgr.res_valuation)
    expect("p*z^2+z: reduced degree drops to 1", 1, mp.rmap.reduced_degree)
    c2 = condition2_check(mp)
    expect("p*z^2+z: empty postcritical set", frozenset(), mp.pc.points)
    expect("p*z^2+z: fiber criterion fails", False, c2.holds)
    expect("p*z^2+z: no passing residue", (), c2.witnesses)
    expect(
        "p*z^2+z: every residue violates the degree-2 fiber condition",
        set(c2.locus),
        set(c2.violations),
    )

    # degree one: the determinant is the resultant, and every fiber is one point
    for text, det, good in (("z + 1", 1, True), ("p*z", p, False), ("1/z", -1, True)):
        mp = MapAtPrime(parse_map(text, p), p)
        F, G, name = mp.model.F, mp.model.G, text.replace(" ", "")
        own = F[1] * G[0] - F[0] * G[1]  # F = F[1] X + F[0] Y, G likewise
        expect(f"{name}: determinant", det, own)
        expect(f"{name}: good reduction iff unit determinant", good, own % p != 0)
        expect(
            f"{name}: determinant test agrees with the resultant test",
            mp.sgr.is_strict_good_reduction,
            own % p != 0,
        )
        trivial = fiber_polynomial(mp, 3, ProjPointQ.from_value("2")).degree <= 1
        expect(f"{name}: trivial towers", True, trivial)
    mp = MapAtPrime(parse_map("z + 1", p), p)
    fib = fiber_polynomial(mp, 4, ProjPointQ.from_value("2"))
    expect("z+1: level-4 fiber is a single point", 1, fib.degree)
    expect(
        "z+1: level-4 certificate",
        "UNRAMIFIED",
        fiber_report(mp, 4, ProjPointQ.from_value("2")).certificate,
    )

    return tuple(checks)


def battery_passed(checks) -> bool:
    return all(c.ok for c in checks)
