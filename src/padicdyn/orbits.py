"""Forward orbits and orbit-level aggregation.

An orbit profile is the exact sequence x, phi(x), phi^2(x), ... in
P^1(Q) with cycle detection by canonical equality, plus per-point
residue data at a prime when one is supplied.  The orbital report
aggregates per-basepoint fiber certificates, Frobenius cycle types and
shift-compatibility checks along the orbit; its headline flag says
whether every integral basepoint reducing outside the postcritical set
carried only UNRAMIFIED certificates.

The moduli search is a bounded heuristic over conjugations
z -> p^a z + b, optionally composed with inversion on either side.  It
can certify that the minimal resultant valuation is zero by exhibiting
a witness; it never certifies a positive minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalError, ResourceLimitError
from .maps import (
    HEIGHT_CAP_BITS,
    Mobius,
    ProjPointQ,
    RationalMapModel,
    conjugate_map,
    eval_map,
    normalize_integral,
)
from .padics import require_prime, vp
from .reduction import MapAtPrime
from .towers import fiber_report, frobenius_cycle_type, shift_divisibility_check


@dataclass(frozen=True)
class OrbitProfile:
    """x_0..x_N with cycle data; residue columns filled when p is known."""

    points: tuple
    preperiod: int | None
    period: int | None
    p: int | None
    reductions: tuple | None
    integral_flags: tuple | None
    in_pc_flags: tuple | None

    @property
    def has_cycle(self) -> bool:
        return self.period is not None


def forward_orbit(
    phi: RationalMapModel | MapAtPrime,
    x: ProjPointQ,
    N: int,
    *,
    cap_height_bits: int = HEIGHT_CAP_BITS,
) -> OrbitProfile:
    """Exact orbit x_0..x_N; the first revisited point fixes (preperiod, period).

    Given a MapAtPrime session, the residue columns are filled in at its
    prime; given a bare model, they stay None.
    """
    mp = phi if isinstance(phi, MapAtPrime) else None
    model = phi.model if mp else phi
    if N < 1:
        raise InputError("orbit length must be >= 1")
    points = [x]
    seen = {x: 0}
    preperiod = period = None
    for j in range(1, N + 1):
        nxt = eval_map(model, points[-1])
        if nxt.height_bits() > cap_height_bits:
            raise ResourceLimitError(
                f"orbit coordinate exceeded {cap_height_bits} bits at step {j}"
            )
        points.append(nxt)
        if period is None:
            if nxt in seen:
                preperiod = seen[nxt]
                period = j - seen[nxt]
            else:
                seen[nxt] = j
    p = reductions = integral_flags = in_pc_flags = None
    if mp:
        p = mp.p
        reductions = tuple(pt.reduce(p) for pt in points)
        integral_flags = tuple(pt.is_integral(p) for pt in points)
        if mp.pc is None:
            in_pc_flags = tuple(None for _ in points)
        else:
            in_pc_flags = tuple(mp.pc.contains_residue(r) for r in reductions)
    return OrbitProfile(
        points=tuple(points),
        preperiod=preperiod,
        period=period,
        p=p,
        reductions=reductions,
        integral_flags=integral_flags,
        in_pc_flags=in_pc_flags,
    )


@dataclass(frozen=True)
class BasepointReport:
    index: int
    point: ProjPointQ
    fiber_reports: tuple
    cycle_types: tuple


@dataclass(frozen=True)
class ShiftCheck:
    """Junction check: does X_n(x_j) embed into X_{n+1}(x_{j+1})?"""

    index: int
    n: int
    ok: bool | None
    note: str | None


@dataclass(frozen=True)
class OrbitalReport:
    profile: OrbitProfile
    n_max: int
    basepoints: tuple
    shifts: tuple
    all_unramified_on_locus: bool


def orbital_report(
    mp: MapAtPrime,
    x: ProjPointQ,
    N: int,
    n_max: int,
    *,
    cap_height_bits: int = HEIGHT_CAP_BITS,
) -> OrbitalReport:
    """Tower data for every basepoint along the orbit of x.

    Non-integral basepoints and basepoints reducing into the postcritical
    set are still profiled, but only the rest count toward
    all_unramified_on_locus.
    """
    if n_max < 1:
        raise InputError("tower depth must be >= 1")
    profile = forward_orbit(mp, x, N, cap_height_bits=cap_height_bits)
    basepoints = []
    all_ok = True
    for j, pt in enumerate(profile.points):
        reports = []
        cycles = []
        for n in range(1, n_max + 1):
            reports.append(fiber_report(mp, n, pt))
            try:
                cycles.append(frobenius_cycle_type(mp, n, profile.reductions[j]))
            except InputError:
                cycles.append(None)
        basepoints.append(
            BasepointReport(
                index=j,
                point=pt,
                fiber_reports=tuple(reports),
                cycle_types=tuple(cycles),
            )
        )
        on_locus = profile.integral_flags[j] and profile.in_pc_flags[j] is False
        if on_locus and any(r.certificate != "UNRAMIFIED" for r in reports):
            all_ok = False

    shifts = []
    for j in range(len(profile.points) - 1):
        for n in range(1, n_max):
            xj, xj1 = profile.points[j], profile.points[j + 1]
            if xj.is_infinity or xj1.is_infinity:
                shifts.append(ShiftCheck(j, n, None, "basepoint at infinity"))
                continue
            try:
                ok = shift_divisibility_check(mp, n, xj)
            except InputError as exc:
                shifts.append(ShiftCheck(j, n, None, str(exc)))
            else:
                shifts.append(ShiftCheck(j, n, ok, None))

    return OrbitalReport(
        profile=profile,
        n_max=n_max,
        basepoints=tuple(basepoints),
        shifts=tuple(shifts),
        all_unramified_on_locus=all_ok,
    )


@dataclass(frozen=True)
class ModuliReport:
    p: int
    initial_valuation: int
    best_valuation: int
    best_mobius: Mobius
    best_model: RationalMapModel
    achieved_zero: bool
    tried: int


def moduli_search(
    model: RationalMapModel,
    p: int,
    *,
    a_range=range(-3, 4),
    b_set=None,
    include_inversion: bool = True,
) -> ModuliReport:
    """Search z -> p^a z + b (and inversion composites) for a unit resultant.

    Enumeration order is fixed: plain affine maps over the whole (a, b)
    grid first (a ascending, then b), then the two inversion composites
    grid by grid.  The first conjugate reaching valuation 0 stops the
    search, and a zero witness is re-verified through the full reduction
    report before being returned.  achieved_zero=False is inconclusive:
    the family is a bounded heuristic, not a minimizer.
    """
    require_prime(p)
    if b_set is None:
        b_set = range(p)
    inv = Mobius.inversion()

    def candidates():
        grid = [Mobius.affine(Fraction(p) ** a, b) for a in a_range for b in b_set]
        yield from grid
        if include_inversion:
            for affine in grid:
                yield affine.compose(inv)
            for affine in grid:
                yield inv.compose(affine)

    best_val = None
    best_m = None
    best_model = None
    initial = None
    tried = 0
    for M in candidates():
        conj = conjugate_map(model, M)
        val = vp(p, normalize_integral(conj, p).resultant())
        tried += 1
        if M == Mobius.identity():
            initial = val
        if best_val is None or val < best_val:
            best_val, best_m, best_model = val, M, conj
        if best_val == 0:
            break
    if initial is None:
        initial = vp(p, normalize_integral(model, p).resultant())
    achieved = best_val == 0
    if achieved and not MapAtPrime(best_model, p).sgr.is_strict_good_reduction:
        raise InternalError("zero witness failed re-verification")
    return ModuliReport(
        p=p,
        initial_valuation=initial,
        best_valuation=best_val,
        best_mobius=best_m,
        best_model=best_model,
        achieved_zero=achieved,
        tried=tried,
    )
