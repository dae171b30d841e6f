"""Forward orbits and orbit-level aggregation.

An orbit profile is the exact sequence x, phi(x), phi^2(x), ... in
P^1(Q) with cycle detection by canonical equality, plus per-point
residue data at a prime when one is supplied.  The orbital report
aggregates per-basepoint fiber certificates and Frobenius cycle types
along the orbit; its headline flag says whether every integral
basepoint reducing outside the postcritical set carried only UNRAMIFIED
certificates.

The moduli search is a bounded heuristic over conjugations
z -> p^a z + b and their composites with inversion on either side.  It
can certify that the minimal resultant valuation is zero by exhibiting
a witness; it never certifies a positive minimum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, InternalError, ResourceLimitError
from .maps import (
    HEIGHT_CAP_BITS,
    Mobius,
    ProjPointQ,
    RationalMapModel,
    conjugate_by_matrix,
    eval_map,
)
from .padics import require_prime, vp
from .reduction import MapAtPrime
from .towers import fiber_report, frobenius_cycle_type


class OrbitProfile(NamedTuple):
    """x_0..x_N with cycle data and the residue columns at the session's prime."""

    points: tuple
    preperiod: int | None
    period: int | None
    p: int
    reductions: tuple
    integral_flags: tuple
    in_pc_flags: tuple


def forward_orbit(
    mp: MapAtPrime,
    x: ProjPointQ,
    N: int,
    *,
    cap_height_bits: int = HEIGHT_CAP_BITS,
) -> OrbitProfile:
    """Exact orbit x_0..x_N; the first revisited point fixes (preperiod, period).

    The residue columns are filled in at the session's prime; membership
    in the postcritical set is None throughout when the reduction is
    constant or the postcritical walk was refused by a cap.
    """
    if N < 1:
        raise InputError("orbit length must be >= 1")
    points = [x]
    seen = {x: 0}
    preperiod = period = None
    for j in range(1, N + 1):
        nxt = eval_map(mp.model, points[-1])
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
    p = mp.p
    reductions = tuple(pt.reduce(p) for pt in points)
    if mp.pc_refusal is not None or mp.pc is None:
        in_pc_flags = tuple(None for _ in points)
    else:
        in_pc_flags = tuple(mp.pc.contains_residue(r) for r in reductions)
    return OrbitProfile(
        points=tuple(points),
        preperiod=preperiod,
        period=period,
        p=p,
        reductions=reductions,
        integral_flags=tuple(pt.is_integral(p) for pt in points),
        in_pc_flags=in_pc_flags,
    )


class BasepointReport(NamedTuple):
    index: int
    point: ProjPointQ
    fiber_reports: tuple
    cycle_types: tuple


class OrbitalReport(NamedTuple):
    profile: OrbitProfile
    n_max: int
    basepoints: tuple
    all_unramified_on_locus: bool | None


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
    all_unramified_on_locus.  That flag is None when there is no
    postcritical set to be off: the reduction is constant, or its walk
    was refused by a cap.
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

    return OrbitalReport(
        profile=profile,
        n_max=n_max,
        basepoints=tuple(basepoints),
        all_unramified_on_locus=all_ok if mp.pc_refusal is None and mp.pc is not None else None,
    )


class ModuliReport(NamedTuple):
    p: int
    initial_valuation: int
    best_valuation: int
    best_mobius: Mobius
    best_model: RationalMapModel
    achieved_zero: bool
    tried: int


# the exponents a of the search's conjugations z -> p^a z + b, b in range(p)
MODULI_EXPONENTS = range(-3, 4)


def moduli_search(model: RationalMapModel, p: int) -> ModuliReport:
    """Search z -> p^a z + b (and inversion composites) for a unit resultant.

    The grid is fixed: a in MODULI_EXPONENTS and b in range(p).  The
    enumeration order is too: plain affine maps over the whole grid first
    (a ascending, then b), then the affine maps composed with inversion
    on the right, then on the left, each grid by grid.  Candidates are
    integer matrices, p^a z + b scaled to (1, b p^-a, 0, p^-a) when a < 0,
    and the conjugate's canonical model is its own p-primitive model, so
    one resultant valuation rates each.  Ties keep the earlier candidate.
    The first conjugate reaching valuation 0 stops the search, and a zero
    witness is re-verified through the full reduction report before being
    returned.  Only the reported candidate is built as a Mobius map.
    achieved_zero=False is inconclusive: the family is a bounded
    heuristic, not a minimizer.
    """
    require_prime(p)
    affine = []
    for a in MODULI_EXPONENTS:
        for b in range(p):
            s, t, u = (p**a, b, 1) if a >= 0 else (1, b * p**-a, p**-a)
            affine.append((a, b, s, t, u))

    def candidates():
        # (kind, a, b, integer matrix): 0 for p^a z + b, 1 for it composed
        # with inversion on the right, 2 for inversion composed with it
        for a, b, s, t, u in affine:
            yield 0, a, b, (s, t, 0, u)
        for a, b, s, t, u in affine:
            yield 1, a, b, (t, s, u, 0)
        for a, b, s, t, u in affine:
            yield 2, a, b, (0, u, s, t)

    best_val = best = best_model = initial = None
    tried = 0
    for kind, a, b, matrix in candidates():
        conj = conjugate_by_matrix(model, *matrix)
        val = vp(p, conj.resultant())
        tried += 1
        if kind == a == b == 0:
            initial = val
        if best_val is None or val < best_val:
            best_val, best, best_model = val, (kind, a, b), conj
        if best_val == 0:
            break
    if initial is None:
        initial = vp(p, model.resultant())
    achieved = best_val == 0
    if achieved and not MapAtPrime(best_model, p).sgr.is_strict_good_reduction:
        raise InternalError("zero witness failed re-verification")
    kind, a, b = best
    s = Fraction(p) ** a
    best_m = Mobius(*[(s, b, 0, 1), (b, s, 1, 0), (0, 1, s, b)][kind])
    return ModuliReport(
        p=p,
        initial_valuation=initial,
        best_valuation=best_val,
        best_mobius=best_m,
        best_model=best_model,
        achieved_zero=achieved,
        tried=tried,
    )
