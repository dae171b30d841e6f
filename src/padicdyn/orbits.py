"""Forward orbits and orbit-level aggregation.

An orbit profile is the exact sequence x, phi(x), ..., phi^N(x) in
P^1(Q), N at most ORBIT_CAP, with cycle detection by canonical equality,
plus per-point residue data at the session's prime.  The orbital report
reads the fiber certificates and Frobenius cycle types over each distinct
orbit point from ``tower_levels`` once, as ``tower`` does for its one
basepoint; its headline flag says whether every integral point reducing
outside the postcritical set carried only UNRAMIFIED certificates.

The moduli search is a bounded heuristic over conjugations
z -> p^a z + b and their composites with inversion on either side; the
composites rate as affine maps, so only the affine ones are conjugated.  It
can certify that the minimal resultant valuation is zero by exhibiting
a witness; it never certifies a positive minimum.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, InternalError, ResourceLimitError
from .maps import Mobius, ProjPointQ, RationalMapModel, conjugate_forms, conjugate_map, eval_map
from .padics import require_prime, vp
from .reduction import MapAtPrime
from .towers import tower_levels

# the longest orbit walked, on the scale of the postcritical set's point cap
ORBIT_CAP = 100_000


class OrbitProfile(NamedTuple):
    """x_0..x_N with cycle data and the residue columns at the session's prime."""

    points: tuple
    preperiod: int | None
    period: int | None
    reductions: tuple
    integral_flags: tuple
    in_pc_flags: tuple


def forward_orbit(mp: MapAtPrime, x: ProjPointQ, N: int) -> OrbitProfile:
    """Exact orbit x_0..x_N; the first revisited point fixes (preperiod, period).

    N is at most ORBIT_CAP and every coordinate is bounded by the session's
    cap_height bits.  The residue columns are filled in at the session's
    prime; membership in the postcritical set is the session's ``in_pc``,
    None throughout when the reduction is constant or the postcritical
    walk was refused by a cap.
    """
    if N < 1:
        raise InputError("orbit length must be >= 1")
    if N > ORBIT_CAP:
        raise ResourceLimitError(f"orbit length {N} exceeds cap {ORBIT_CAP}")
    points = [x]
    seen = {x: 0}
    preperiod = period = None
    for j in range(1, N + 1):
        nxt = eval_map(mp.model, points[-1])
        if nxt.height_bits() > mp.cap_height:
            raise ResourceLimitError(f"orbit coordinate exceeded {mp.cap_height} bits at step {j}")
        points.append(nxt)
        if period is None:
            if nxt in seen:
                preperiod = seen[nxt]
                period = j - seen[nxt]
            else:
                seen[nxt] = j
    p = mp.p
    reductions = tuple(pt.reduce(p) for pt in points)
    return OrbitProfile(
        points=tuple(points),
        preperiod=preperiod,
        period=period,
        reductions=reductions,
        integral_flags=tuple(pt.is_integral(p) for pt in points),
        in_pc_flags=tuple(mp.in_pc(r) for r in reductions),
    )


class OrbitalReport(NamedTuple):
    profile: OrbitProfile
    levels: tuple
    all_unramified_on_locus: bool | None


def orbital_report(mp: MapAtPrime, x: ProjPointQ, N: int, n_max: int) -> OrbitalReport:
    """Tower data for every point along the orbit of x, built once per distinct point.

    levels[j] is ``tower_levels``' tuple for profile.points[j], and a
    revisited point shares its first visit's tuple, so a cycling orbit of
    N steps builds as many towers as it has distinct points, not N + 1.
    Non-integral points and points reducing into the postcritical set are
    still profiled, but only the rest count toward
    all_unramified_on_locus.  That flag is None when there is no
    postcritical set to be off: the reduction is constant, or its walk
    was refused by a cap.
    """
    if n_max < 1:
        raise InputError("tower depth must be >= 1")
    profile = forward_orbit(mp, x, N)
    built = {pt: tower_levels(mp, pt, n_max) for pt in dict.fromkeys(profile.points)}
    levels = tuple(built[pt] for pt in profile.points)
    all_ok = True
    for pt_levels, integral, in_pc in zip(levels, profile.integral_flags, profile.in_pc_flags):
        if integral and in_pc is False and any(r.certificate != "UNRAMIFIED" for r, _ in pt_levels):
            all_ok = False
    return OrbitalReport(
        profile=profile,
        levels=levels,
        all_unramified_on_locus=None if profile.in_pc_flags[0] is None else all_ok,
    )


class ModuliReport(NamedTuple):
    initial_valuation: int
    best_valuation: int
    best_mobius: Mobius
    best_model: RationalMapModel
    achieved_zero: bool
    tried: int


# the exponents a of the search's conjugations z -> p^a z + b, b in range(p)
MODULI_EXPONENTS = range(-3, 4)
# the most affine conjugations, 7p, a search makes at d <= 2 (p <= 18,719); at
# degree d the cap is MODULI_WIDTH_CAP * 4 // d^2 (p <= 4,681 at d = 4, 73 at d = 32),
# and each conjugation counts 1 + h // MODULI_HEIGHT_BITS for coefficients of h bits
MODULI_WIDTH_CAP = 1 << 17
MODULI_HEIGHT_BITS = 8192


def moduli_search(model: RationalMapModel, p: int) -> ModuliReport:
    """Search z -> p^a z + b (and inversion composites) for a unit resultant.

    The grid is fixed: a in MODULI_EXPONENTS and b in range(p), a
    ascending, then b.  Its 7p affine maps come first, then their
    composites with inversion on the right, then on the left: 21p
    candidates.  Only the affine ones are conjugated.  A conjugate's resultant
    valuation depends only on the vertex of the Bruhat-Tits tree that
    M^-1 sends the Gauss point to, and inversion fixes the Gauss point,
    so a composite rates as an affine map walked before it (at -a for
    inversion on the right, at a on the left): it can neither beat the
    best nor reach a zero the affine maps missed, and it only counts in
    tried.  Candidates are integer matrices M, p^a z + b scaled to
    (1, b p^-a, 0, p^-a) when a < 0, so |det M| = p^|a|.  The unscaled
    conjugate's resultant is det(M)^(d^2+d) Res(phi), and its canonical
    model divides out the content g, so v_p(Res phi) + (d^2+d)|a| -
    2d v_p(g) rates it exactly: a query costs one resultant and at most
    7p degree-d substitutions.  Ties keep the earlier candidate.  The
    first conjugate reaching valuation 0 stops the search, and a zero
    witness is re-verified through the full reduction report.  Only the
    reported candidate is built, as a Mobius map and by ``conjugate_map``
    as a model.  A grid past the width cap at degree d, each conjugation
    weighted by the coefficient height, is refused before its first.
    achieved_zero=False is inconclusive: the family is a bounded
    heuristic, not a minimizer.
    """
    require_prime(p)
    d, h = model.d, max(abs(c).bit_length() for c in model.F + model.G)
    width, weight = len(MODULI_EXPONENTS) * p, 1 + h // MODULI_HEIGHT_BITS
    if width * weight > (cap := MODULI_WIDTH_CAP * 4 // max(d, 2) ** 2):
        raise ResourceLimitError(
            f"moduli search at p={p}: {width} affine conjugations"
            + (f" of {h}-bit coefficients, each counted {weight} times," if weight > 1 else "")
            + f" exceed cap {cap}"
            + (f" at degree {d}" if d > 2 else "")
        )
    initial = vp(p, model.resultant())
    best_val = best = None
    for tried, (a, b) in enumerate(itertools.product(MODULI_EXPONENTS, range(p)), 1):
        s, u = (p**a, 1) if a >= 0 else (1, p**-a)
        F, G = conjugate_forms(model, s, b * u, 0, u)
        val = initial + (d * d + d) * abs(a) - 2 * d * vp(p, math.gcd(*F, *G))
        if best_val is None or val < best_val:
            best_val, best = val, (a, b)
        if best_val == 0:
            break
    else:
        tried *= 3  # the 14p inversion composites: counted, not built
    a, b = best
    best_mobius = Mobius(Fraction(p) ** a, b, 0, 1)
    best_model = conjugate_map(model, best_mobius)
    achieved = best_val == 0
    if achieved and not MapAtPrime(best_model, p).sgr.is_strict_good_reduction:
        raise InternalError("zero witness failed re-verification")
    return ModuliReport(
        initial_valuation=initial,
        best_valuation=best_val,
        best_mobius=best_mobius,
        best_model=best_model,
        achieved_zero=achieved,
        tried=tried,
    )
