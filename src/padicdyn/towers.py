"""Preimage towers over a basepoint.

The level-n fiber of phi over x = [a : b] is cut out by the form
b*P_n - a*Q_n built from the p-primitive model of the n-th iterate; the
form is itself rescaled p-primitively, so "unit leading coefficient and
unit discriminant" of its dehomogenization is a well-posed certificate.
A passing certificate (UNRAMIFIED) proves the splitting field of the
fiber is unramified over Q_p; a failing one is inconclusive, never a
ramification claim, and carries the Newton polygon as a diagnostic.

Reduced preimage trees live in a single splitting field F_{p^m}, with
parent edges given by the reduced map and the p-power Frobenius acting
on every level.  The F_p factor degrees of the level fibers, read off
distinct-degree factorization with no factor split off, fix m as their
lcm; the tree is then climbed one level at a time.  For one point y = [a : b] of
each Frobenius orbit of level n - 1, the degree-d form b*F1 - a*G1 is
split into its roots over F_{p^m} (infinity when its affine degree
drops), and the preimages of y's conjugates are the Frobenius images of
y's.  So no level polynomial is ever factored over F_{p^m}, and every
point is born with its parent.  ``fq_extension`` hands out a cached
F_{p^m}, with log tables up to 2^12 elements.  At odd p a quadratic
form is solved by one square root of its discriminant, a halved log in
a table field; p = 2 and degree 3 and up run Cantor-Zassenhaus.

Every function here takes a ``MapAtPrime`` session and reads its
iterates, fiber forms and factor degrees from it, so the certificate,
the Frobenius cycle type and the preimage tree of one level share one
iterate and, whenever they read the same polynomial over F_p, one
distinct-degree factorization.  Separability of a reduced fiber is read
from the same factorization: the session's fiber pattern lists the
(degree, multiplicity) of each closed point, infinity included, and the
fiber is separable exactly when every multiplicity is 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, InternalError, ResourceLimitError
from .finitefield import fiber_form, form_dehomogenize, fq_extension, split_roots
from .maps import ProjPointQ, eval_map
from .padics import INFINITY, vp
from .qpolys import QPoly, discriminant
from .reduction import MapAtPrime

M_CAP = 24

UNRAMIFIED = "UNRAMIFIED"
NO_CERTIFICATE = "NO_CERTIFICATE"


class FiberPolynomial(NamedTuple):
    """The p-primitively scaled level-n fiber form over x and its affine part."""

    n: int
    x: ProjPointQ
    p: int
    form: tuple
    poly: QPoly
    formal_degree: int
    inf_multiplicity: int
    integral: bool


def fiber_polynomial(mp: MapAtPrime, n: int, x: ProjPointQ) -> FiberPolynomial:
    if n < 1:
        raise InputError("fiber level must be >= 1")
    p = mp.p
    raw = mp.fiber_form(n, x)
    minv = min(vp(p, c) for c in raw if c != 0)
    scale = p**minv
    form = tuple(c // scale for c in raw)
    poly = QPoly(form)
    formal = mp.d**n
    return FiberPolynomial(
        n=n,
        x=x,
        p=p,
        form=form,
        poly=poly,
        formal_degree=formal,
        inf_multiplicity=formal - poly.degree,
        integral=x.is_integral(p),
    )


def newton_polygon(f: QPoly, p: int) -> tuple:
    """Lower convex hull of (i, vp(c_i)): a tuple of (slope, length) pairs.

    Slopes are strictly increasing Fractions; the lengths sum to
    deg f minus the order of vanishing at 0.
    """
    if f.degree < 1:
        raise InputError("Newton polygon needs degree >= 1")
    pts = [(i, vp(p, c)) for i, c in enumerate(f.coeffs) if c != 0]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return tuple(out)


class FiberReport(NamedTuple):
    n: int
    x: ProjPointQ
    p: int
    lc: int
    lc_valuation: int
    disc: int | None
    disc_valuation: int | float
    degree_full: bool
    certificate: str
    reduced_factor_degrees: tuple | None
    newton: tuple | None
    integral: bool


def fiber_report(mp: MapAtPrime, n: int, x: ProjPointQ) -> FiberReport:
    """Unit-lc/unit-disc certificate for the level-n fiber over x.

    UNRAMIFIED exactly when both valuations vanish; anything else is
    NO_CERTIFICATE (the unit-discriminant test is sufficient, not
    necessary, so no negative claim is ever reported).
    """
    fiber = fiber_polynomial(mp, n, x)
    p = mp.p
    poly = fiber.poly
    lc = poly.coeffs[-1]  # b*F_n - a*G_n is not 0, as F_n and G_n are coprime
    lc_val = vp(p, lc)
    if poly.degree < 1:
        # every preimage is the point at infinity; no affine data to certify
        return FiberReport(
            n=fiber.n,
            x=fiber.x,
            p=p,
            lc=lc,
            lc_valuation=lc_val,
            disc=None,
            disc_valuation=INFINITY,
            degree_full=False,
            certificate=NO_CERTIFICATE,
            reduced_factor_degrees=None,
            newton=None,
            integral=fiber.integral,
        )
    disc = discriminant(poly)
    disc_val = vp(p, disc)
    unramified = lc_val == 0 and disc_val == 0
    factor_degrees = None
    newton = None
    if unramified:
        degs = mp.factor_degrees([c % p for c in poly.coeffs])
        if any(mult != 1 for _, mult in degs):
            raise InternalError("unit discriminant forces a squarefree reduction")
        factor_degrees = tuple(e for e, _ in degs)
    else:
        newton = newton_polygon(poly, p)
    return FiberReport(
        n=fiber.n,
        x=fiber.x,
        p=p,
        lc=lc,
        lc_valuation=lc_val,
        disc=disc,
        disc_valuation=disc_val,
        degree_full=poly.degree == fiber.formal_degree,
        certificate=UNRAMIFIED if unramified else NO_CERTIFICATE,
        reduced_factor_degrees=factor_degrees,
        newton=newton,
        integral=fiber.integral,
    )


def frobenius_cycle_type(mp: MapAtPrime, n: int, xbar: int | None) -> tuple:
    """Cycle type of Frobenius on the level-n reduced fiber over xbar.

    Equals the sorted multiset of irreducible-factor degrees of the affine
    fiber polynomial over F_p, plus a 1-cycle for infinity when infinity
    is a (simple) fiber point; the entries sum to d^n.  All of it is read
    off the session's fiber pattern, which also decides separability.
    """
    if n < 1:
        raise InputError("fiber level must be >= 1")
    if mp.d**n > mp.cap_degree:
        raise ResourceLimitError(f"fiber degree {mp.d}^{n} exceeds cap {mp.cap_degree}")
    rmap = mp.rmap
    if rmap.reduced_degree < mp.d:
        raise InputError(
            f"reduction has degree {rmap.reduced_degree} < {mp.d}; "
            "every reduced fiber is degree-deficient"
        )
    pattern = mp.fiber_pattern(n, xbar)
    if any(mult != 1 for _, mult in pattern):
        raise InputError(
            f"reduced fiber over {render_residue(xbar)} at level {n} is not "
            "separable; the point lies in the reduced postcritical set "
            "(or maps into it)"
        )
    out = tuple(e for e, _ in pattern)
    if sum(out) != mp.d**n:
        raise InternalError(f"level-{n} cycle type {out} does not sum to {mp.d}^{n}")
    return out


def render_residue(xbar: int | None) -> str:
    return "inf" if xbar is None else str(xbar)


class PreimageTree(NamedTuple):
    """Levels 0..N of reduced preimages in one field F_{p^m}.

    levels[n] lists the fiber points of the n-th reduced iterate (None is
    infinity), parents[n][i] indexes levels[n-1], and frob[n][i] indexes
    levels[n] (the p-power Frobenius permutation).
    """

    p: int
    m: int
    xbar: int | None
    levels: tuple
    parents: tuple
    frob: tuple

    @property
    def level_sizes(self) -> tuple:
        return tuple(len(level) for level in self.levels)

    def cycle_type(self, n: int) -> tuple:
        """Cycle lengths of the Frobenius permutation on level n, sorted."""
        perm = self.frob[n]
        seen = [False] * len(perm)
        out = []
        for i in range(len(perm)):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            out.append(length)
        return tuple(sorted(out))


def _point_sort_key(pt):
    return (1, 0) if pt is None else (0, pt)


def preimage_tree(
    mp: MapAtPrime,
    N: int,
    xbar: int | None,
    *,
    m_cap: int = M_CAP,
) -> PreimageTree:
    if N < 1:
        raise InputError("tree depth must be >= 1")
    if mp.d**N > mp.cap_degree:
        raise ResourceLimitError(f"fiber degree {mp.d}^{N} exceeds cap {mp.cap_degree}")
    p, rmap = mp.p, mp.rmap
    if rmap.reduced_degree < 1:
        raise InputError("reduced map is constant; no preimage tree")
    xbar = None if xbar is None else xbar % p

    degrees = set()
    for n in range(1, N + 1):
        pattern = mp.fiber_pattern(n, xbar)
        if any(mult != 1 for _, mult in pattern):
            raise InputError(
                f"separability failure at level {n} over {render_residue(xbar)}: "
                "the basepoint meets the reduced postcritical set"
            )
        degrees.update(e for e, _ in pattern)

    m = 1
    for deg in degrees:
        m = math.lcm(m, deg)
    if m > m_cap:
        raise ResourceLimitError(
            f"splitting the tree needs F_{p}^{m}, above the extension cap {m_cap}"
        )
    ext = fq_extension(p, m, cap=mp.cap_field)

    e = rmap.reduced_degree
    levels, parents, frob = [(xbar,)], [()], [_frobenius_row(ext, (xbar,))]
    for n in range(1, N + 1):
        parent_of = _climb(ext, rmap, levels[-1], frob[-1])
        level = tuple(sorted(parent_of, key=_point_sort_key))
        if len(level) != e**n:
            raise InternalError(
                f"level {n} of the preimage tree over {render_residue(xbar)} has "
                f"{len(level)} points, not {e}^{n}"
            )
        levels.append(level)
        parents.append(tuple(parent_of[pt] for pt in level))
        frob.append(_frobenius_row(ext, level))

    return PreimageTree(
        p=p,
        m=m,
        xbar=xbar,
        levels=tuple(levels),
        parents=tuple(parents),
        frob=tuple(frob),
    )


def _climb(ext, rmap, level: tuple, frob_row: tuple) -> dict:
    """Map each reduced preimage of a point of level to that point's index.

    Splits b*F1 - a*G1 for one y = [a : b] per Frobenius orbit; the reduced
    map has F_p coefficients, so sigma^k carries y's preimages to sigma^k(y)'s.
    """
    parent_of = {}
    done = [False] * len(level)
    for i, y in enumerate(level):
        if done[i]:
            continue
        a, b = (1, 0) if y is None else (y, 1)
        poly, inf_mult = form_dehomogenize(fiber_form(ext, rmap.F1, rmap.G1, a, b))
        kids = split_roots(ext, poly)
        if inf_mult:
            kids.append(None)
        j = i
        while not done[j]:
            done[j] = True
            for z in kids:
                parent_of[z] = j
            kids = [None if z is None else ext.frobenius(z) for z in kids]
            j = frob_row[j]
    return parent_of


def _frobenius_row(ext, level: tuple) -> tuple:
    """Index in level of the p-power Frobenius image of each of its points."""
    idx = {pt: i for i, pt in enumerate(level)}
    row = []
    for pt in level:
        img = None if pt is None else ext.frobenius(pt)
        if img not in idx:
            raise InternalError("a level of the preimage tree is not Frobenius-stable")
        row.append(idx[img])
    return tuple(row)


def shift_divisibility_check(mp: MapAtPrime, n: int, x: ProjPointQ) -> bool:
    """Does the level-n fiber over x embed into the level-(n+1) fiber over phi(x)?

    True iff F_{n,x} divides F_{n+1,phi(x)} up to scalars, checked by a
    primitive gcd over Z.  It always answers True: a z with phi^n(z) = x
    has phi^(n+1)(z) = phi(x), and the level-n fiber is checked separable
    first.  Nothing in the package calls it; it stays only because the
    benchmark's span list wraps it by name, and goes when that list does.
    """
    if n < 1:
        raise InputError("fiber level must be >= 1")
    if x.is_infinity:
        raise InputError("shift check needs an affine basepoint")
    y = eval_map(mp.model, x)
    if y.is_infinity:
        raise InputError("phi(x) is the point at infinity; no affine shift target")
    f = QPoly(mp.fiber_form(n, x))
    if f.degree >= 1 and f.gcd(QPoly([i * c for i, c in enumerate(f.coeffs)][1:])).degree > 0:
        raise InputError(f"level-{n} fiber over {x} is inseparable")
    g = QPoly(mp.fiber_form(n + 1, y))
    return f.gcd(g).degree == f.degree
