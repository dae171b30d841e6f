"""Preimage towers over a basepoint.

The level-n fiber of phi over x = [a : b] is cut out by the form
b*P_n - a*Q_n built from the p-primitive model of the n-th iterate; the
form is itself rescaled p-primitively, and ``fiber_polynomial`` returns
its dehomogenization as a QPoly (the form has degree d^n, so infinity is
a fiber point d^n - deg times), on which "unit leading coefficient and
unit discriminant" is a well-posed certificate.
A passing certificate (UNRAMIFIED) proves the splitting field of the
fiber is unramified over Q_p; a failing one is inconclusive, never a
ramification claim, and carries the Newton polygon as a diagnostic.
For a polynomial map phi = F/g of degree d >= 2 at a finite x, the fiber
polynomial P of degree N = d^n has (Aitken, Hajir and Maire, IMRN 2005)

    Disc(P) = (-1)^(N(N-1)/2) lc(P)^(2N-2) d^(nN) (g/lc(F))^((N-1)^2/(d-1))
              * prod_{m=1..n} prod_{F'(gamma)=0} (phi^m(gamma) - x)^(d^(n-m)),

read in integers off the session's critical orbit; other maps and
x = infinity run the subresultant chain of ``qpolys.discriminant``.

Reduced preimage trees live in a single splitting field F_{p^m}, with
parent edges given by the reduced map and the p-power Frobenius acting
on every level.  The F_p factor degrees of the level fibers, read off
distinct-degree factorization with no factor split off, fix m as their
lcm; the tree is then climbed one level at a time.  For one point y = [a : b] of
each Frobenius orbit of level n - 1, the degree-d form b*F1 - a*G1 is
split into its roots over F_{p^m} (infinity when its affine degree
drops), and the preimages of y's conjugates are the Frobenius images of
y's.  So no level polynomial is ever factored over F_{p^m}, and every
point is born with its parent and its Frobenius image, which give the
level's Frobenius permutation.  F_{p^m} is ``fq_extension``'s, built by
``residue_field``, with log tables up to 2^12 elements; the session's
cap_field bounds its size, and so m.  At odd p a
quadratic form is solved by one square root of its discriminant, a
halved log in a table field; p = 2 and degree 3 and up run Cantor-Zassenhaus.

Every function here takes a ``MapAtPrime`` session and reads its
iterates, critical orbit, factor degrees and caps from it, so the
certificate, the Frobenius cycle type and the preimage tree of one level
share one iterate and, whenever they read the same polynomial over F_p,
one distinct-degree factorization; a fiber form is combined afresh from
the kept iterate on each call.  Separability of a reduced fiber is read
from the same factorization: the session's fiber pattern lists the
(degree, multiplicity) of each closed point, infinity included, and the
fiber is separable exactly when every multiplicity is 1; where it is not,
or the reduction has degree below d, the cycle type is None.
``tower_levels`` pairs the report and cycle type of every level over one
basepoint: the ``tower`` command reads it for its basepoint, and
``orbital_report`` once for each distinct point of the orbit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, InternalError
from .finitefield import fiber_form, form_dehomogenize, fq_extension, split_roots
from .maps import ProjPointQ, eval_map
from .padics import INFINITY, vp
from .qpolys import QPoly, _add, _integer_resultant, discriminant
from .reduction import MapAtPrime

UNRAMIFIED = "UNRAMIFIED"
NO_CERTIFICATE = "NO_CERTIFICATE"


def fiber_polynomial(mp: MapAtPrime, n: int, x: ProjPointQ) -> QPoly:
    """The affine part of the p-primitively scaled level-n fiber form over x;
    mp.d**n minus its degree is the multiplicity of infinity in the fiber."""
    if n < 1:
        raise InputError("fiber level must be >= 1")
    raw = mp.fiber_form(n, x)
    scale = mp.p ** vp(mp.p, math.gcd(*raw))
    return QPoly(tuple(c // scale for c in raw))


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

    A polynomial map of degree d >= 2 at x = a/b takes the module
    docstring's product, each V_m = prod (phi^m(gamma) - x) = Res(M, b*A_m
    - a*e_m) / (b*e_m)^(d-1) read off ``critical_orbit``, with one exact
    division at the end; the chain rule's sign (-1)^(nN(d-1)) is 1, as
    N(d-1) is even.  Other maps and x = infinity run ``qpolys.discriminant``.
    """
    poly = fiber_polynomial(mp, n, x)
    p = mp.p
    lc = poly.coeffs[-1]  # b*F_n - a*G_n is not 0, as F_n and G_n are coprime
    lc_val = vp(p, lc)
    # a constant affine part (every preimage at infinity) has nothing to certify
    disc, disc_val, unramified = None, INFINITY, False
    factor_degrees = newton = None
    if poly.degree >= 1:
        disc = _fiber_discriminant(mp, n, x, poly)
        disc_val = vp(p, disc)
        unramified = lc_val == 0 and disc_val == 0
        if unramified:
            degs = mp.factor_degrees([c % p for c in poly.coeffs])
            if any(mult != 1 for _, mult in degs):
                raise InternalError("unit discriminant forces a squarefree reduction")
            factor_degrees = tuple(e for e, _ in degs)
        else:
            newton = newton_polygon(poly, p)
    return FiberReport(
        n=n,
        x=x,
        lc=lc,
        lc_valuation=lc_val,
        disc=disc,
        disc_valuation=disc_val,
        degree_full=poly.degree == mp.d**n,
        certificate=UNRAMIFIED if unramified else NO_CERTIFICATE,
        reduced_factor_degrees=factor_degrees,
        newton=newton,
        integral=x.is_integral(p),
    )


def _fiber_discriminant(mp: MapAtPrime, n: int, x: ProjPointQ, poly: QPoly) -> int:
    """Disc(poly) of the level-n fiber over x, by one of the two paths of ``fiber_report``."""
    if (orbit := mp.critical_orbit(n)) is None:  # x is finite: over inf P is a constant
        return discriminant(poly)
    (monic, values), d, N, lc = orbit, mp.d, mp.d**n, poly.coeffs[-1]
    h = math.gcd(lc * lc, x.b)  # c^(2N-2) / b^(N-1) = (c^2/h)^(N-1) / (b/h)^(N-1)
    num = (-1) ** (N * (N - 1) // 2) * (lc * lc // h) ** (N - 1)
    for m, (A, e) in enumerate(values, 1):
        H = _add([x.b * c for c in A], (-x.a * e,))
        num *= (_integer_resultant(monic, H) if H else 0) ** d ** (n - m)  # H = 0: V_m = 0
    g, lead, S = mp.model.G[0], mp.model.F[-1], (N - 1) // (d - 1)
    t = math.gcd(g, lead)  # g^(N(S-n)) / l^((N-1)S + n(d-1)N), summed by exponent over t
    num *= (g // t) ** (N * (S - n))
    den = t ** (n * d * N - S) * (lead // t) ** ((N - 1) * S + n * (d - 1) * N)
    disc, rem = divmod(num, den * d ** (n * N * (d - 2)) * (x.b // h) ** (N - 1))
    if rem:
        raise InternalError(f"level-{n} fiber discriminant over {x} leaves a remainder")
    return disc


def frobenius_cycle_type(mp: MapAtPrime, n: int, xbar: int | None) -> tuple | None:
    """Cycle type of Frobenius on the level-n reduced fiber over xbar.

    Equals the sorted multiset of irreducible-factor degrees of the affine
    fiber polynomial over F_p, plus a 1-cycle for infinity when infinity
    is a (simple) fiber point; the entries sum to d^n.  All of it is read
    off the session's fiber pattern, which also decides separability.
    None when there is no cycle type: the reduction has degree below d, so
    every reduced fiber is degree-deficient, or the reduced fiber is not
    separable (xbar lies in the reduced postcritical set or maps into it).
    """
    if n < 1:
        raise InputError("fiber level must be >= 1")
    if mp.rmap.reduced_degree < mp.d:
        return None
    pattern = mp.fiber_pattern(n, xbar)
    if any(mult != 1 for _, mult in pattern):
        return None
    out = tuple(e for e, _ in pattern)
    if sum(out) != mp.d**n:
        raise InternalError(f"level-{n} cycle type {out} does not sum to {mp.d}^{n}")
    return out


def tower_levels(mp: MapAtPrime, x: ProjPointQ, n_max: int) -> tuple:
    """(fiber report, Frobenius cycle type or None) of each level 1..n_max
    over x, the depth checked against the session's caps before any is built."""
    mp.check_depth(n_max)
    xbar = x.reduce(mp.p)
    return tuple(
        (fiber_report(mp, n, x), frobenius_cycle_type(mp, n, xbar)) for n in range(1, n_max + 1)
    )


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


def preimage_tree(mp: MapAtPrime, N: int, xbar: int | None) -> PreimageTree:
    if N < 1:
        raise InputError("tree depth must be >= 1")
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
    ext = fq_extension(p, m, cap=mp.cap_field)

    e = rmap.reduced_degree
    levels, parents, frob = [(xbar,)], [()], [(0,)]  # Frobenius fixes xbar
    for n in range(1, N + 1):
        climbed = _climb(ext, rmap, levels[-1], frob[-1])
        level = tuple(sorted(climbed, key=_point_sort_key))
        if len(level) != e**n:
            raise InternalError(
                f"level {n} of the preimage tree over {render_residue(xbar)} has "
                f"{len(level)} points, not {e}^{n}"
            )
        idx = {pt: i for i, pt in enumerate(level)}
        levels.append(level)
        parents.append(tuple(climbed[pt][0] for pt in level))
        frob.append(tuple(idx[climbed[pt][1]] for pt in level))

    return PreimageTree(
        p=p,
        m=m,
        levels=tuple(levels),
        parents=tuple(parents),
        frob=tuple(frob),
    )


def _climb(ext, rmap, level: tuple, frob_row: tuple) -> dict:
    """Map each reduced preimage z of a point of level to (its index, sigma(z)).

    Splits b*F1 - a*G1 for one y = [a : b] per Frobenius orbit; the reduced
    map has F_p coefficients, so sigma^k carries y's preimages to sigma^k(y)'s,
    and sigma^L, L the orbit's length, must give back y's own.
    """
    climbed = {}
    done = [False] * len(level)
    for i, y in enumerate(level):
        if done[i]:
            continue
        a, b = (1, 0) if y is None else (y, 1)
        poly, inf_mult = form_dehomogenize(fiber_form(ext, rmap.F1, rmap.G1, a, b))
        kids = split_roots(ext, poly)
        if inf_mult:
            kids.append(None)
        first, j = set(kids), i
        while not done[j]:
            done[j] = True
            images = [None if z is None else ext.frobenius(z) for z in kids]
            for z, img in zip(kids, images):
                climbed[z] = (j, img)
            kids, j = images, frob_row[j]
        if set(kids) != first:
            raise InternalError("a level of the preimage tree is not Frobenius-stable")
    return climbed


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
