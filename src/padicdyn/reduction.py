"""Reduction-type analysis of a rational map at a prime.

Everything here is about one object, the reduced map of phi at p, and a
``MapAtPrime`` session holds it for one (map, p) pair.  The session
proves p prime once and derives each artifact on first use and only
once: the p-primitive integral model, the reduced map, the strict good
reduction report, the critical divisor and the postcritical set, the
iterates over Q and over F_p (extended one composition at a time), the
fiber forms keyed by (n, x), and the factor degrees of polynomials over
F_p keyed by their monic coefficients (read off squarefree and
distinct-degree factorization; only the PC set, which needs the factors
themselves, runs Cantor-Zassenhaus).  The analysis functions take a
session, so the reduction, the PC set and the towers of one query share
all of it; the memo lives on the session and is dropped with it.

On top of the session this module decides strict good reduction (unit
resultant of the p-primitive model, equivalently full reduced degree),
accumulates the postcritical set as closed points of P^1 over F_p,
lists the residual good locus, and checks the fiber criterion point by
point with an internal alarm that cross-checks it against the resultant
criterion.

Closed points are Galois orbits over the algebraic closure: a monic
irreducible polynomial over F_p, or the point at infinity.  Forward
images are computed by evaluating the reduced map on one root inside
F_p[t]/(m) and taking the minimal polynomial of the image over F_p via
its Frobenius orbit; a closed point therefore always pushes forward to
exactly one closed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, InternalError, ResourceLimitError
from .finitefield import (
    FqField,
    FqPoly,
    distinct_degree,
    fiber_form,
    form_compose_pair,
    form_from_poly,
    form_is_squarefree,
    form_is_zero,
    fq_factor,
    squarefree_decomposition,
)
from .maps import (
    DEGREE_CAP,
    IntegralModel,
    ProjPointQ,
    RationalMapModel,
    ReducedMap,
    compose_map,
    eval_reduced,
    normalize_integral,
    reduce_map,
)
from .padics import require_prime, vp
from .qpolys import poly_str

PC_CAP = 100_000


class MapAtPrime:
    """One rational map at one prime, with everything derived from it once.

    Properties are computed on first access and kept; iterates grow one
    composition at a time; fiber forms and factor degrees are kept by
    key.  cap_degree bounds the degree d^n of every iterate asked for.
    """

    def __init__(self, model: RationalMapModel, p: int, *, cap_degree: int = DEGREE_CAP):
        require_prime(p)
        self.model = model
        self.p = p
        self.cap_degree = cap_degree
        self._iterates = [model]
        self._fiber_forms = {}
        self._reduced_fibers = {}
        self._factor_degrees = {}

    @property
    def d(self) -> int:
        return self.model.d

    @cached_property
    def integral(self) -> IntegralModel:
        return normalize_integral(self.model, self.p)

    @cached_property
    def rmap(self) -> ReducedMap:
        return reduce_map(self.integral)

    @cached_property
    def sgr(self) -> SGRReport:
        return strict_good_reduction(self)

    @cached_property
    def critical(self) -> tuple:
        """The critical divisor form of the reduced map (nonconstant reduction)."""
        return critical_divisor(self.rmap)

    @cached_property
    def pc(self) -> PostcriticalSet | None:
        """The postcritical set, or None when the reduction is constant."""
        if self.rmap.reduced_degree < 1:
            return None
        return postcritical_set(self)

    def iterate(self, n: int) -> RationalMapModel:
        """The canonical integer model of phi^n, extended as phi o phi^(n-1)."""
        if self.d**n > self.cap_degree:
            raise ResourceLimitError(
                f"iterate degree {self.d}^{n} exceeds cap {self.cap_degree}"
            )
        while len(self._iterates) < n:
            self._iterates.append(compose_map(self.model, self._iterates[-1]))
        return self._iterates[n - 1]

    @cached_property
    def _reduced_iterates(self) -> list:
        return [(self.rmap.F1, self.rmap.G1)]

    def reduced_iterate(self, n: int) -> tuple:
        """Forms (F_n, G_n) over F_p of the n-th iterate of the reduced map."""
        field, F1, G1 = self.rmap.field, self.rmap.F1, self.rmap.G1
        its = self._reduced_iterates
        while len(its) < n:
            pair = its[-1]
            its.append((form_compose_pair(field, F1, pair), form_compose_pair(field, G1, pair)))
        return its[n - 1]

    def fiber_form(self, n: int, x: ProjPointQ) -> tuple:
        """Integer form b*P_n - a*Q_n of the canonical phi^n over x = [a : b]."""
        key = (n, x)
        if key not in self._fiber_forms:
            it = self.iterate(n)
            raw = tuple(x.b * f - x.a * g for f, g in zip(it.F, it.G))
            if all(c == 0 for c in raw):
                raise InputError("fiber form vanishes identically; the map is degenerate")
            self._fiber_forms[key] = raw
        return self._fiber_forms[key]

    def reduced_fiber(self, n: int, xbar: int | None) -> tuple:
        """Form over F_p cutting out the fiber of the reduced phi^n over xbar."""
        key = (n, None if xbar is None else xbar % self.p)
        if key not in self._reduced_fibers:
            a, b = (1, 0) if key[1] is None else (key[1], 1)
            Fn, Gn = self.reduced_iterate(n)
            self._reduced_fibers[key] = fiber_form(self.rmap.field, Fn, Gn, a, b)
        return self._reduced_fibers[key]

    def factor_degrees(self, poly: FqPoly) -> tuple:
        """Sorted (degree, multiplicity) of each irreducible factor of poly.

        Squarefree decomposition, then distinct-degree splitting: a part of
        degree k made of degree-e irreducibles holds k/e of them, so no
        factor is ever split off.  Computed once per field and monic
        coefficient tuple.
        """
        monic = poly.monic()
        key = (monic.field, monic.coeffs)
        if key not in self._factor_degrees:
            out = []
            for part, mult in squarefree_decomposition(monic):
                for prod, e in distinct_degree(part):
                    out.extend([(e, mult)] * (prod.degree // e))
            self._factor_degrees[key] = tuple(sorted(out))
        return self._factor_degrees[key]


@dataclass(frozen=True)
class ClosedPoint:
    """A closed point of P^1 over F_p: monic irreducible poly, or infinity."""

    p: int
    poly: tuple | None

    def __post_init__(self):
        if self.poly is not None:
            if len(self.poly) < 2 or self.poly[-1] != 1:
                raise InputError("closed point needs a monic polynomial of degree >= 1")

    @classmethod
    def infinity(cls, p: int) -> "ClosedPoint":
        return cls(p, None)

    @classmethod
    def of_residue(cls, p: int, xbar: int | None) -> "ClosedPoint":
        """The closed point of a rational point of P^1(F_p)."""
        if xbar is None:
            return cls(p, None)
        return cls(p, ((-xbar) % p, 1))

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else len(self.poly) - 1

    def sort_key(self):
        if self.poly is None:
            return (1, 0, ())
        return (0, self.degree, self.poly)

    def render(self) -> str:
        return "inf" if self.poly is None else poly_str(self.poly)

    def __repr__(self):
        return f"ClosedPoint({self.render()} over F_{self.p})"


def closed_points_of_form(field: FqField, coeffs) -> list:
    """Closed points cut out by a nonzero binary form, with multiplicities.

    Infinity appears with multiplicity (formal degree - affine degree);
    a nonzero constant form cuts out nothing.
    """
    if form_is_zero(coeffs):
        raise InputError("the zero form does not cut out a point set")
    p = field.p
    poly = FqPoly(field, coeffs)
    inf_mult = (len(coeffs) - 1) - poly.degree
    out = []
    if poly.degree >= 1:
        for fac, mult in fq_factor(poly):
            out.append((ClosedPoint(p, tuple(fac.coeffs)), mult))
    if inf_mult > 0:
        out.append((ClosedPoint.infinity(p), inf_mult))
    out.sort(key=lambda t: t[0].sort_key())
    return out


def critical_divisor(rmap: ReducedMap):
    """Ramification form of the reduced coprime pair [f : g].

    The derivative numerator f'g - fg' of the dehomogenized pair, read as
    a form of formal degree 2*deg-2, so that the multiplicity of infinity
    makes up the Riemann-Hurwitz total.  It vanishes identically exactly
    when the reduced map is inseparable, and is a nonzero constant for
    degree 1 (no critical points).  By Euler's identity the Wronskian
    F_X G_Y - F_Y G_X equals deg times this form, so the Wronskian agrees
    with it up to a unit when p does not divide the degree and collapses
    when it does.
    """
    if rmap.reduced_degree < 1:
        raise InputError("reduced map is constant; critical divisor undefined")
    field = rmap.field
    f, g = FqPoly(field, rmap.F1), FqPoly(field, rmap.G1)
    w = f.derivative() * g - f * g.derivative()
    return form_from_poly(field, w, 2 * rmap.reduced_degree - 2)


def pushforward(point: ClosedPoint, rmap: ReducedMap) -> frozenset:
    """Forward image of a closed point under the reduced map.

    A Galois orbit maps onto a Galois orbit, so the image is a single
    closed point (returned as a one-element set for union-accumulation).
    """
    p = rmap.p
    k = point.degree
    if k == 1:
        c = None if point.is_infinity else (-point.poly[0]) % p
        image = eval_reduced(rmap.field, rmap.F1, rmap.G1, c)
        return frozenset({ClosedPoint.of_residue(p, image)})
    ext = FqField(p, k, point.poly)
    alpha = p  # encoding of the residue class of t, a root of point.poly
    beta = eval_reduced(ext, rmap.F1, rmap.G1, alpha)
    if beta is None:
        return frozenset({ClosedPoint.infinity(p)})
    orbit = [beta]
    g = ext.frobenius(beta)
    while g != beta:
        orbit.append(g)
        g = ext.frobenius(g)
    minpoly = FqPoly(ext, (1,))
    for root in orbit:
        minpoly = minpoly * FqPoly(ext, (ext.neg(root), 1))
    coeffs = tuple(int(c) for c in minpoly.coeffs)
    if any(c >= p for c in coeffs):
        raise InternalError("orbit product must have F_p coefficients")
    return frozenset({ClosedPoint(p, coeffs)})


@dataclass(frozen=True)
class PostcriticalSet:
    """PC of the reduced map: all forward images (m >= 1) of critical points."""

    p: int
    points: frozenset
    everything: bool
    stable_depth: int
    crit: frozenset

    def contains_residue(self, xbar: int | None) -> bool:
        if self.everything:
            return True
        return ClosedPoint.of_residue(self.p, xbar) in self.points

    def sorted_points(self) -> list:
        return sorted(self.points, key=lambda q: q.sort_key())


def postcritical_set(mp: MapAtPrime, *, cap: int = PC_CAP) -> PostcriticalSet:
    """Union of forward images of the critical divisor until stabilization.

    Critical points themselves belong to the set only when some forward
    image hits them.  Pushforward never increases the degree of the field
    of definition, so only finitely many closed points can ever appear.
    """
    rmap, crit = mp.rmap, mp.critical
    if form_is_zero(crit):
        return PostcriticalSet(
            p=rmap.p,
            points=frozenset(),
            everything=True,
            stable_depth=0,
            crit=frozenset(),
        )
    critpts = frozenset(pt for pt, _ in closed_points_of_form(rmap.field, crit))
    pc: set = set()
    frontier = critpts
    depth = 0
    while frontier:
        images: set = set()
        for q in frontier:
            images |= pushforward(q, rmap)
        new = images - pc
        if not new:
            break
        depth += 1
        pc |= new
        if len(pc) > cap:
            raise ResourceLimitError(f"postcritical set exceeded cap {cap}")
        frontier = new
    return PostcriticalSet(
        p=rmap.p,
        points=frozenset(pc),
        everything=False,
        stable_depth=depth,
        crit=critpts,
    )


def good_locus(rmap: ReducedMap, pc: PostcriticalSet) -> tuple:
    """Rational points of P^1(F_p) off the postcritical set (None = infinity)."""
    if pc.everything:
        return ()
    out = [c for c in range(rmap.p) if not pc.contains_residue(c)]
    if not pc.contains_residue(None):
        out.append(None)
    return tuple(out)


@dataclass(frozen=True)
class SGRReport:
    p: int
    d: int
    resultant: int
    res_valuation: int
    reduced_degree: int
    is_strict_good_reduction: bool
    inseparable_reduction: bool


def strict_good_reduction(mp: MapAtPrime) -> SGRReport:
    """Decide strict good reduction by the resultant of the p-primitive model.

    The p-primitive model is unique up to a p-unit scalar, and scaling the
    pair by lambda multiplies the resultant by lambda^(2d), so the
    valuation computed here is an invariant of the map.
    """
    p, rmap = mp.p, mp.rmap
    res = mp.integral.resultant()
    val = vp(p, res)
    sgr = val == 0
    if sgr != (rmap.reduced_degree == mp.d):
        raise InternalError("resultant valuation and reduced degree disagree")
    insep = rmap.reduced_degree >= 1 and form_is_zero(mp.critical)
    return SGRReport(
        p=p,
        d=mp.d,
        resultant=res,
        res_valuation=val,
        reduced_degree=rmap.reduced_degree,
        is_strict_good_reduction=sgr,
        inseparable_reduction=insep,
    )


@dataclass(frozen=True)
class Condition2Report:
    """Point-by-point fiber criterion on the residual good locus.

    A residue point passes when the level-1 fiber of the reduced map over
    it consists of d distinct points of P^1 (fiber form squarefree of full
    formal degree d).  `holds` is the geometric statement: full reduced
    degree, separable reduction, and no rational violations; an empty
    rational locus is vacuous, since the criterion concerns a Zariski-open
    set over the algebraic closure and rational points may all be missing.
    """

    holds: bool
    witnesses: tuple
    violations: tuple
    locus: tuple
    separable: bool
    reduced_degree_full: bool
    sgr: SGRReport
    pc: PostcriticalSet | None


def condition2_check(mp: MapAtPrime) -> Condition2Report:
    sgr, rmap = mp.sgr, mp.rmap
    full = rmap.reduced_degree == mp.d

    if rmap.reduced_degree < 1:
        report = Condition2Report(
            holds=False,
            witnesses=(),
            violations=(),
            locus=(),
            separable=False,
            reduced_degree_full=full,
            sgr=sgr,
            pc=None,
        )
        _consistency_alarm(report, mp)
        return report

    pc = mp.pc
    locus = good_locus(rmap, pc)
    separable = not pc.everything
    field = rmap.field
    witnesses, violations = [], []
    for xbar in locus:
        a, b = (1, 0) if xbar is None else (xbar, 1)
        fib = fiber_form(field, rmap.F1, rmap.G1, a, b)
        ok = full and form_is_squarefree(field, fib)
        (witnesses if ok else violations).append(xbar)
    report = Condition2Report(
        holds=full and separable and not violations,
        witnesses=tuple(witnesses),
        violations=tuple(violations),
        locus=locus,
        separable=separable,
        reduced_degree_full=full,
        sgr=sgr,
        pc=pc,
    )
    _consistency_alarm(report, mp)
    return report


def _consistency_alarm(report: Condition2Report, mp: MapAtPrime) -> None:
    expected = report.sgr.is_strict_good_reduction and report.separable
    if report.holds != expected:
        raise InternalError(
            "internal consistency alarm: the fiber criterion and the "
            f"resultant criterion disagree for {mp.model.map_str()} at p={mp.p}"
        )


@dataclass(frozen=True)
class Degree1Report:
    p: int
    det: int
    det_valuation: int
    is_strict_good_reduction: bool
    towers_trivial: bool
    note: str


def degree_one_check(mp: MapAtPrime) -> Degree1Report:
    """Good reduction for a Mobius map: unit determinant of the primitive model."""
    if mp.d != 1:
        raise InputError(f"degree_one_check needs a degree-1 map, got degree {mp.d}")
    prim = mp.integral
    # F = a X + b Y, G = c X + e Y stored ascending: F = (b, a), G = (e, c)
    det = prim.F[1] * prim.G[0] - prim.F[0] * prim.G[1]
    val = vp(mp.p, det)
    return Degree1Report(
        p=mp.p,
        det=det,
        det_valuation=val,
        is_strict_good_reduction=val == 0,
        towers_trivial=True,
        note="every fiber polynomial has degree 1, so K(X_n(x)) = K for all n",
    )


@dataclass(frozen=True)
class AnalyzeReport:
    model: RationalMapModel
    p: int
    sgr: SGRReport
    rmap: ReducedMap
    pc: PostcriticalSet | None
    locus: tuple
    condition2: Condition2Report


def analyze_map(mp: MapAtPrime) -> AnalyzeReport:
    """One-stop reduction analysis backing the command-line front end."""
    c2 = condition2_check(mp)
    return AnalyzeReport(
        model=mp.model,
        p=mp.p,
        sgr=c2.sgr,
        rmap=mp.rmap,
        pc=c2.pc,
        locus=c2.locus,
        condition2=c2,
    )
