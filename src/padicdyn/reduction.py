"""Reduction-type analysis of a rational map at a prime.

Everything here is about one object, the reduced map of phi at p, and a
``MapAtPrime`` session holds it for one (map, p) pair, with every cap
that bounds work on it; its canonical model is its own p-primitive
model.  The session proves p prime once and derives each artifact on
first use and only once: the reduced map, the strict good reduction
report, the critical divisor and the postcritical set, the iterates
over Q and over F_p (extended one composition at a time), a polynomial
map's critical orbit over Q, and the factor degrees of polynomials over
F_p keyed by their monic coefficients (read off squarefree and
distinct-degree factorization; only the PC set, which needs the factors
themselves, runs Cantor-Zassenhaus).  Fiber forms are combined from the
kept iterates on each call.  The analysis functions take a session, so
the reduction, the PC set and the towers of one query share all of it;
the memo lives on the session and is dropped with it.

On top of the session this module decides strict good reduction (unit
resultant of the p-primitive model, equivalently full reduced degree),
walks the postcritical set as closed points of P^1 over F_p, lists the
residual good locus, and checks the fiber criterion point by point, by
one discriminant polynomial of the pencil of fibers, with an internal
alarm that cross-checks it against the resultant criterion.

Closed points are Galois orbits over the algebraic closure: a monic
irreducible polynomial over F_p, or the point at infinity.  The
postcritical set walks each critical closed point c of degree k >= 2
from the class of T in its own residue field F_p[T]/(c), and names each
image by its Frobenius orbit, so a closed point always pushes forward to
exactly one closed point, whichever model of F_{p^k} the walk runs in.
"""

from __future__ import annotations

from functools import cached_property, partial
from math import factorial
from typing import NamedTuple

from .errors import InputError, InternalError, ResourceLimitError
from .finitefield import (
    FIELD_SIZE_CAP,
    FqField,
    FqPoly,
    _derivative,
    _mul,
    _sub,
    distinct_degree,
    fiber_form,
    form_dehomogenize,
    form_from_poly,
    form_is_zero,
    fq_factor,
    prime_field_of,
    residue_field,
    squarefree_decomposition,
)
from .maps import (
    DEGREE_CAP,
    HEIGHT_CAP_BITS,
    ProjPointQ,
    RationalMapModel,
    ReducedMap,
    compose_map,
    eval_reduced,
    reduce_map,
)
from .padics import require_prime, vp
from .qpolys import _add, _form_mul, _pseudo_remainder, compose_forms, form_discriminant, poly_str

PC_CAP = 100_000
# factoring a critical divisor of affine degree D over F_p takes about D^3 * bits(p)
# steps, 20 to 330 ns each on a 2-core VM: 0.2 to 2.7 s near this cap
PC_FACTOR_WORK_CAP = 1 << 23
# Above the field cap a walk from a critical point of degree k may take
# PC_WORK_ABOVE_CAP // k^2 steps, about 0.3 s (a step in F_p[T]/(c) takes 0.15 ms
# at k = 2, 1.6 ms at k = 5 and 2.8 ms at k = 6 near p = 10^3 on a 2-core VM),
# though a random map's takes about p^(k/2); that of z^3+3z closes in two.
PC_WORK_ABOVE_CAP = 4096


class MapAtPrime:
    """One rational map at one prime, with everything derived from it once.

    Properties are computed on first access and kept; iterates over Q and
    over F_p grow one composition at a time; factor degrees are kept by
    key.  cap_degree bounds the degree d^n of every iterate asked for, over
    Q or over F_p; cap_field bounds every field F_{p^k} a preimage tree
    needs, and the length of a PC walk in a field above it; cap_height
    bounds the bit size of every orbit coordinate.
    """

    def __init__(
        self, model: RationalMapModel, p: int, *,
        cap_degree=DEGREE_CAP, cap_field=FIELD_SIZE_CAP, cap_height=HEIGHT_CAP_BITS,
    ):
        require_prime(p)
        self.model = model
        self.p = p
        self.cap_degree = cap_degree
        self.cap_field = cap_field
        self.cap_height = cap_height
        self._iterates = [model]
        self._critical_orbit = []
        self._factor_degrees = {}

    @property
    def d(self) -> int:
        return self.model.d

    @cached_property
    def rmap(self) -> ReducedMap:
        return reduce_map(self.model, self.p)

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

    @cached_property
    def pc_refusal(self) -> str | None:
        """Why ``pc`` raised (its walk hit a cap), else None: towers and orbits go on without it."""
        try:
            self.pc
        except ResourceLimitError as exc:
            return str(exc)
        return None

    def in_pc(self, xbar: int | None) -> bool | None:
        """Does xbar lie in the postcritical set?  None when there is none to
        be in: the reduction is constant, or its walk was refused by a cap."""
        if self.pc_refusal is not None or self.pc is None:
            return None
        return self.pc.contains_residue(xbar)

    def _check_degree(self, n: int) -> None:
        if self.d**n > self.cap_degree:
            raise ResourceLimitError(f"iterate degree {self.d}^{n} exceeds cap {self.cap_degree}")

    def check_depth(self, n: int) -> None:
        """Refuse levels 1..n before any is built, naming the least level over
        cap_degree in O(log cap_degree) steps, or at d = 1 a depth past it."""
        if self.d == 1 and n > self.cap_degree:
            raise ResourceLimitError(f"tower depth {n} exceeds cap {self.cap_degree} at degree 1")
        k = 1
        while k < n and self.d > 1 and self.d**k <= self.cap_degree:
            k += 1
        self._check_degree(k)

    def iterate(self, n: int) -> RationalMapModel:
        """The canonical integer model of phi^n, extended as phi o phi^(n-1)."""
        self._check_degree(n)
        while len(self._iterates) < n:
            self._iterates.append(compose_map(self.model, self._iterates[-1]))
        return self._iterates[n - 1]

    @cached_property
    def _reduced_iterates(self) -> list:
        return [(self.rmap.F1, self.rmap.G1)]

    def reduced_iterate(self, n: int) -> tuple:
        """Forms (F_n, G_n) over F_p of the n-th iterate of the reduced map."""
        self._check_degree(n)
        rmap, its = self.rmap, self._reduced_iterates
        mul = partial(_mul, rmap.field)
        while len(its) < n:
            composed = compose_forms((rmap.F1, rmap.G1), its[-1], mul)
            its.append(tuple(tuple(c % self.p for c in f) for f in composed))
        return its[n - 1]

    def fiber_form(self, n: int, x: ProjPointQ) -> tuple:
        """Integer form b*P_n - a*Q_n of the canonical phi^n over x = [a : b]."""
        it = self.iterate(n)
        raw = tuple(x.b * f - x.a * g for f, g in zip(it.F, it.G))
        if not any(raw):
            raise InputError("fiber form vanishes identically; the map is degenerate")
        return raw

    def critical_orbit(self, n: int) -> tuple | None:
        """(M, ((A_1, e_1), ..., (A_n, e_n))) for a polynomial map phi = F/g of
        degree d >= 2, else None: M(y) = D^(d-2) F'(y/D), D = lc(F'), is monic
        with roots D*gamma at the critical points gamma, and phi^m(gamma) =
        A_m(D*gamma)/e_m, from A_0 = y and e_0 = D by one Horner pass of F mod
        M per level, with e_m = g*e_(m-1)^d never reduced."""
        F, G, d, orbit = self.model.F, self.model.G, self.d, self._critical_orbit
        if d < 2 or any(G[1:]) or not G[0] * F[-1]:
            return None
        D = d * F[-1]
        monic = [j * c * D ** (d - 1 - j) for j, c in enumerate(F[1:-1], 1)] + [1]
        A, e = orbit[-1] if orbit else ((0, 1), D)
        while len(orbit) < n:
            acc = (F[-1],)
            for i in range(d - 1, -1, -1):
                acc = _add(_pseudo_remainder(_form_mul(acc, A), monic), (F[i] * e ** (d - i),))
            A, e = acc, G[0] * e**d
            orbit.append((A, e))
        return monic, orbit[:n]

    def reduced_fiber(self, n: int, xbar: int | None) -> tuple:
        """Form over F_p cutting out the fiber of the reduced phi^n over xbar."""
        a, b = (1, 0) if xbar is None else (xbar % self.p, 1)
        return fiber_form(self.rmap.field, *self.reduced_iterate(n), a, b)

    def factor_degrees(self, coeffs) -> tuple:
        """Sorted (degree, multiplicity) of each irreducible factor of the
        polynomial over F_p with ascending coefficients coeffs, top one nonzero.

        Squarefree decomposition, then distinct-degree splitting, both on
        coefficient lists: a part of degree k made of degree-e irreducibles
        holds k/e of them, so no factor is ever split off.  The memo is keyed
        by the monic coefficient tuple alone, as the field is always F_p.
        """
        p = self.p
        inv = pow(coeffs[-1], -1, p)
        key = tuple(c * inv % p for c in coeffs)
        if key not in self._factor_degrees:
            out = []
            field = prime_field_of(p)
            for part, mult in squarefree_decomposition(field, key):
                for prod, e in distinct_degree(field, part):
                    out.extend([(e, mult)] * ((len(prod) - 1) // e))
            self._factor_degrees[key] = tuple(sorted(out))
        return self._factor_degrees[key]

    def fiber_pattern(self, n: int, xbar: int | None) -> tuple:
        """Sorted (degree, multiplicity) of each closed point of the reduced
        level-n fiber over xbar, infinity included as a point of degree 1.

        The fiber is separable exactly when every multiplicity is 1;
        squarefree decomposition sees p-th powers, so this holds for p = 2
        and for p | d too.
        """
        poly, inf_mult = form_dehomogenize(self.reduced_fiber(n, xbar))
        out = list(self.factor_degrees(poly)) if len(poly) > 1 else []
        if inf_mult:
            out.append((1, inf_mult))
        return tuple(sorted(out))


class _ClosedPointFields(NamedTuple):
    p: int
    poly: tuple | None


class ClosedPoint(_ClosedPointFields):
    """A closed point of P^1 over F_p: monic irreducible poly, or infinity."""

    __slots__ = ()

    def __new__(cls, p: int, poly: tuple | None):
        if poly is not None and (len(poly) < 2 or poly[-1] != 1):
            raise InputError("closed point needs a monic polynomial of degree >= 1")
        return super().__new__(cls, p, poly)

    @classmethod
    def infinity(cls, p: int) -> "ClosedPoint":
        return cls(p, None)

    @classmethod
    def of_residue(cls, p: int, xbar: int | None) -> "ClosedPoint":
        """The closed point of a rational point of P^1(F_p)."""
        return cls(p, None if xbar is None else ((-xbar) % p, 1))

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
    poly, inf_mult = form_dehomogenize(coeffs)
    factors = fq_factor(FqPoly(field, tuple(poly))) if len(poly) > 1 else []
    out = [(ClosedPoint(field.p, fac), mult) for fac, mult in factors]
    if inf_mult > 0:
        out.append((ClosedPoint.infinity(field.p), inf_mult))
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
    f, g = rmap.F1, rmap.G1
    w = _sub(field, _mul(field, _derivative(field, f), g), _mul(field, f, _derivative(field, g)))
    return form_from_poly(w, 2 * rmap.reduced_degree - 2)


def pushforward(ext: FqField, rmap: ReducedMap, z: int | None) -> tuple:
    """One step of a critical orbit: the image w of z in P^1(ext) under the
    reduced map, and w's closed point over F_p, whose minimal polynomial
    is the product of T - w^(p^i) over the Frobenius orbit of w."""
    p = rmap.p
    w = eval_reduced(ext, rmap.F1, rmap.G1, z)
    if w is None or w < p:  # infinity, or an element of F_p
        return w, ClosedPoint.of_residue(p, w)
    orbit = [w]
    while (g := ext.frobenius(orbit[-1])) != w:
        orbit.append(g)
    minpoly = [1]
    for root in orbit:
        minpoly = _mul(ext, [ext.neg(root), 1], minpoly)  # the short factor first: two rows
    if any(c >= p for c in minpoly):
        raise InternalError("orbit product must have F_p coefficients")
    return w, ClosedPoint(p, tuple(minpoly))


class PostcriticalSet(NamedTuple):
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


def postcritical_set(mp: MapAtPrime) -> PostcriticalSet:
    """All forward images phi^m(c), m >= 1, of the critical closed points c.

    Each critical point c of degree k is walked from the class of T in
    F_p[T]/(c), from its residue in F_p for k = 1.  A walk stops at a
    closed point that an earlier step or walk reached in as few steps;
    stable_depth, the least t with phi^(t+1)(C) in the union of phi^s(C)
    for s <= t, is the largest least step count.  A critical point is in
    the set only when some forward image hits it, and the set holds at
    most PC_CAP points; a critical divisor past PC_FACTOR_WORK_CAP is not
    factored.  A walk in a field above the session's field cap
    may take PC_WORK_ABOVE_CAP // k^2 steps; one allowed none (k >= 65)
    is refused before its field is built.
    """
    rmap, crit, p = mp.rmap, mp.critical, mp.p
    if form_is_zero(crit):
        return PostcriticalSet(p, frozenset(), True, 0, frozenset())
    D = len(form_dehomogenize(crit)[0]) - 1
    if D**3 * p.bit_length() > PC_FACTOR_WORK_CAP:
        raise ResourceLimitError(
            f"postcritical set: factoring the critical divisor of degree {D} over F_{p} "
            f"takes {D}^3 * {p.bit_length()} (bits of p) steps, above cap {PC_FACTOR_WORK_CAP}"
        )
    critpts = [pt for pt, _ in closed_points_of_form(rmap.field, crit)]
    least = {}  # closed point -> least m >= 1 with the point in phi^m(C)
    for c in critpts:
        k = c.degree
        allowed = PC_WORK_ABOVE_CAP // k**2 if k > 1 and p**k > mp.cap_field else None
        def refusal(why: str) -> ResourceLimitError:  # the message is built only when raised
            walk = f"postcritical set: the walk from critical point {c.render()} of degree {k}"
            return ResourceLimitError(f"{walk} {why} its field size {p}^{k} exceeds cap {mp.cap_field}")
        if allowed == 0:
            raise refusal(f"is allowed {PC_WORK_ABOVE_CAP} // {k}^2 = 0 steps, as")
        # start at the class of T in F_p[T]/(c), which the int p encodes when k > 1
        ext = rmap.field if k == 1 else residue_field(p, c.poly)
        z = None if c.is_infinity else -c.poly[0] % p if k == 1 else p
        step = 1
        while True:
            z, pt = pushforward(ext, rmap, z)
            if pt in least and least[pt] <= step:
                break
            least[pt] = step
            if len(least) > PC_CAP:
                raise ResourceLimitError(f"postcritical set exceeded cap {PC_CAP}")
            if step == allowed:
                raise refusal(f"did not close within {allowed} steps, and")
            step += 1
    depth = max(least.values(), default=0)
    return PostcriticalSet(p, frozenset(least), False, depth, frozenset(critpts))


def good_locus(rmap: ReducedMap, pc: PostcriticalSet) -> tuple:
    """Rational points of P^1(F_p) off the postcritical set (None = infinity)."""
    if pc.everything:
        return ()
    p = rmap.p
    rational = {None if q.is_infinity else -q.poly[0] % p for q in pc.points if q.degree == 1}
    out = [c for c in range(p) if c not in rational]
    if None not in rational:
        out.append(None)
    return tuple(out)


class SGRReport(NamedTuple):
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
    res = mp.model.resultant()
    val = vp(p, res)
    sgr = val == 0
    if sgr != (rmap.reduced_degree == mp.d):
        raise InternalError("resultant valuation and reduced degree disagree")
    insep = rmap.reduced_degree >= 1 and form_is_zero(mp.critical)
    return SGRReport(
        d=mp.d,
        resultant=res,
        res_valuation=val,
        reduced_degree=rmap.reduced_degree,
        is_strict_good_reduction=sgr,
        inseparable_reduction=insep,
    )


class Condition2Report(NamedTuple):
    """Point-by-point fiber criterion on the residual good locus.

    A residue point passes when the level-1 fiber of the reduced map over
    it consists of d distinct points of P^1: the fiber form is squarefree
    of full formal degree d, equivalently its discriminant Disc_d is a
    unit.  `holds` is the geometric statement: full reduced degree,
    separable reduction, and no rational violations; an empty rational
    locus is vacuous, since the criterion concerns a Zariski-open set over
    the algebraic closure and rational points may all be missing.
    """

    holds: bool
    witnesses: tuple
    violations: tuple
    locus: tuple
    separable: bool
    reduced_degree_full: bool


def pencil_discriminant(F, G) -> tuple:
    """Ascending coefficients over Z of D(t) = Disc_d(F - t*G).

    F and G are integer forms of formal degree d >= 1.  Disc_d is
    homogeneous of degree 2d - 2 in the coefficients, which are linear in
    t, so D has degree at most 2d - 2: it is read off its values at
    t = 0..2d-2 by Newton forward differences, and the k-th difference at
    0 of an integer polynomial is divisible by k!.
    """
    d = len(F) - 1
    values = [form_discriminant([f - t * g for f, g in zip(F, G)]) for t in range(2 * d - 1)]
    D, falling = (), (1,)  # falling = t(t-1)...(t-k+1)
    for k in range(len(values)):
        D = _add(D, _form_mul((values[0] // factorial(k),), falling))
        values = [b - a for a, b in zip(values, values[1:])]
        falling = _form_mul(falling, (-k, 1))
    return D


def condition2_check(mp: MapAtPrime) -> Condition2Report:
    """Decide the fiber criterion at every point of the good locus.

    The fiber over a residue a is cut out by F1 - a*G1, and it is etale
    exactly when Disc_d(F1 - a*G1) != 0 in F_p.  Disc_d is one polynomial
    over Z in the coefficients of the form, so it commutes with reduction
    mod p: Disc_d over F_p of the reduced form is Disc_d of any integer
    lift, reduced.  Hence one D(t) = Disc_d(F1 - t*G1) over Z, computed
    from the integer lifts of F1 and G1, decides every affine residue by
    one evaluation D(a) mod p, in every characteristic (p = 2 and p | d
    included), and infinity: Disc_d is homogeneous of degree 2d - 2, so D's
    t^(2d-2) coefficient, 0 if D has lower degree, is Disc_d(G1).  Each
    verdict is exact and reads neither the critical divisor nor PC.
    """
    rmap, pc, p = mp.rmap, mp.pc, mp.p
    full = rmap.reduced_degree == mp.d
    # a constant reduction has no postcritical set and an empty locus
    locus = () if pc is None else good_locus(rmap, pc)
    separable = pc is not None and not pc.everything
    disc = [c % p for c in reversed(pencil_discriminant(rmap.F1, rmap.G1))] if full and locus else ()
    witnesses, violations = [], []
    for xbar in locus:
        if not full:
            ok = False
        elif xbar is None:
            ok = len(disc) == 2 * mp.d - 1 and disc[0] != 0
        else:
            value = 0
            for c in disc:
                value = (value * xbar + c) % p
            ok = value != 0
        (witnesses if ok else violations).append(xbar)
    report = Condition2Report(
        holds=full and separable and not violations,
        witnesses=tuple(witnesses),
        violations=tuple(violations),
        locus=locus,
        separable=separable,
        reduced_degree_full=full,
    )
    _consistency_alarm(report, mp)
    return report


def _consistency_alarm(report: Condition2Report, mp: MapAtPrime) -> None:
    expected = mp.sgr.is_strict_good_reduction and report.separable
    if report.holds != expected:
        raise InternalError(
            "internal consistency alarm: the fiber criterion and the "
            f"resultant criterion disagree for {mp.model.map_str()} at p={mp.p}"
        )

