"""Rational self-maps of P^1 over Q.

A map phi = [F : G] is stored as a pair of degree-d binary forms with
exact rational coefficients, written in ascending tuples: entry i of F
is the coefficient of X^i Y^(d-i).  Models are canonicalized on
construction (integer coefficients, joint content 1, first nonzero
coefficient positive), so two constructions of the same projective map
compare equal.

The point at infinity is uniformly [1 : 0]; no code path dehomogenizes
before it has to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalError, ResourceLimitError
from .finitefield import FqField, prime_field_of
from .padics import require_prime, vp
from .qpolys import QPoly, binary_form_resultant, int_str, poly_str, rational_str

DEGREE_CAP = 4096
HEIGHT_CAP_BITS = 10**6


class ProjPointQ:
    """A point of P^1(Q) as a coprime integer pair [a : b], b >= 0.

    Canonical form: gcd(|a|, |b|) = 1 and b > 0, except infinity which
    is exactly [1 : 0].
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        fa, fb = Fraction(a), Fraction(b)
        den = math.lcm(fa.denominator, fb.denominator)
        ia, ib = int(fa * den), int(fb * den)
        if ia == 0 and ib == 0:
            raise InputError("projective point needs a nonzero coordinate")
        g = math.gcd(abs(ia), abs(ib))
        ia //= g
        ib //= g
        if ib < 0 or (ib == 0 and ia < 0):
            ia, ib = -ia, -ib
        object.__setattr__(self, "a", ia)
        object.__setattr__(self, "b", ib)

    def __setattr__(self, *args):
        raise AttributeError("ProjPointQ is immutable")

    @classmethod
    def infinity(cls) -> "ProjPointQ":
        return cls(1, 0)

    @classmethod
    def from_value(cls, x) -> "ProjPointQ":
        """From an int, Fraction, or string like "3", "-2/7", "inf"."""
        if isinstance(x, ProjPointQ):
            return x
        if isinstance(x, str):
            s = x.strip().lower()
            if s in ("inf", "infinity", "oo"):
                return cls.infinity()
            try:
                x = Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"cannot read {x!r} as a point of P^1(Q)") from exc
        return cls(Fraction(x), 1)

    @property
    def is_infinity(self) -> bool:
        return self.b == 0

    def value(self) -> Fraction | None:
        return None if self.b == 0 else Fraction(self.a, self.b)

    def is_integral(self, p: int) -> bool:
        """True when the point lies in the affine p-integral locus (a/b with p∤b)."""
        return self.b % p != 0

    def reduce(self, p: int) -> int | None:
        """Image in P^1(F_p): an int in range(p), or None for infinity."""
        ab, bb = self.a % p, self.b % p
        if bb == 0:
            return None
        return ab * pow(bb, -1, p) % p

    def height_bits(self) -> int:
        return max(abs(self.a).bit_length(), abs(self.b).bit_length())

    def __eq__(self, other):
        return (
            isinstance(other, ProjPointQ) and self.a == other.a and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a, self.b))

    def __str__(self):
        if self.b == 0:
            return "inf"
        return rational_str(Fraction(self.a, self.b))

    def __repr__(self):
        return f"ProjPointQ({self})"


class Mobius:
    """A fractional-linear map z -> (alpha z + beta)/(gamma z + delta)."""

    __slots__ = ("alpha", "beta", "gamma", "delta")

    def __init__(self, alpha, beta, gamma, delta):
        vals = tuple(Fraction(v) for v in (alpha, beta, gamma, delta))
        if vals[0] * vals[3] - vals[1] * vals[2] == 0:
            raise InputError("Mobius matrix must have nonzero determinant")
        for name, v in zip(self.__slots__, vals):
            object.__setattr__(self, name, v)

    def __setattr__(self, *args):
        raise AttributeError("Mobius is immutable")

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(1, 0, 0, 1)

    @classmethod
    def inversion(cls) -> "Mobius":
        return cls(0, 1, 1, 0)

    @classmethod
    def affine(cls, scale, shift) -> "Mobius":
        return cls(scale, shift, 0, 1)

    @property
    def det(self) -> Fraction:
        return self.alpha * self.delta - self.beta * self.gamma

    def inverse(self) -> "Mobius":
        return Mobius(self.delta, -self.beta, -self.gamma, self.alpha)

    def compose(self, other: "Mobius") -> "Mobius":
        a, b, c, d = self.alpha, self.beta, self.gamma, self.delta
        e, f, g, h = other.alpha, other.beta, other.gamma, other.delta
        return Mobius(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def apply(self, point: ProjPointQ) -> ProjPointQ:
        return ProjPointQ(
            self.alpha * point.a + self.beta * point.b,
            self.gamma * point.a + self.delta * point.b,
        )

    def is_p_unit(self, p: int) -> bool:
        """Entries p-integral and determinant a p-adic unit."""
        entries = (self.alpha, self.beta, self.gamma, self.delta)
        return all(vp(p, e) >= 0 for e in entries) and vp(p, self.det) == 0

    def formula(self) -> str:
        num = poly_str((self.beta, self.alpha), var="z")
        den = poly_str((self.delta, self.gamma), var="z")
        if den == "1":
            return num
        return f"({num})/({den})"

    def __eq__(self, other):
        if not isinstance(other, Mobius):
            return False
        return all(
            getattr(self, n) == getattr(other, n) for n in self.__slots__
        )

    def __repr__(self):
        return f"Mobius({self.formula()})"


# -- binary forms with Fraction coefficients (ascending, fixed formal degree)


def _qform_mul(A, B):
    out = [0] * (len(A) + len(B) - 1)
    for i, x in enumerate(A):
        if x:
            for j, y in enumerate(B):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def _qform_compose_pair(coeffs, pair):
    A, B = pair
    d = len(coeffs) - 1
    pa, pb = [(1,)], [(1,)]
    for _ in range(d):
        pa.append(_qform_mul(pa[-1], A))
        pb.append(_qform_mul(pb[-1], B))
    e = len(A) - 1
    out = [0] * (d * e + 1)
    for i, c in enumerate(coeffs):
        if c:
            term = _qform_mul(pa[i], pb[d - i])
            for k, v in enumerate(term):
                out[k] += c * v
    return tuple(out)


def _canonical_integer_pair(F, G):
    """Scale a rational form pair jointly: integer, content 1, fixed sign.

    The sign is chosen so the first nonzero coefficient of G (or of F when
    G vanishes) is positive, which keeps denominators positive in display.
    """
    allc = [Fraction(c) for c in F] + [Fraction(c) for c in G]
    den = 1
    for c in allc:
        den = math.lcm(den, c.denominator)
    ints = [int(c * den) for c in allc]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    if g == 0:
        raise InputError("map forms are both identically zero")
    ints = [c // g for c in ints]
    k = len(F)
    lead = next((c for c in ints[k:] if c != 0), None)
    if lead is None:
        lead = next(c for c in ints if c != 0)
    if lead < 0:
        ints = [-c for c in ints]
    return tuple(ints[:k]), tuple(ints[k:])


class RationalMapModel:
    """phi = [F : G] of degree d, canonical integer coefficients."""

    __slots__ = ("d", "F", "G")

    def __init__(self, F_coeffs, G_coeffs, *, validate: bool = False):
        if len(F_coeffs) != len(G_coeffs):
            raise InputError("F and G must share a formal degree")
        d = len(F_coeffs) - 1
        if d < 1:
            raise InputError("map must have degree >= 1")
        F, G = _canonical_integer_pair(F_coeffs, G_coeffs)
        if validate and binary_form_resultant(F, G, d) == 0:
            raise InputError("forms share a projective root (resultant is zero)")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)

    def __setattr__(self, *args):
        raise AttributeError("RationalMapModel is immutable")

    @classmethod
    def from_coeffs(cls, F_coeffs, G_coeffs) -> "RationalMapModel":
        return cls(F_coeffs, G_coeffs, validate=True)

    def numerator(self) -> QPoly:
        return QPoly(self.F)

    def denominator(self) -> QPoly:
        return QPoly(self.G)

    def resultant(self) -> Fraction:
        return binary_form_resultant(self.F, self.G, self.d)

    def map_str(self) -> str:
        num = poly_str(self.F, var="z")
        den = poly_str(self.G, var="z")
        if den == "1":
            return num
        if any(c in num for c in "+-"):
            num = f"({num})"
        return f"{num}/({den})"

    def __eq__(self, other):
        return (
            isinstance(other, RationalMapModel)
            and self.d == other.d
            and self.F == other.F
            and self.G == other.G
        )

    def __hash__(self):
        return hash((self.d, self.F, self.G))

    def __repr__(self):
        return f"RationalMapModel({self.map_str()})"


# -- parsing ------------------------------------------------------------------


def _int_of_digits(digits: str) -> int:
    """int() of a decimal digit string, exact past the interpreter's digit limit."""
    if len(digits) <= 600:
        return int(digits)
    half = len(digits) // 2
    return _int_of_digits(digits[:-half]) * 10**half + _int_of_digits(digits[-half:])


def _tokenize(text: str, prime: int) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", _int_of_digits(text[i:j])))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            name = text[i:j]
            if name == "z":
                tokens.append(("Z", None))
            elif name == "p":
                # the configured prime is substituted at the token level
                tokens.append(("INT", prime))
            else:
                raise InputError(f"unknown symbol {name!r} in map expression")
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, None))
            i += 1
            continue
        raise InputError(f"unexpected character {ch!r} in map expression")
    return tokens


class _RatFunc:
    """Unreduced rational function arithmetic used only during parsing."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly):
        if den.is_zero():
            raise InputError("division by the zero rational function")
        if num.degree > DEGREE_CAP or den.degree > DEGREE_CAP:
            raise ResourceLimitError(f"expression degree exceeds cap {DEGREE_CAP}")
        self.num = num
        self.den = den

    def add(self, other):
        return _RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def sub(self, other):
        return _RatFunc(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def mul(self, other):
        return _RatFunc(self.num * other.num, self.den * other.den)

    def div(self, other):
        if other.num.is_zero():
            raise InputError("division by the zero rational function")
        return _RatFunc(self.num * other.den, self.den * other.num)

    def neg(self):
        return _RatFunc(-self.num, self.den)

    def pow(self, e: int):
        if abs(e) > DEGREE_CAP:
            raise ResourceLimitError(f"exponent {e} exceeds cap {DEGREE_CAP}")
        if e >= 0:
            return _RatFunc(self.num**e, self.den**e)
        if self.num.is_zero():
            raise InputError("negative power of the zero function")
        return _RatFunc(self.den ** (-e), self.num ** (-e))


def _token_text(token) -> str:
    kind, value = token
    if kind == "INT":
        return int_str(value)
    if kind == "Z":
        return "z"
    return kind


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> _RatFunc:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out.add(rhs) if op == "+" else out.sub(rhs)
        return out

    def term(self) -> _RatFunc:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            out = out.mul(rhs) if op == "*" else out.div(rhs)
        return out

    def factor(self) -> _RatFunc:
        if self.peek() == "-":
            self.take()
            return self.factor().neg()
        if self.peek() == "+":
            self.take()
            return self.factor()
        return self.power()

    def power(self) -> _RatFunc:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() in ("+", "-"):
                if self.take()[0] == "-":
                    sign = -1
            if self.peek() != "INT":
                raise InputError("exponent must be an integer literal")
            e = sign * self.take()[1]
            base = base.pow(e)
            if self.peek() == "^":
                raise InputError("chained '^' needs parentheses")
        return base

    def atom(self) -> _RatFunc:
        kind = self.peek()
        if kind == "INT":
            return _RatFunc(QPoly((self.take()[1],)), QPoly((1,)))
        if kind == "Z":
            self.take()
            return _RatFunc(QPoly((0, 1)), QPoly((1,)))
        if kind == "(":
            self.take()
            inner = self.expr()
            if self.peek() != ")":
                raise InputError("unbalanced parentheses in map expression")
            self.take()
            return inner
        if kind is None:
            raise InputError("map expression ended unexpectedly")
        raise InputError(
            f"unexpected token {_token_text(self.tokens[self.pos])!r} in map expression"
        )


def parse_map(text: str, prime: int) -> RationalMapModel:
    """Parse a rational-function expression in z into a degree-d model.

    Grammar: integer literals, z, the symbol p (replaced by the given
    prime), + - * / ^ and parentheses; exponents are integer literals;
    there is no implicit multiplication.  The final numerator and
    denominator must be coprime: a shared nonconstant factor is rejected
    rather than cancelled, naming the factor.
    """
    require_prime(prime)
    parser = _Parser(_tokenize(text, prime))
    rf = parser.expr()
    if parser.pos != len(parser.tokens):
        text = _token_text(parser.tokens[parser.pos])
        raise InputError(
            f"unexpected token {text!r} after a complete expression "
            "(note: there is no implicit multiplication)"
        )
    num, den = rf.num, rf.den
    if num.is_zero():
        raise InputError("map is identically zero (degree 0)")
    g = num.gcd(den)
    if g.degree >= 1:
        raise InputError(
            "numerator and denominator share a common factor: "
            + poly_str(g.coeffs, var="z")
        )
    d = max(num.degree, den.degree)
    if d < 1:
        raise InputError("map must have degree >= 1, got a constant")
    F = tuple(num[i] for i in range(d + 1))
    G = tuple(den[i] for i in range(d + 1))
    return RationalMapModel(F, G)


# -- integral models and reduction -------------------------------------------


@dataclass(frozen=True)
class IntegralModel:
    """A p-primitive integer model: all coefficients integers, min vp = 0."""

    d: int
    F: tuple
    G: tuple
    p: int

    def model(self) -> RationalMapModel:
        return RationalMapModel(self.F, self.G)

    def resultant(self) -> Fraction:
        return binary_form_resultant(self.F, self.G, self.d)


def p_primitive_pair(F_coeffs, G_coeffs, p: int):
    """Jointly scale two rational coefficient tuples to a p-primitive integer pair.

    Multiplies by the prime-to-p part of the common denominator (a p-adic
    unit), then by the power of p that brings the minimum valuation to 0.
    """
    allc = [Fraction(c) for c in F_coeffs] + [Fraction(c) for c in G_coeffs]
    if all(c == 0 for c in allc):
        raise InputError("cannot scale the zero pair")
    den = 1
    for c in allc:
        den = math.lcm(den, c.denominator)
    while den % p == 0:
        den //= p
    allc = [c * den for c in allc]
    minv = min(vp(p, c) for c in allc if c != 0)
    scale = Fraction(p) ** (-minv)
    ints = [c * scale for c in allc]
    out = [int(c) for c in ints]
    if any(Fraction(o) != c for o, c in zip(out, ints)):  # pragma: no cover
        raise InputError("p-primitive scaling did not produce integers")
    k = len(F_coeffs)
    return tuple(out[:k]), tuple(out[k:])


def normalize_integral(model: RationalMapModel, p: int) -> IntegralModel:
    """The p-primitive integer model of a map; p is trusted to be prime."""
    F, G = p_primitive_pair(model.F, model.G, p)
    return IntegralModel(d=model.d, F=F, G=G, p=p)


def compose_map(outer: RationalMapModel, inner: RationalMapModel) -> RationalMapModel:
    """The canonical model of outer o inner.

    Canonical models are unique up to sign and content, so composing
    canonical models step by step gives the same model as composing the
    raw forms and canonicalizing once.
    """
    pair = (inner.F, inner.G)
    return RationalMapModel(
        _qform_compose_pair(outer.F, pair), _qform_compose_pair(outer.G, pair)
    )


def iterate_map(model: RationalMapModel, n: int, *, cap_degree: int = DEGREE_CAP):
    """The canonical integer model of phi^n, built as phi o phi^(n-1)."""
    if n < 1:
        raise InputError("iteration count must be >= 1")
    if model.d**n > cap_degree:
        raise ResourceLimitError(
            f"iterate degree {model.d}^{n} exceeds cap {cap_degree}"
        )
    out = model
    for _ in range(n - 1):
        out = compose_map(model, out)
    return out


def conjugate_map(model: RationalMapModel, M: Mobius) -> RationalMapModel:
    """The model of M o phi o M^{-1}, content-normalized."""
    a, b, c, d = M.alpha, M.beta, M.gamma, M.delta
    # M^{-1} acts on [X : Y] by (X, Y) -> (delta X - beta Y, -gamma X + alpha Y)
    U = (-b, d)
    V = (a, -c)
    FU = _qform_compose_pair(tuple(Fraction(x) for x in model.F), (U, V))
    GU = _qform_compose_pair(tuple(Fraction(x) for x in model.G), (U, V))
    newF = tuple(a * f + b * g for f, g in zip(FU, GU))
    newG = tuple(c * f + d * g for f, g in zip(FU, GU))
    return RationalMapModel(newF, newG)


def eval_map(model: RationalMapModel, point: ProjPointQ) -> ProjPointQ:
    a, b = point.a, point.b
    d = model.d
    pa = [1]
    pb = [1]
    for _ in range(d):
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    fa = sum(c * pa[i] * pb[d - i] for i, c in enumerate(model.F))
    ga = sum(c * pa[i] * pb[d - i] for i, c in enumerate(model.G))
    if fa == 0 and ga == 0:
        raise InternalError("coprime forms cannot vanish together")
    return ProjPointQ(fa, ga)


@dataclass(frozen=True)
class ReducedMap:
    """The reduction of a p-primitive model: raw forms and the coprime core.

    raw_F = common * F1 and raw_G = common * G1 as binary forms over F_p;
    the self-map of P^1 over F_p that the model reduces to is [F1 : G1],
    of degree reduced_degree = d - deg(common).
    """

    field: FqField
    p: int
    d: int
    raw_F: tuple
    raw_G: tuple
    common: tuple
    F1: tuple
    G1: tuple
    reduced_degree: int

    @property
    def is_degenerate(self) -> bool:
        return self.reduced_degree < self.d

    def canonical_pair(self):
        """(F1, G1) scaled so the first nonzero coefficient of G1 (or F1) is 1."""
        lead = next((c for c in self.G1 if c != 0), None)
        if lead is None:
            lead = next(c for c in self.F1 if c != 0)
        inv = self.field.inv(lead)
        F1 = tuple(self.field.mul(inv, c) for c in self.F1)
        G1 = tuple(self.field.mul(inv, c) for c in self.G1)
        return F1, G1

    def map_str(self) -> str:
        F1, G1 = self.canonical_pair()
        num = poly_str(F1, var="z")
        den = poly_str(G1, var="z")
        if den == "1":
            return num
        if any(c in num for c in "+-"):
            num = f"({num})"
        return f"{num}/({den})"


def eval_reduced(field: FqField, F1, G1, point: int | None) -> int | None:
    """Apply [F1 : G1] to a point of P^1 over any extension field.

    Points are encoded as field elements (affine) or None (infinity); the
    coefficient encodings of F1, G1 embed into every extension of F_p
    unchanged.
    """
    from .finitefield import form_eval

    if point is None:
        a, b = field.of_int(1), 0
    else:
        a, b = point, field.of_int(1)
    fa = form_eval(field, F1, a, b)
    ga = form_eval(field, G1, a, b)
    if fa == 0 and ga == 0:
        raise InternalError("coprime reduced forms cannot vanish together")
    if ga == 0:
        return None
    return field.mul(fa, field.inv(ga))


def reduce_map(integral: IntegralModel) -> ReducedMap:
    """Reduce a p-primitive model mod p and split off the common form factor."""
    from .finitefield import form_gcd_split, form_is_zero

    p = integral.p
    field = prime_field_of(p)
    rawF = tuple(c % p for c in integral.F)
    rawG = tuple(c % p for c in integral.G)
    if form_is_zero(rawF) and form_is_zero(rawG):
        raise InternalError("a p-primitive model cannot reduce to the zero pair")
    if form_is_zero(rawF):
        common, F1, G1 = _degenerate_split(field, rawG)
    elif form_is_zero(rawG):
        common, G1, F1 = _degenerate_split(field, rawF)
    else:
        common, F1, G1 = form_gcd_split(field, rawF, rawG)
    return ReducedMap(
        field=field,
        p=p,
        d=integral.d,
        raw_F=rawF,
        raw_G=rawG,
        common=common,
        F1=F1,
        G1=G1,
        reduced_degree=integral.d - (len(common) - 1),
    )


def _degenerate_split(field, nonzero_form):
    """Split when one raw form vanishes: the common factor is the whole form.

    Returns (common, zero_part, unit_part) with common scaled so its
    dehomogenization is monic; zero_part * common = 0 and
    unit_part * common = nonzero_form.
    """
    from .finitefield import FqPoly

    lc = FqPoly(field, nonzero_form).lc
    inv = field.inv(lc)
    common = tuple(field.mul(inv, c) for c in nonzero_form)
    return common, (0,), (lc,)
