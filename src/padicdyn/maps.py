"""Rational self-maps of P^1 over Q.

A map phi = [F : G] is stored as a pair of degree-d binary forms,
written in ascending tuples: entry i of F is the coefficient of
X^i Y^(d-i).  Models are canonicalized on construction (integer
coefficients, joint content 1, first nonzero coefficient of G positive),
so two constructions of the same projective map compare equal.  Content
1 means some coefficient is prime to p at every prime p, so a model is
its own p-primitive integral model everywhere, which ``reduce_map`` reads.

The point at infinity is uniformly [1 : 0]; no code path dehomogenizes
before it has to.  Points and forms hold ints; rationals are read only
at the edges (``ProjPointQ.from_value``, the canonicalization of a
model, ``Mobius`` entries) and printed by ``qpolys.rational_str``.

The parser works on unreduced int-tuple fractions with the ``qpolys``
kernel, and checks each product and power against DEGREE_CAP and
PARSE_HEIGHT_CAP_BITS first.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, InternalError, ResourceLimitError
from .finitefield import FqField, form_gcd_split, form_is_zero, horner, prime_field_of
from .padics import require_prime
from .qpolys import QPoly, _add, _form_mul, binary_form_resultant, compose_forms, int_str
from .qpolys import poly_str, rational_str

DEGREE_CAP = 4096
HEIGHT_CAP_BITS = 10**6
# the most bits of a parsed coefficient: a degree-4 map this high analyzes in about
# 5 s on a 2-core VM, most of it in its resultant
PARSE_HEIGHT_CAP_BITS = 10**5

_RATIONAL_TEXT = re.compile(r"(?P<sign>[+-]?)(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?")


class _ProjPointQFields(NamedTuple):
    a: int
    b: int


class ProjPointQ(_ProjPointQFields):
    """A point of P^1(Q) as a coprime integer pair [a : b], b >= 0.

    Built from two ints (a Fraction raises TypeError; ``from_value``
    reads rationals).  Canonical form: gcd(|a|, |b|) = 1 and b > 0,
    except infinity which is exactly [1 : 0].
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        a, b = operator.index(a), operator.index(b)
        if a == 0 and b == 0:
            raise InputError("projective point needs a nonzero coordinate")
        g = math.gcd(a, b)
        a //= g
        b //= g
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        return super().__new__(cls, a, b)

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
            plain = _RATIONAL_TEXT.fullmatch(s)
            if plain:
                # digits are read directly: Fraction(s) refuses more than 4,300
                a = _int_of_digits(plain["num"])
                b = _int_of_digits(plain["den"] or "1")
                if b:
                    return cls(-a if plain["sign"] == "-" else a, b)
            try:
                x = Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"cannot read {x!r} as a point of P^1(Q)") from exc
        x = Fraction(x)
        return cls(x.numerator, x.denominator)

    @property
    def is_infinity(self) -> bool:
        return self.b == 0

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

    def __str__(self):
        if self.b == 0:
            return "inf"
        return rational_str(Fraction(self.a, self.b))

    def __repr__(self):
        return f"ProjPointQ({self})"


class _MobiusFields(NamedTuple):
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction


class Mobius(_MobiusFields):
    """A fractional-linear map z -> (alpha z + beta)/(gamma z + delta).

    Entries are Fractions: a Mobius map names a conjugation in input and
    output, and ``conjugate_map`` clears its denominators before use.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, gamma, delta):
        vals = tuple(Fraction(v) for v in (alpha, beta, gamma, delta))
        if vals[0] * vals[3] - vals[1] * vals[2] == 0:
            raise InputError("Mobius matrix must have nonzero determinant")
        return super().__new__(cls, *vals)

    @classmethod
    def inversion(cls) -> "Mobius":
        return cls(0, 1, 1, 0)

    def formula(self) -> str:
        num = poly_str((self.beta, self.alpha), var="z")
        den = poly_str((self.delta, self.gamma), var="z")
        if den == "1":
            return num
        return f"({num})/({den})"

    def __repr__(self):
        return f"Mobius({self.formula()})"


def _canonical_integer_pair(F, G):
    """Scale a rational form pair jointly: integer, content 1, fixed sign.

    Coefficients are ints or Fractions.  The sign is chosen so the first
    nonzero coefficient of G (or of F when G vanishes) is positive, which
    keeps denominators positive in display.
    """
    allc = (*F, *G)
    den = math.lcm(*(c.denominator for c in allc))
    ints = [c.numerator * (den // c.denominator) for c in allc]
    g = math.gcd(*ints)
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


class _RationalMapModelFields(NamedTuple):
    d: int
    F: tuple
    G: tuple


class RationalMapModel(_RationalMapModelFields):
    """phi = [F : G] of degree d, canonical integer coefficients."""

    __slots__ = ()

    def __new__(cls, F_coeffs, G_coeffs):
        if len(F_coeffs) != len(G_coeffs):
            raise InputError("F and G must share a formal degree")
        d = len(F_coeffs) - 1
        if d < 1:
            raise InputError("map must have degree >= 1")
        return super().__new__(cls, d, *_canonical_integer_pair(F_coeffs, G_coeffs))

    def __getnewargs__(self):
        # copy and pickle rebuild a model as it is built: from its two forms
        return self.F, self.G

    def resultant(self) -> int:
        return binary_form_resultant(self.F, self.G, self.d)

    def map_str(self) -> str:
        return map_str(self.F, self.G)

    def __repr__(self):
        return f"RationalMapModel({self.map_str()})"


def map_str(F, G) -> str:
    """The map [F : G] as an expression in z that ``parse_map`` reads back."""
    num = poly_str(F, var="z")
    den = poly_str(G, var="z")
    if den == "1":
        return num
    if any(c in num for c in "+-"):
        num = f"({num})"
    return f"{num}/({den})"


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
        if ch.isdecimal():  # the digits int() reads: not isdigit, which takes '²'
            j = i
            while j < n and text[j].isdecimal():
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


def _bits(a) -> int:
    return max(map(abs, a)).bit_length() if a else 0


def _check_caps(degree: int, bits: int) -> None:
    if degree > DEGREE_CAP:
        raise ResourceLimitError(f"expression degree exceeds cap {DEGREE_CAP}")
    if bits > PARSE_HEIGHT_CAP_BITS:
        raise ResourceLimitError(
            f"map parser: a coefficient of up to {bits} bits exceeds cap {PARSE_HEIGHT_CAP_BITS}"
        )


def _mul(a, b) -> tuple:
    """a * b, refused before it is formed when it would pass a cap."""
    if not a or not b:
        return ()
    if a == (1,) or b == (1,):  # most products the parser asks for are by a denominator of 1
        return b if a == (1,) else a
    _check_caps(len(a) + len(b) - 2, _bits(a) + _bits(b))
    return _form_mul(a, b)


def _power(a, e: int) -> tuple:
    """a^e for e >= 0 by square-and-multiply from the top bit of e."""
    out = (1,)
    for bit in bin(e)[2:]:
        out = _mul(out, out)
        if bit == "1":
            out = _mul(out, a)
    return out


class _RatFunc:
    """An unreduced num/den of trimmed int tuples; div and pow refuse a zero den."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: tuple):
        self.num = num
        self.den = den

    def add(self, other):
        return _RatFunc(
            _add(_mul(self.num, other.den), _mul(other.num, self.den)), _mul(self.den, other.den)
        )

    def mul(self, other):
        return _RatFunc(_mul(self.num, other.num), _mul(self.den, other.den))

    def div(self, other):
        if not other.num:
            raise InputError("division by the zero rational function")
        return _RatFunc(_mul(self.num, other.den), _mul(self.den, other.num))

    def neg(self):
        return _RatFunc(tuple(-c for c in self.num), self.den)

    def pow(self, e: int):
        n, parts = abs(e), (self.num, self.den)
        _check_caps(n * (max(map(len, parts)) - 1), n * max(map(_bits, parts)))
        if e >= 0:
            return _RatFunc(_power(self.num, e), _power(self.den, e))
        if not self.num:
            raise InputError("negative power of the zero function")
        return _RatFunc(_power(self.den, -e), _power(self.num, -e))


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
            out = out.add(rhs if op == "+" else rhs.neg())
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
            value = self.take()[1]
            return _RatFunc((value,) if value else (), (1,))
        if kind == "Z":
            self.take()
            return _RatFunc((0, 1), (1,))
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
    if not num:
        raise InputError("map is identically zero (degree 0)")
    g = QPoly(num).gcd(QPoly(den)).coeffs
    if len(g) > 1:
        raise InputError(
            "numerator and denominator share a common factor: "
            + poly_str([Fraction(c, g[-1]) for c in g], var="z")
        )
    d = max(len(num), len(den)) - 1
    if d < 1:
        raise InputError("map must have degree >= 1, got a constant")
    return RationalMapModel(num + (0,) * (d + 1 - len(num)), den + (0,) * (d + 1 - len(den)))


# -- integral models and reduction -------------------------------------------


def normalize_integral(model: RationalMapModel, p: int) -> RationalMapModel:
    """The canonical model itself.  Nothing in the package calls it; it stays only because
    the benchmark's span list wraps it by name, and goes when that list does."""
    return model


def compose_map(outer: RationalMapModel, inner: RationalMapModel) -> RationalMapModel:
    """The canonical model of outer o inner.

    Canonical models are unique up to sign and content, so composing
    canonical models step by step gives the same model as composing the
    raw forms and canonicalizing once.
    """
    return RationalMapModel(*compose_forms((outer.F, outer.G), (inner.F, inner.G)))


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
    """The model of M o phi o M^{-1}, content-normalized.

    M's entries are cleared of denominators by their positive lcm first:
    scaling M by lambda scales both new forms by lambda^(d+1), a factor
    the canonical model divides out again, content and sign both.
    """
    entries = (M.alpha, M.beta, M.gamma, M.delta)
    den = math.lcm(*(e.denominator for e in entries))
    matrix = (e.numerator * (den // e.denominator) for e in entries)
    return RationalMapModel(*conjugate_forms(model, *matrix))


def conjugate_forms(model: RationalMapModel, a: int, b: int, c: int, d: int) -> tuple:
    """The unscaled integer forms of M o phi o M^{-1}, M = [[a, b], [c, d]].

    Their resultant is det(M)^(d^2+d) Res(phi) for phi of degree d.
    """
    # M^{-1} acts on [X : Y] by (X, Y) -> (d X - b Y, -c X + a Y), up to det M
    FU, GU = compose_forms((model.F, model.G), ((-b, d), (a, -c)))
    return (
        tuple(a * f + b * g for f, g in zip(FU, GU)),
        tuple(c * f + d * g for f, g in zip(FU, GU)),
    )


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


class ReducedMap(NamedTuple):
    """The reduction of a p-primitive model: its forms mod p are common * F1
    and common * G1, and the self-map of P^1 over F_p that the model
    reduces to is [F1 : G1], of degree reduced_degree = d - deg(common).
    """

    field: FqField
    p: int
    common: tuple
    F1: tuple
    G1: tuple
    reduced_degree: int

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
        return map_str(*self.canonical_pair())


def eval_reduced(field: FqField, F1, G1, point: int | None) -> int | None:
    """Apply [F1 : G1] to a point of P^1 over any extension field.

    Points are encoded as field elements (affine) or None (infinity); the
    coefficient encodings of F1, G1 embed into every extension of F_p
    unchanged.  An affine point is evaluated by Horner's rule on the
    dehomogenized forms; at infinity the forms read their top coefficients.
    """
    if point is None:
        fa, ga = F1[-1], G1[-1]
    else:
        fa, ga = horner(field, F1, point), horner(field, G1, point)
    if fa == 0 and ga == 0:
        raise InternalError("coprime reduced forms cannot vanish together")
    if ga == 0:
        return None
    if field.m == 1:
        return fa * field.inv(ga) % field.p
    return field.mul(fa, field.inv(ga))


def reduce_map(model: RationalMapModel, p: int) -> ReducedMap:
    """Reduce a model mod p and split off the common form factor.

    The canonical model has content 1, so it is p-primitive at every p.
    When one raw form vanishes the common factor is the other one, and the
    reduced map is constant.
    """
    field = prime_field_of(p)
    rawF = tuple(c % p for c in model.F)
    rawG = tuple(c % p for c in model.G)
    if form_is_zero(rawF) and form_is_zero(rawG):
        raise InternalError("a p-primitive model cannot reduce to the zero pair")
    common, F1, G1 = form_gcd_split(field, rawF, rawG)
    return ReducedMap(
        field=field,
        p=p,
        common=common,
        F1=F1,
        G1=G1,
        reduced_degree=model.d - (len(common) - 1),
    )
