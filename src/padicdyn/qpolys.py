"""Dense univariate polynomials over Z, binary forms, and exact resultants.

Every polynomial the package builds has integer coefficients: parsed
numerators and denominators, iterates, conjugates and fiber forms.  So
the arithmetic here is over Z, and rationals enter only at the edges of
the package (reading input, rendering output); ``rational_str`` and
``poly_str`` render ints and Fractions alike.

Coefficient lists are stored lowest degree first, as tuples of int, with
no trailing zeros; the zero polynomial is the empty tuple.  Binary forms
of a fixed formal degree are plain int tuples whose entry i is the
coefficient of X^i Y^(d-i); they share one product routine with
``QPoly`` and keep their length where ``QPoly`` trims.

``QPoly.gcd`` is the primitive polynomial remainder sequence (Cohen, GTM
138, Ch. 3): pseudo-remainders, each divided by its content, so the gcd
over Q comes out as a primitive integer polynomial.  Resultants
are the Sylvester determinant with the rows of the first argument on top:

    resultant(f, g) = lc(f)^deg(g) * prod g(alpha_i)   over the roots of f.

They are computed by the subresultant polynomial remainder sequence
over Z (Brown and Traub, J. ACM 18, 1971; Cohen, GTM 138, Alg. 3.3.7),
whose exact divisions keep every coefficient the size of a minor of the
Sylvester matrix.  Discriminants are Res(f, f') up to sign, divided
exactly by lc(f); ``form_discriminant`` extends them to binary forms of
a stated formal degree, where a vanishing top coefficient puts a root at
infinity.  ``binary_form_resultant`` gives the same determinant
for homogeneous binary forms of a stated formal degree d, so vanishing
top coefficients count (the determinant is then 0 exactly when the forms
share a projective root, including the point at infinity); it is read
off the affine resultant with a leading-coefficient factor for the roots
at infinity.  ``det_bareiss`` (fraction-free elimination) is no longer
called by the package; it stays because the layer tracer of
``perfbench`` wraps it by name.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import index

from .errors import InputError


def _int_tuple(coeffs) -> tuple[int, ...]:
    """Coefficients as ints without trailing zeros; a non-integer raises TypeError."""
    cs = [index(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _form_mul(A, B) -> tuple[int, ...]:
    """Product of two nonempty integer coefficient lists, length len(A) + len(B) - 1."""
    out = [0] * (len(A) + len(B) - 1)
    for i, x in enumerate(A):
        if x:
            for j, y in enumerate(B):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def compose_forms(forms, pair) -> list[tuple[int, ...]]:
    """Each integer form F of degree d in ``forms`` at (X, Y) = (A, B).

    A and B are integer forms of one formal degree e; the monomials
    A^i B^(d-i) are built once and shared by all the forms.
    """
    A, B = pair
    d = len(forms[0]) - 1
    pa, pb = [(1,)], [(1,)]
    for _ in range(d):
        pa.append(_form_mul(pa[-1], A))
        pb.append(_form_mul(pb[-1], B))
    monomials = [_form_mul(pa[i], pb[d - i]) for i in range(d + 1)]
    out = []
    for coeffs in forms:
        acc = [0] * (d * (len(A) - 1) + 1)
        for c, term in zip(coeffs, monomials):
            if c:
                for k, v in enumerate(term):
                    acc[k] += c * v
        out.append(tuple(acc))
    return out


class QPoly:
    """Polynomial over Z (read as a polynomial over Q), ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _int_tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("QPoly is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({poly_str(self.coeffs)})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not self.coeffs or not other.coeffs:
            return QPoly()
        return QPoly(_form_mul(self.coeffs, other.coeffs))

    def __pow__(self, e: int) -> "QPoly":
        if e < 0:
            raise InputError("negative polynomial power")
        out = QPoly([1])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: "QPoly") -> "QPoly":
        """gcd over Q as a primitive integer polynomial with lc > 0 (0 for two zeros)."""
        a, b = _primitive(self.coeffs), _primitive(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        return QPoly(a)


def _primitive(cs) -> list[int]:
    """cs divided by its content, signed so the leading coefficient is positive."""
    if not cs:
        return []
    g = gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


# str() is exact below 640 digits, the lowest digit limit an interpreter
# accepts (sys.set_int_max_str_digits); 2000 bits is at most 603 digits
_STR_BITS = 2000


@lru_cache(maxsize=None)
def _ten_to_two_to(j: int) -> int:
    return 10 ** (1 << j)


def int_str(n: int) -> str:
    """Decimal digits of n, exact at any size.

    str() refuses integers past the interpreter's digit limit (4300 by
    default, sys.int_info.default_max_str_digits).  Above _STR_BITS the
    number is split on 10^(2^j) with 10^(2^j) <= n < 10^(2^(j+1)), so both
    halves have at most 2^j digits, and the low half is zero-padded.
    """
    if n < 0:
        return "-" + int_str(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    j = 0
    while _ten_to_two_to(j + 1) <= n:
        j += 1
    hi, lo = divmod(n, _ten_to_two_to(j))
    return int_str(hi) + int_str(lo).rjust(1 << j, "0")


def rational_str(c) -> str:
    """"num/den", or "num" for an integer, exact at any size (int or Fraction)."""
    if c.denominator == 1:
        return int_str(c.numerator)
    return f"{int_str(c.numerator)}/{int_str(c.denominator)}"


def poly_str(coeffs, var: str = "T") -> str:
    """Readable rendering, highest degree first; coefficients are ints or Fractions."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return "0"
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if c == 0:
            continue
        if i == 0:
            term = rational_str(c)
        else:
            mag = "" if abs(c) == 1 else f"{rational_str(abs(c))}*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
            if c < 0:
                term = "-" + term
            elif parts:
                term = "+" + term
            parts.append(term)
            continue
        if c > 0 and parts:
            term = "+" + term
        parts.append(term)
    return "".join(parts) or "0"


# -- determinants ----------------------------------------------------------


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """R with lc(b)^(deg a - deg b + 1) * a = Q * b + R and deg R < deg b."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    e = len(a) - db
    while r and len(r) - 1 >= db:
        lr, shift = r[-1], len(r) - 1 - db
        r = [c * lb for c in r]
        for j, c in enumerate(b):
            r[shift + j] -= lr * c
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    if e:
        scale = lb**e
        r = [c * scale for c in r]
    return r


def _integer_resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) of nonzero integer polynomials, ascending, true degrees.

    Subresultant PRS (Cohen, Alg. 3.3.7, without its content step): the
    divisions by g*h^delta and h^(delta-1) are exact over Z and keep the
    coefficients the size of subresultants.
    """
    if len(a) == 1:
        return a[0] ** (len(b) - 1)
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            s = -1
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        div = g * h**delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta else h
    da = len(a) - 1
    return s * (b[0] ** da // h ** (da - 1))


def resultant(f: QPoly, g: QPoly) -> int:
    """Res(f, g) with true degrees: the Sylvester determinant, f's rows first."""
    if f.is_zero() or g.is_zero():
        raise InputError("resultant of the zero polynomial is undefined")
    return _integer_resultant(list(f.coeffs), list(g.coeffs))


def discriminant(f: QPoly) -> int:
    """Disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), for deg f >= 1.

    lc(f) divides Res(f, f') exactly: the first column of the Sylvester
    matrix holds lc(f) and n*lc(f) and nothing else.
    """
    n = f.degree
    if n < 1:
        raise InputError("discriminant requires degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * (resultant(f, f.derivative()) // f.lc)


def form_discriminant(coeffs) -> int:
    """Disc_d of an integer binary form of formal degree d = len(coeffs) - 1.

    The universal discriminant: a polynomial over Z in the coefficients,
    homogeneous of degree 2d - 2, equal to Disc(f) when the top
    coefficient a_d is nonzero.  When a_d = 0 it is a_(d-1)^2 times
    Disc_(d-1) of the rest, so it is 0 exactly when the form has a
    repeated projective root (infinity counts when a_d = a_(d-1) = 0).
    Disc_1 is the constant 1.
    """
    d = len(coeffs) - 1
    if d < 1:
        raise InputError("formal degree must be >= 1")
    if d == 1:
        return 1
    if coeffs[-1]:
        return discriminant(QPoly(coeffs))
    return coeffs[-2] ** 2 * discriminant(QPoly(coeffs[:-1])) if coeffs[-2] else 0


def binary_form_resultant(f_coeffs, g_coeffs, d: int) -> int:
    """Resultant of two integer binary forms of formal degree d.

    Coefficient lists are ascending: entry i is the coefficient of
    X^i Y^(d-i).  The result is the determinant of the 2d x 2d Sylvester
    matrix built from the formal coefficient lists (F rows on top), which
    scales by lambda^(2d) when both forms are scaled by lambda.  It is
    read off the affine resultant: when F has full degree and G affine
    degree e, the top d - e rows of G are zero and the determinant is
    lc(F)^(d-e) * Res(F, G); when only G has full degree the two row
    blocks swap first, with sign (-1)^(d*(d - deg F)); when neither has
    full degree both forms vanish at infinity and the determinant is 0.
    """
    if d < 1:
        raise InputError("formal degree must be >= 1")
    if len(f_coeffs) != d + 1 or len(g_coeffs) != d + 1:
        raise InputError(f"coefficient lists must have length d+1 = {d + 1}")
    fi, gi = list(_int_tuple(f_coeffs)), list(_int_tuple(g_coeffs))
    if not fi or not gi:
        return 0
    if len(fi) == d + 1:
        return fi[-1] ** (d + 1 - len(gi)) * _integer_resultant(fi, gi)
    if len(gi) == d + 1:
        sign = -1 if d * (d + 1 - len(fi)) % 2 else 1
        return sign * gi[-1] ** (d + 1 - len(fi)) * _integer_resultant(fi, gi)
    return 0
