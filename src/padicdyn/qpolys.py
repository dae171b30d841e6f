"""Dense univariate polynomials over Z, binary forms, and exact resultants.

Every polynomial the package builds has integer coefficients: parsed
numerators and denominators, iterates, conjugates and fiber forms.  So
the arithmetic here is over Z, and rationals enter only at the edges of
the package (reading input, rendering output); ``rational_str`` and
``poly_str`` render ints and Fractions alike.

Polynomials are int tuples, lowest degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  Binary forms of a fixed
formal degree are int tuples whose entry i is the coefficient of
X^i Y^(d-i), which keep their length.  Both multiply with ``_form_mul``,
polynomials add with ``_add``, and ``QPoly`` is only a record around a
trimmed tuple.  ``compose_forms`` is the package's one substitution of
a pair of forms into forms; it takes the ring's product, so the reduced
iterates over F_p are composed by it too, with ``finitefield._mul``.

``QPoly.gcd`` is the primitive polynomial remainder sequence (Cohen, GTM
138, Ch. 3): pseudo-remainders, each divided by its content, so the gcd
over Q comes out as a primitive integer polynomial.  Resultants
are the Sylvester determinant with the rows of the first argument on top:

    Res(f, g) = lc(f)^deg(g) * prod g(alpha_i)   over the roots of f.

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
from typing import NamedTuple

from .errors import InputError


def _int_tuple(coeffs) -> tuple[int, ...]:
    """Coefficients as ints without trailing zeros; a non-integer raises TypeError."""
    cs = [index(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _form_mul(A, B) -> tuple[int, ...]:
    """Product of two integer coefficient lists, length len(A) + len(B) - 1 (0 for an empty one)."""
    out = [0] * (len(A) + len(B) - 1)
    for i, x in enumerate(A):
        if x:
            for j, y in enumerate(B):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def _taylor_shift(A) -> tuple[int, ...]:
    """A(x - 1), so the form A(X - Y, Y): Horner's Taylor shift, additions only."""
    out = list(A)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] -= out[j + 1]
    return tuple(out)


def _add(a, b) -> tuple[int, ...]:
    """Sum of two integer coefficient lists, without trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def compose_forms(forms, pair, mul=_form_mul) -> list[tuple[int, ...]]:
    """Each integer form F of degree d in ``forms`` at (X, Y) = (A, B).

    A and B are forms of one formal degree e; the monomials A^i B^(d-i)
    are built once by ``mul`` and shared by all the forms, which add up
    c * monomial as integers.  ``mul`` is the product of the coefficient
    ring: over Z the default; over F_p ``partial(finitefield._mul, field)``,
    which keeps the monomials reduced, and the caller reduces each sum.
    """
    A, B = pair
    d = len(forms[0]) - 1
    pa, pb = [(1,)], [(1,)]
    for _ in range(d):
        pa.append(mul(pa[-1], A))
        pb.append(mul(pb[-1], B))
    monomials = [mul(pa[i], pb[d - i]) for i in range(d + 1)]
    out = []
    for coeffs in forms:
        acc = [0] * (d * (len(A) - 1) + 1)
        for c, term in zip(coeffs, monomials):
            if c:
                for k, v in enumerate(term):
                    acc[k] += c * v
        out.append(tuple(acc))
    return out


class _QPolyFields(NamedTuple):
    coeffs: tuple


class QPoly(_QPolyFields):
    """A polynomial over Z as a record: trimmed int coefficients, ascending.

    The arithmetic is on tuples (``_form_mul``, ``_add``); the record
    stays because the benchmark's tracer (``perfbench/layers.py``) wraps
    ``QPoly.gcd`` by name and reads ``args[0].degree`` and ``.coeffs`` of
    ``discriminant``.  A non-integer coefficient raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        return super().__new__(cls, _int_tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def gcd(self, other: "QPoly") -> "QPoly":
        """gcd over Q as a primitive integer polynomial with lc > 0 (0 for two zeros)."""
        a, b = _primitive(self.coeffs), _primitive(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:  # a constant b is [1] here, and then so is the gcd
            a, b = b, _primitive(_pseudo_remainder(a, b))
        return QPoly(b or a)


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
    """R with lc(b)^max(deg a - deg b + 1, 0) * a = Q * b + R and deg R < deg b."""
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
    if e > 0:
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


def discriminant(f: QPoly) -> int:
    """Disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), for deg f >= 1.

    lc(f) divides Res(f, f') exactly: the first column of the Sylvester
    matrix holds lc(f) and n*lc(f) and nothing else.
    """
    cs = f.coeffs
    n = len(cs) - 1
    if n < 1:
        raise InputError("discriminant requires degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * (_integer_resultant(cs, [i * c for i, c in enumerate(cs)][1:]) // cs[-1])


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
