"""Finite fields F_{p^m}, polynomials over them, and binary forms.

Field elements are encoded as plain ints in range(p^m): the base-p digits
of the integer are the coefficients of the residue polynomial in the
generator, lowest degree first.  The prime subfield is therefore encoded
by the ints 0..p-1 in every extension, which makes lifting coefficient
lists between F_p and F_{p^m} a no-op.

An FqField computes on the digits, and inverts by the extended Euclidean
algorithm over F_p on the polynomial kernel below.  Prime fields come
from ``prime_field_of`` and every extension from ``residue_field``, which
builds F_p[T]/(c) once per (p, c) and keeps the last 32.  A postcritical
walk runs in its point's own residue field; a preimage tree runs in the
one ``fq_extension`` names by the first irreducible modulus of degree m
below a size cap.  Extensions of at most TABLE_Q = 2^12 elements
carry exp/log/Zech tables that make every operation a list lookup on the
same encoding.  The tables cost q - 1 digit multiplications to build
(about 0.07 s at 2^12 and 1.4 s at 2^16 on a 2-core VM), which a tree
in a larger field would seldom repay.

Polynomials are ascending lists of encoded elements, and the kernel
works on those lists alone.  A product (``_mul``) and a division
(``_divmod``) test once whether the field is F_p: there they add rows as
integers and reduce mod p inline, elsewhere they run one row operation,
``addmul(acc, k, c, row)``, per row, with table lookups inline in a log
field and element calls on digits.  Gcd, modular powers, squarefree
decomposition, distinct-degree splitting and Cantor-Zassenhaus
equal-degree splitting (von zur Gathen-Gerhard, Modern Computer Algebra,
ch. 14) are sequences of those two, so no polynomial object is built per
step.  The functions at the edges take a field and a list too, except
``fq_factor``, which takes an FqPoly record (field, coeffs) and returns
coefficient tuples.  Equal-degree splitting draws from a fixed-seed
random stream; factors and roots are returned sorted, so the output does
not depend on the stream.  Callers that need only the factor degrees
stop after the distinct-degree step.  ``split_roots`` serves only the
tree climb; at odd p it solves a quadratic by the quadratic formula with
one ``sqrt``, which a log field reads off by halving the log and other
fields split off z^2 - a by Cantor-Zassenhaus.

Binary forms of a fixed formal degree D are ascending tuples of length
D + 1 (entry i is the coefficient of X^i Y^(D-i)); they are never trimmed,
since vanishing top coefficients encode roots at infinity.  Forms and
polynomials share one product routine, ``_mul``, and forms over F_p are
composed by ``qpolys.compose_forms`` with ``_mul`` as the ring's product;
the integer sums are then reduced mod p.  Encoded elements of F_{p^m}
do not add as integers, so ``iterate_forms`` refuses an extension field.
The multiplicity of infinity, D minus the affine degree, is read in one
place, ``form_dehomogenize``.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from typing import NamedTuple

from .errors import InputError, InternalError, ResourceLimitError
from .padics import require_prime
from .qpolys import compose_forms, poly_str

FIELD_SIZE_CAP = 1 << 20
TABLE_Q = 1 << 12


class FqField:
    """The field F_{p^m} presented as F_p[T]/(modulus)."""

    __slots__ = ("p", "m", "q", "modulus", "_red")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        require_prime(p)
        if m < 1:
            raise InputError("extension degree must be >= 1")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise InputError("modulus must be monic of degree m")
        if m >= 2 and not is_irreducible(prime_field_of(p), modulus):
            raise InputError("modulus is not irreducible over F_p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", p**m)
        object.__setattr__(self, "modulus", modulus)
        # digit vectors of T^m .. T^(2m-2) modulo the modulus
        red = []
        if m > 1:
            top = [(-c) % p for c in modulus[:m]]
            red.append(top)
            for _ in range(m - 2):
                prev = red[-1]
                nxt = [0] + prev[: m - 1]
                carry = prev[m - 1]
                if carry:
                    nxt = [(nxt[i] + carry * top[i]) % p for i in range(m)]
                red.append(nxt)
        object.__setattr__(self, "_red", tuple(tuple(r) for r in red))

    def __setattr__(self, *args):
        raise AttributeError("FqField is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.m}; {poly_str(self.modulus)})"

    # -- element arithmetic on int encodings --------------------------------

    def decode(self, a: int) -> list[int]:
        p = self.p
        digits = []
        for _ in range(self.m):
            digits.append(a % p)
            a //= p
        return digits

    def encode(self, digits) -> int:
        a = 0
        for d in reversed(digits):
            a = a * self.p + d % self.p
        return a

    def of_int(self, c: int) -> int:
        """Image of an integer under Z -> F_p -> F_q."""
        return c % self.p

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        da, db = self.decode(a), self.decode(b)
        return self.encode([x + y for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return self.encode([-x for x in self.decode(a)])

    def mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        if a == 0 or b == 0:
            return 0
        da, db = self.decode(a), self.decode(b)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        out = [c % p for c in conv[:m]]
        for k in range(m, 2 * m - 1):
            c = conv[k] % p
            if c:
                row = self._red[k - m]
                for i in range(m):
                    out[i] = (out[i] + c * row[i]) % p
        return self.encode(out)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out, base = self.of_int(1), a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        if self.m == 1:
            return pow(a, -1, self.p)
        # extended Euclid over F_p: s * a = r modulo the modulus throughout
        F = prime_field_of(self.p)
        r0, r1, s0, s1 = self.modulus, _trim(self.decode(a)), [], [1]
        while len(r1) > 1:
            quot, rem = _divmod(F, r0, r1)
            r0, r1, s0, s1 = r1, rem, s1, _sub(F, s0, _mul(F, quot, s1))
        return self.encode(_mul(F, s1, [pow(r1[0], -1, self.p)]))

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def sqrt(self, a: int) -> int | None:
        """A square root of a, or None when a is not a square.

        In characteristic 2 it is a^(q/2).  At odd p Euler's criterion
        decides, and a root of z^2 - a is split off by Cantor-Zassenhaus.
        """
        if not a or self.p == 2:
            return self.pow(a, self.q // 2)
        if self.pow(a, (self.q - 1) // 2) != 1:
            return None
        return self.neg(_equal_degree(self, [self.neg(a), 0, 1], 1, random.Random(0))[0][0])

    def addmul(self, acc: list, k: int, c: int, row) -> None:
        """acc[k + j] += c * row[j] for every j, the one row operation of the
        polynomial loops: mod p inline over F_p, add and mul calls on digits."""
        if self.m == 1:
            p = self.p
            for j, r in enumerate(row, k):
                acc[j] = (acc[j] + c * r) % p
            return
        add, mul = self.add, self.mul
        for j, r in enumerate(row, k):
            if r:
                acc[j] = add(acc[j], mul(c, r))


class _LogField(FqField):
    """F_{p^m} as FqField, with every operation a lookup in log tables.

    For a generator g, exp[k] encodes g^k, log inverts it on the nonzero
    elements, zech[k] = log(1 + g^k) and neg negates.  exp and zech are
    doubled, so a sum of two logs, or its difference with a log (negative
    ones count from the end), indexes them with no reduction mod q - 1;
    where 1 + g^k = 0, zech[k] = 2q - 2 points into zeros appended to exp.
    The encoding is FqField's, so results are the same ints.  Building
    costs q - 1 multiplications by g; a Zech entry is O(1), since 1 + a
    changes only the lowest base-p digit of a.
    """

    __slots__ = ("_exp", "_log", "_zech", "_neg")

    def __init__(self, field: FqField):
        # field's modulus is already proved irreducible; share its presentation
        for name in ("p", "m", "q", "modulus", "_red"):
            object.__setattr__(self, name, getattr(field, name))
        p, q = field.p, field.q
        g = next(
            c
            for c in range(2, q)
            if all(field.pow(c, (q - 1) // r) != 1 for r in _prime_divisors(q - 1))
        )
        exp = [1]
        for _ in range(q - 2):
            exp.append(field.mul(exp[-1], g))
        log = [0] * q
        for k, a in enumerate(exp):
            log[a] = k
        zech = []
        for a in exp:
            one_plus = a - a % p + (a + 1) % p
            zech.append(log[one_plus] if one_plus else 2 * q - 2)
        half = 0 if p == 2 else (q - 1) // 2  # -1 = g^half
        exp += exp + [0] * (q - 1)
        zech += zech
        neg = [0] * q
        for k in range(q - 1):
            neg[exp[k]] = exp[k + half]
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_zech", zech)
        object.__setattr__(self, "_neg", neg)

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._exp[self.q - 1 - self._log[a]]

    def frobenius(self, a: int) -> int:
        return self._exp[self._log[a] * self.p % (self.q - 1)] if a else 0

    def sqrt(self, a: int) -> int | None:
        """At odd p the squares are the even powers of g: halve the log."""
        if not a or self.p == 2:
            return super().sqrt(a)
        la = self._log[a]
        return None if la & 1 else self._exp[la >> 1]

    def addmul(self, acc: list, k: int, c: int, row) -> None:
        """acc[k + j] += c * row[j] for every j, by table lookups inline."""
        if not c:
            return
        exp, log, zech = self._exp, self._log, self._zech
        lc = log[c]
        for j, r in enumerate(row, k):
            if r:
                lt = lc + log[r]  # log of c * r, at most 2q - 4
                a = acc[j]
                if a:  # a + c*r = g^la * (1 + g^(lt - la))
                    la = log[a]
                    acc[j] = exp[la + zech[lt - la]]
                else:
                    acc[j] = exp[lt]


@lru_cache(maxsize=None)
def prime_field_of(p: int) -> FqField:
    return FqField(p, 1, (0, 1))


def fq_extension(p: int, m: int, *, cap: int = FIELD_SIZE_CAP) -> FqField:
    """F_{p^m} with the lexicographically first monic irreducible modulus.

    Candidates T^m + c_{m-1} T^(m-1) + ... + c_0 are ordered by the integer
    encoding sum(c_i p^i) of their lower coefficients, so the search is
    deterministic.  For m = 1 the modulus is T itself.  The modulus is
    cached per (p, m), and the field is ``residue_field``'s.
    """
    require_prime(p)
    if m < 1:
        raise InputError("extension degree must be >= 1")
    if m >= cap.bit_length() or p**m > cap:  # p^m >= 2^m, so huge m never builds p^m
        raise ResourceLimitError(f"field size {p}^{m} exceeds cap {cap}")
    return residue_field(p, _first_modulus(p, m))


@lru_cache
def _first_modulus(p: int, m: int) -> tuple:
    # the first p candidates, T^m + c, are all reducible unless each prime factor of m,
    # and 4 if it divides m, divides p - 1 (Lidl-Niederreiter, Finite Fields, 3.75)
    binomial = pow(p - 1, m, m) == 0 and (m % 4 or p % 4 == 1)
    for k in range(0 if binomial else p, p**m):
        try:  # the constructor proves the modulus irreducible
            return residue_field(p, tuple(k // p**i % p for i in range(m)) + (1,)).modulus
        except InputError:
            continue
    raise InputError(f"no irreducible modulus of degree {m} over F_{p}")  # pragma: no cover


@lru_cache(maxsize=32)  # the benchmark's analyze rounds walk up to 12 quadratic moduli
def residue_field(p: int, modulus: tuple) -> FqField:
    """F_p[T]/(modulus) for a monic irreducible modulus of degree m.  For m > 1
    the int p encodes the class of T, and log tables come with q <= TABLE_Q."""
    field = FqField(p, len(modulus) - 1, modulus)
    return _LogField(field) if 1 < field.m and field.q <= TABLE_Q else field


def _trim(coeffs) -> list:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def _mul(field: FqField, A, B) -> list:
    """Product of two coefficient lists; forms keep their formal degree.
    Over F_p the rows add up as integers and each entry is reduced once."""
    if not A or not B:
        return []
    out = [0] * (len(A) + len(B) - 1)
    if field.m == 1:
        for i, x in enumerate(A):
            if x:
                for j, y in enumerate(B, i):
                    out[j] += x * y
        p = field.p
        return [c % p for c in out]
    for i, x in enumerate(A):
        if x:
            field.addmul(out, i, x, B)
    return out


def _divrow(field: FqField, b):
    """(1/lc(b), the row -b/lc(b) without its top entry) for a division by
    the trimmed list b over an extension; None over F_p or for b = 0."""
    if field.m == 1 or not b:
        return None
    inv = 1 if b[-1] == 1 else field.inv(b[-1])
    row = [0] * (len(b) - 1)
    field.addmul(row, 0, field.neg(inv), b[:-1])
    return inv, row


def _divmod(field: FqField, a, b, divrow=None) -> tuple[list, list]:
    """Quotient and trimmed remainder of the list a by the trimmed list b.

    Over F_p each step subtracts a multiple of b as integers, and an entry
    is reduced mod p when it leads a step or ends in the remainder.  Over
    an extension each step adds a multiple of the row -b/lc(b), and
    rem[deg b:] keeps lc(b) times the quotient; a caller that divides by
    one b many times passes its ``_divrow`` once built.
    """
    if not b:
        raise InputError("polynomial division by zero")
    db, rem = len(b) - 1, list(a)
    if field.m == 1:
        p, low = field.p, b[:-1]
        inv = pow(b[-1], -1, p)
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1 - db, -1, -1):
            c = rem[i + db] * inv % p
            if c:
                quot[i] = c
                for j, y in enumerate(low, i):
                    rem[j] -= c * y
        rem = [r % p for r in rem[:db]]
    else:
        addmul = field.addmul
        inv, row = divrow or _divrow(field, b)
        for i in range(len(rem) - 1 - db, -1, -1):
            if rem[i + db]:
                addmul(rem, i, rem[i + db], row)
        quot = rem[db:]
        if inv != 1:
            quot = [0] * len(quot)
            addmul(quot, 0, inv, rem[db:])
        del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _sub(field: FqField, a, b) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    field.addmul(out, 0, field.neg(1), b)
    return _trim(out)


def _monic(field: FqField, a):
    if not a or a[-1] == 1:
        return a
    out = [0] * len(a)
    field.addmul(out, 0, field.inv(a[-1]), a)
    return out


def _gcd(field: FqField, a, b):
    """Monic gcd of two trimmed lists."""
    while b:
        a, b = b, _divmod(field, a, b)[1]
    return _monic(field, a)


def _powmod(field: FqField, a, e: int, m, divrow=None) -> list:
    """a^e mod m for e >= 0, square-and-multiply from the top bit of e."""
    divrow = divrow or _divrow(field, m)
    base = _divmod(field, a, m, divrow)[1]
    out = base if e else _divmod(field, [1], m, divrow)[1]
    for bit in bin(e)[3:]:
        out = _divmod(field, _mul(field, out, out), m, divrow)[1]
        if bit == "1":
            out = _divmod(field, _mul(field, out, base), m, divrow)[1]
    return out


def _derivative(field: FqField, a) -> list:
    mul, p = field.mul, field.p
    return _trim([mul(i % p, c) for i, c in enumerate(a)][1:])


def horner(field: FqField, coeffs, a: int) -> int:
    """The ascending coefficients coeffs, untrimmed or not, evaluated at a."""
    acc = 0
    if field.m == 1:
        p = field.p
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        return acc
    add, mul = field.add, field.mul
    for c in reversed(coeffs):
        acc = add(mul(acc, a), c)
    return acc


def is_irreducible(field: FqField, f) -> bool:
    """Rabin's test: x^(q^n) = x mod f and gcd(x^(q^(n/r)) - x, f) = 1 for primes r | n."""
    n = len(f) - 1
    if n <= 1:
        return n == 1
    x = [0, 1]
    if _powmod(field, x, field.q**n, f) != _divmod(field, x, f)[1]:
        return False
    return all(
        len(_gcd(field, _sub(field, _powmod(field, x, field.q ** (n // r), f), x), f)) == 1
        for r in _prime_divisors(n)
    )


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- factorization on coefficient lists -------------------------------------


def squarefree_decomposition(field: FqField, coeffs) -> list[tuple[tuple, int]]:
    """Monic squarefree parts of a trimmed coefficient list, as tuples, with
    multiplicities; their product is the list made monic."""
    out: dict[tuple, int] = {}
    _sff(field, _monic(field, coeffs), 1, out)
    return sorted(out.items(), key=lambda t: (len(t[0]), t[0]))


def _sff(field: FqField, f, e: int, out: dict) -> None:
    if len(f) < 2:
        return
    df = _derivative(field, f)
    if not df:
        _sff(field, _pth_root(field, f), e * field.p, out)
        return
    c = _gcd(field, f, df)
    w = _divmod(field, f, c)[0]
    i = 1
    while len(w) > 1:
        y = _gcd(field, w, c)
        z = tuple(_divmod(field, w, y)[0])
        if len(z) > 1:
            out[z] = out.get(z, 0) + i * e
        w = y
        c = _divmod(field, c, y)[0]
        i += 1
    if len(c) > 1:
        _sff(field, _pth_root(field, c), e * field.p, out)


def _pth_root(field: FqField, f) -> list:
    """Inverse Frobenius on a polynomial all of whose exponents are p-multiples;
    c -> c^(p^(m-1)) inverts c -> c^p on F_q."""
    p, e = field.p, field.p ** (field.m - 1)
    return list(f[::p]) if e == 1 else [field.pow(c, e) for c in f[::p]]


def distinct_degree(field: FqField, f) -> list[tuple[list, int]]:
    """Split a monic squarefree list f into (product of irreducibles of degree i, i)."""
    x = [0, 1]
    out = []
    h = x
    i = 0
    while len(f) > 1:
        i += 1
        if len(f) - 1 < 2 * i:
            out.append((f, len(f) - 1))
            break
        h = _powmod(field, h, field.q, f)
        g = _gcd(field, _sub(field, h, x), f)
        if len(g) > 1:
            out.append((g, i))
            f = _divmod(field, f, g)[0]
            h = _divmod(field, h, f)[1]
    return out


def _equal_degree(field: FqField, f, e: int, rng: random.Random) -> list[tuple]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-e irreducibles."""
    n = len(f) - 1
    if n == e:
        return [tuple(f)]
    q, divrow = field.q, _divrow(field, f)
    while True:
        r = _trim([rng.randrange(q) for _ in range(n)])
        if len(r) < 2:
            continue
        g = _gcd(field, r, f)
        if 1 < len(g) <= n:
            break
        if field.p == 2:
            # trace map to F_2 of the q^e-element subring; s - t = s + t here
            s, t = [], _divmod(field, r, f, divrow)[1]
            for _ in range(e * field.m):
                s = _sub(field, s, t)
                t = _divmod(field, _mul(field, t, t), f, divrow)[1]
            g = _gcd(field, s, f)
        else:
            s = _powmod(field, r, (q**e - 1) // 2, f, divrow)
            g = _gcd(field, _sub(field, s, [1]), f)
        if 1 < len(g) <= n:
            break
    return _equal_degree(field, g, e, rng) + _equal_degree(field, _divmod(field, f, g)[0], e, rng)


class FqPoly(NamedTuple):
    """A trimmed coefficient tuple over an FqField, as ``fq_factor`` takes it."""

    field: FqField
    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def fq_factor(f: FqPoly) -> list[tuple[tuple, int]]:
    """Monic irreducible factors as coefficient tuples, with multiplicities, sorted.

    The product of the factors (with multiplicities) is f divided by its
    leading coefficient.  Equal-degree splitting consumes a fixed-seed
    random stream; the canonical sort makes the output independent of
    the stream, so results are reproducible run to run.

    f is a record, not a field and a list, as the benchmark's tracer
    (``perfbench/layers.py``) reads ``args[0].degree`` and hashes the arguments:
    a two-argument call fails every traced query until it reads in-program spans.
    """
    if f.degree < 1:
        raise InputError("factorization requires degree >= 1")
    F, rng, out = f.field, random.Random(0), []
    for sq, mult in squarefree_decomposition(F, f.coeffs):
        for prod, e in distinct_degree(F, sq):
            out.extend((irr, mult) for irr in _equal_degree(F, prod, e, rng))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def split_roots(F: FqField, cs) -> list[int]:
    """Sorted roots of the trimmed list cs, a product of distinct linear factors over F.

    A constant has no roots and a linear cs is solved directly.  At odd p
    a quadratic A z^2 + B z + C has the roots (-B +- s) / 2A for s the
    field's ``sqrt`` of D = B^2 - 4AC; a D that is zero or not a square
    breaks the caller's guarantee and raises InternalError.  Any other cs
    is split by equal-degree splitting with e = 1 on a fixed-seed stream,
    which does not check the guarantee: on a cs without distinct roots in
    the field, its random search never ends.
    """
    if len(cs) < 2:
        return []
    if len(cs) == 2:
        return [F.neg(F.mul(cs[0], F.inv(cs[1])))]
    if len(cs) == 3 and F.p != 2:
        c, b, a = cs
        s = F.sqrt(F.add(F.mul(b, b), F.neg(F.mul(F.of_int(4), F.mul(a, c)))))
        if not s:
            raise InternalError(
                f"root split: the quadratic {poly_str(cs, 'z')} over F_{F.p}^{F.m} has no two "
                "distinct roots there (its discriminant is zero or not a square)"
            )
        inv, nb = F.inv(F.add(a, a)), F.neg(b)
        return sorted(F.mul(F.add(nb, r), inv) for r in (s, F.neg(s)))
    return sorted(F.neg(fac[0]) for fac in _equal_degree(F, _monic(F, cs), 1, random.Random(0)))


# -- binary forms of fixed formal degree -------------------------------------


def form_is_zero(coeffs) -> bool:
    return all(c == 0 for c in coeffs)


def form_dehomogenize(coeffs) -> tuple[list, int]:
    """(trimmed list in t = X/Y, multiplicity of the root at infinity)."""
    poly = _trim(coeffs)
    return poly, len(coeffs) - len(poly)


def form_from_poly(coeffs, formal_degree: int):
    """The trimmed coefficient list coeffs as a form of the given formal degree."""
    if len(coeffs) - 1 > formal_degree:
        raise InputError("polynomial degree exceeds the formal degree")
    return tuple(coeffs) + (0,) * (formal_degree + 1 - len(coeffs))


def form_is_squarefree(field: FqField, coeffs) -> bool:
    """True when the form has only simple projective roots."""
    if form_is_zero(coeffs):
        return False
    f, inf_mult = form_dehomogenize(coeffs)
    return inf_mult <= 1 and (len(f) < 2 or len(_gcd(field, f, _derivative(field, f))) == 1)


def form_gcd_split(field: FqField, F, G):
    """Greatest common divisor of two forms of equal formal degree.

    Returns (common, F1, G1) with F = common * F1 and G = common * G1 as
    forms; the split tracks shared powers of Y (roots at infinity) as well
    as the polynomial gcd of the dehomogenizations.  One of the forms may
    be zero: gcd(0, G) = G, so the zero form's part is (0,) and the other
    part is the constant that makes the common factor monic.
    """
    if len(G) != len(F):
        raise InputError("forms must share a formal degree")
    if form_is_zero(F) and form_is_zero(G):
        raise InputError("form gcd of two zero forms is undefined")
    fp, fi = form_dehomogenize(F)
    gp, gi = form_dehomogenize(G)
    core = _gcd(field, fp, gp)
    y_shared = min(fi, gi)  # the zero form's fi = d + 1 exceeds any nonzero gi
    common = form_from_poly(core, len(core) - 1 + y_shared)
    rest = len(F) - len(common)  # the formal degree of F1 and of G1
    F1 = form_from_poly(_divmod(field, fp, core)[0], rest)
    G1 = form_from_poly(_divmod(field, gp, core)[0], rest)
    return common, F1, G1


def fiber_form(field: FqField, F, G, a: int, b: int):
    """The form b*F - a*G cutting out the fiber of [F : G] over [a : b]."""
    out = [0] * len(F)
    field.addmul(out, 0, b, F)
    field.addmul(out, 0, field.neg(a), G)
    return tuple(out)


def iterate_forms(field: FqField, F, G, n: int):
    """Forms of the n-th iterate of [F : G] over F_p.  The package's own are built by
    ``MapAtPrime.reduced_iterate``; this stays as the benchmark's spans wrap it by name."""
    if n < 1:
        raise InputError("iteration depth must be >= 1")
    if field.m != 1:
        raise InputError("iterate_forms composes over a prime field only")
    mul, p = partial(_mul, field), field.p
    Fn, Gn = F, G
    for _ in range(n - 1):
        Fn, Gn = (tuple(c % p for c in f) for f in compose_forms((F, G), (Fn, Gn), mul))
    return Fn, Gn
