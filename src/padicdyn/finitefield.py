"""Finite fields F_{p^m}, polynomials over them, and binary forms.

Field elements are encoded as plain ints in range(p^m): the base-p digits
of the integer are the coefficients of the residue polynomial in the
generator, lowest degree first.  The prime subfield is therefore encoded
by the ints 0..p-1 in every extension, which makes lifting coefficient
lists between F_p and F_{p^m} a no-op.

An FqField computes on the digits.  Fields are built in two places:
``prime_field_of``, and ``fq_extension``, which refuses one above its
size cap and caches per (p, m) the fields that the preimage trees and
postcritical walks share, so each modulus is searched and proved
irreducible once per process.  Those of at most TABLE_Q = 2^12 elements
carry exp/log/Zech tables that make every operation a list lookup on the
same encoding.  The tables cost q - 1 digit multiplications to build
(about 0.07 s at 2^12 and 1.4 s at 2^16 on a 2-core VM), which a tree
in a larger field would seldom repay.

Polynomials (FqPoly) store ascending coefficient tuples of encoded
elements, trailing zeros trimmed.  Products, division, composition and
sums are sequences of one row operation, ``addmul(acc, k, c, row)``,
which each field class runs on its own encoding: mod p inline over F_p,
table lookups inline in a log field, element calls on digits.
``divmod``, ``gcd`` and ``pow_mod`` share one division on int lists,
``_divmod``, so a modular power builds an FqPoly only for its result.
Factorization runs squarefree decomposition, then distinct-degree
splitting, then Cantor-Zassenhaus equal-degree splitting driven by a
seeded random stream; the returned factor list is sorted by (degree,
coefficient tuple) so the output is reproducible independently of the
stream.  Callers that need only the factor degrees stop after the
distinct-degree step.

Binary forms of a fixed formal degree D are ascending tuples of length
D + 1 (entry i is the coefficient of X^i Y^(D-i)); they are never trimmed,
since vanishing top coefficients encode roots at infinity.  They are the
F_q twin of the integer forms of ``qpolys``: forms and ``FqPoly`` share
one product routine, and ``compose_forms`` substitutes one pair (A, B)
into several forms at once, building the monomials A^i B^(D-i) once.
The multiplicity of infinity, D minus the affine degree, is read in one
place, ``form_dehomogenize``.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import InputError, ResourceLimitError
from .padics import require_prime
from .qpolys import poly_str

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
        if m >= 2 and not FqPoly(prime_field_of(p), modulus).is_irreducible():
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
        return self.pow(a, self.q - 2)

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

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

    def pow(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in a finite field")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._exp[self.q - 1 - self._log[a]]

    def frobenius(self, a: int) -> int:
        return self._exp[self._log[a] * self.p % (self.q - 1)] if a else 0

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
    deterministic.  For m = 1 the modulus is T itself.  Fields are cached
    per (p, m), and one of at most TABLE_Q elements carries log tables.
    """
    require_prime(p)
    if m < 1:
        raise InputError("extension degree must be >= 1")
    if p**m > cap:
        raise ResourceLimitError(f"field size {p}^{m} exceeds cap {cap}")
    if m == 1:
        return prime_field_of(p)
    return _extension(p, m)


@lru_cache(maxsize=8)
def _extension(p: int, m: int) -> FqField:
    # the first p candidates, T^m + c, are all reducible unless each prime factor of m,
    # and 4 if it divides m, divides p - 1 (Lidl-Niederreiter, Finite Fields, 3.75)
    binomial = pow(p - 1, m, m) == 0 and (m % 4 or p % 4 == 1)
    for k in range(0 if binomial else p, p**m):
        a, digits = k, []
        for _ in range(m):
            digits.append(a % p)
            a //= p
        try:  # the constructor proves the modulus irreducible
            field = FqField(p, m, tuple(digits) + (1,))
        except InputError:
            continue
        return _LogField(field) if field.q <= TABLE_Q else field
    raise InputError(f"no irreducible modulus of degree {m} over F_{p}")  # pragma: no cover


def _mul(field: FqField, A, B) -> list:
    """Product of two coefficient lists; forms keep their formal degree."""
    if not A or not B:
        return []
    out = [0] * (len(A) + len(B) - 1)
    for i, x in enumerate(A):
        if x:
            field.addmul(out, i, x, B)
    return out


def _divmod(field: FqField, a, b) -> tuple[list, list]:
    """Quotient and trimmed remainder of the list a by the trimmed list b:
    each step adds a multiple of the row -b/lc(b), and rem[deg b:] keeps
    lc(b) times the quotient."""
    if not b:
        raise InputError("polynomial division by zero")
    db, rem, addmul = len(b) - 1, list(a), field.addmul
    inv = 1 if b[-1] == 1 else field.inv(b[-1])
    row = [0] * db
    addmul(row, 0, field.neg(inv), b[:-1])
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


def horner(field: FqField, coeffs, a: int) -> int:
    """The ascending coefficients coeffs, untrimmed or not, evaluated at a."""
    add, mul = field.add, field.mul
    acc = 0
    for c in reversed(coeffs):
        acc = add(mul(acc, a), c)
    return acc


class FqPoly:
    """Univariate polynomial over an FqField, ascending coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(map(int, cs)))

    def __setattr__(self, *args):
        raise AttributeError("FqPoly is immutable")

    @classmethod
    def of_integers(cls, field: FqField, ints) -> "FqPoly":
        """Reduce an integer coefficient list through Z -> F_p."""
        return cls(field, [field.of_int(c) for c in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"FqPoly[{self.field!r}]({poly_str(self.coeffs)})"

    def __add__(self, other: "FqPoly") -> "FqPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        self.field.addmul(out, 0, 1, b)
        return FqPoly(self.field, out)

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        return self + other.scale(self.field.neg(1))

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        return FqPoly(self.field, _mul(self.field, self.coeffs, other.coeffs))

    def scale(self, c: int) -> "FqPoly":
        out = [0] * len(self.coeffs)
        self.field.addmul(out, 0, c, self.coeffs)
        return FqPoly(self.field, out)

    def __divmod__(self, other: "FqPoly"):
        quot, rem = _divmod(self.field, self.coeffs, other.coeffs)
        return FqPoly(self.field, quot), FqPoly(self.field, rem)

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[1]

    def monic(self) -> "FqPoly":
        if self.is_zero() or self.lc == 1:
            return self
        return self.scale(self.field.inv(self.lc))

    def gcd(self, other: "FqPoly") -> "FqPoly":
        F, a, b = self.field, self.coeffs, other.coeffs
        while b:
            a, b = b, _divmod(F, a, b)[1]
        return FqPoly(F, a).monic()

    def derivative(self) -> "FqPoly":
        F = self.field
        return FqPoly(F, [F.mul(i % F.p, c) for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, a: int) -> int:
        return horner(self.field, self.coeffs, a)

    def pow_mod(self, e: int, mod: "FqPoly") -> "FqPoly":
        """self^e mod mod, square-and-multiply from the top bit of e."""
        if e < 0:
            raise InputError("negative exponent in pow_mod")
        F, m = self.field, mod.coeffs
        base = _divmod(F, self.coeffs, m)[1]
        out = base if e else _divmod(F, [1], m)[1]
        for bit in bin(e)[3:]:
            out = _divmod(F, _mul(F, out, out), m)[1]
            if bit == "1":
                out = _divmod(F, _mul(F, out, base), m)[1]
        return FqPoly(F, out)

    def is_squarefree(self) -> bool:
        if self.degree < 1:
            return True
        return self.gcd(self.derivative()).degree == 0

    def pth_root(self) -> "FqPoly":
        """Inverse Frobenius on a polynomial all of whose exponents are p-multiples."""
        F = self.field
        p = F.p
        root_pow = p ** (F.m - 1)  # c -> c^(p^(m-1)) inverts x -> x^p on F_q
        out = []
        for i, c in enumerate(self.coeffs):
            if i % p == 0:
                out.append(F.pow(c, root_pow))
            elif c:
                raise InputError("polynomial is not a p-th power")
        return FqPoly(F, out)

    def is_irreducible(self) -> bool:
        n = self.degree
        if n <= 0:
            return False
        if n == 1:
            return True
        F = self.field
        q = F.q
        x = FqPoly(F, (0, 1))
        if x.pow_mod(q**n, self) != x % self:
            return False
        for r in _prime_divisors(n):
            g = (x.pow_mod(q ** (n // r), self) - x).gcd(self)
            if g.degree > 0:
                return False
        return True


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


# -- factorization ----------------------------------------------------------


def squarefree_decomposition(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Monic squarefree parts with multiplicities; their product is f.monic()."""
    out: dict[FqPoly, int] = {}
    _sff(f.monic(), 1, out)
    return sorted(out.items(), key=lambda t: (t[0].degree, t[0].coeffs))


def _sff(f: FqPoly, e: int, out: dict) -> None:
    p = f.field.p
    if f.degree < 1:
        return
    df = f.derivative()
    if df.is_zero():
        _sff(f.pth_root(), e * p, out)
        return
    c = f.gcd(df)
    w = f // c
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        z = w // y
        if z.degree > 0:
            out[z] = out.get(z, 0) + i * e
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        _sff(c.pth_root(), e * p, out)


def distinct_degree(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Split a monic squarefree f into (product of irreducibles of degree i, i)."""
    F = f.field
    q = F.q
    x = FqPoly(F, (0, 1))
    out = []
    h = x
    i = 0
    while f.degree > 0:
        i += 1
        if f.degree < 2 * i:
            out.append((f.monic(), f.degree))
            break
        h = h.pow_mod(q, f)
        g = (h - x).gcd(f)
        if g.degree > 0:
            out.append((g, i))
            f = f // g
            h = h % f
    return out


def _equal_degree(f: FqPoly, e: int, rng: random.Random) -> list[FqPoly]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-e irreducibles."""
    n = f.degree
    if n == e:
        return [f]
    F = f.field
    q = F.q
    while True:
        r = FqPoly(F, [rng.randrange(q) for _ in range(n)])
        if r.degree < 1:
            continue
        g = r.gcd(f)
        if 0 < g.degree < n:
            break
        if F.p == 2:
            # trace map to F_2 of the q^e-element subring
            s = FqPoly(F)
            t = r % f
            for _ in range(e * F.m):
                s = s + t
                t = t * t % f
            g = s.gcd(f)
        else:
            s = r.pow_mod((q**e - 1) // 2, f)
            g = (s - FqPoly(F, (1,))).gcd(f)
        if 0 < g.degree < n:
            break
    return _equal_degree(g.monic(), e, rng) + _equal_degree((f // g).monic(), e, rng)


def fq_factor(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Monic irreducible factors with multiplicities, canonically sorted.

    The product of the factors (with multiplicities) is f divided by its
    leading coefficient.  Equal-degree splitting consumes a fixed-seed
    random stream; the canonical sort makes the output independent of
    the stream, so results are reproducible run to run.
    """
    if f.degree < 1:
        raise InputError("factorization requires degree >= 1")
    rng = random.Random(0)
    out = []
    for sq, mult in squarefree_decomposition(f):
        for prod, e in distinct_degree(sq):
            if prod.degree == e:
                out.append((prod, mult))
            else:
                out.extend((irr, mult) for irr in _equal_degree(prod, e, rng))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def split_roots(f: FqPoly) -> list[int]:
    """Sorted roots of an f that splits into distinct linear factors.

    Equal-degree splitting with e = 1 on a fixed-seed stream; a linear f
    is solved directly and a constant has no roots.  The caller guarantees
    the splitting: on any other f the random search never ends.
    """
    F = f.field
    if f.degree < 1:
        return []
    if f.degree == 1:
        return [F.neg(F.mul(f[0], F.inv(f[1])))]
    return sorted(F.neg(fac[0]) for fac in _equal_degree(f.monic(), 1, random.Random(0)))


# -- binary forms of fixed formal degree -------------------------------------


def form_is_zero(coeffs) -> bool:
    return all(c == 0 for c in coeffs)


def compose_forms(field: FqField, forms, pair) -> list[tuple]:
    """Each form F of degree d in ``forms`` at (X, Y) = (A, B).

    A and B are forms of one formal degree e; the monomials A^i B^(d-i)
    are built once and shared by all the forms.
    """
    A, B = pair
    d = len(forms[0]) - 1
    pa, pb = [(1,)], [(1,)]
    for _ in range(d):
        pa.append(_mul(field, pa[-1], A))
        pb.append(_mul(field, pb[-1], B))
    monomials = [_mul(field, pa[i], pb[d - i]) for i in range(d + 1)]
    out = []
    for coeffs in forms:
        acc = [0] * (d * (len(A) - 1) + 1)
        for c, term in zip(coeffs, monomials):
            if c:
                field.addmul(acc, 0, c, term)
        out.append(tuple(acc))
    return out


def form_dehomogenize(field: FqField, coeffs) -> tuple[FqPoly, int]:
    """(polynomial in t = X/Y, multiplicity of the root at infinity)."""
    poly = FqPoly(field, coeffs)
    return poly, len(coeffs) - 1 - poly.degree


def form_from_poly(field: FqField, poly: FqPoly, formal_degree: int):
    if poly.degree > formal_degree:
        raise InputError("polynomial degree exceeds the formal degree")
    out = list(poly.coeffs) + [0] * (formal_degree - poly.degree)
    return tuple(out)


def form_is_squarefree(field: FqField, coeffs) -> bool:
    """True when the form has only simple projective roots."""
    if form_is_zero(coeffs):
        return False
    poly, inf_mult = form_dehomogenize(field, coeffs)
    return inf_mult <= 1 and poly.is_squarefree()


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
    fp, fi = form_dehomogenize(field, F)
    gp, gi = form_dehomogenize(field, G)
    core = fp.gcd(gp)
    y_shared = min(fi, gi)  # the zero form's fi = d + 1 exceeds any nonzero gi
    common = form_from_poly(field, core, core.degree + y_shared)
    F1 = form_from_poly(field, fp // core, (fp.degree - core.degree) + (fi - y_shared))
    G1 = form_from_poly(field, gp // core, (gp.degree - core.degree) + (gi - y_shared))
    return common, F1, G1


def fiber_form(field: FqField, F, G, a: int, b: int):
    """The form b*F - a*G cutting out the fiber of [F : G] over [a : b]."""
    out = [0] * len(F)
    field.addmul(out, 0, b, F)
    field.addmul(out, 0, field.neg(a), G)
    return tuple(out)


def iterate_forms(field: FqField, F, G, n: int):
    """Forms of the n-th iterate of the self-map [F : G] of P^1."""
    if n < 1:
        raise InputError("iteration depth must be >= 1")
    Fn, Gn = F, G
    for _ in range(n - 1):
        Fn, Gn = compose_forms(field, (F, G), (Fn, Gn))
    return Fn, Gn
