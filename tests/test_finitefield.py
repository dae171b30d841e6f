"""Residue field arithmetic, factorization, and binary forms over F_q."""

import random
import types
from functools import partial

import pytest
import sympy

import padicdyn.finitefield
from padicdyn.errors import InputError, InternalError, ResourceLimitError
from padicdyn.finitefield import (
    TABLE_Q,
    FqField,
    _LogField,
    FqPoly,
    _divmod,
    _equal_degree,
    _gcd,
    _monic,
    _mul,
    _powmod,
    _sub,
    fiber_form,
    form_dehomogenize,
    form_gcd_split,
    form_is_squarefree,
    fq_extension,
    fq_factor,
    horner,
    is_irreducible,
    iterate_forms,
    prime_field_of,
    residue_field,
    split_roots,
    squarefree_decomposition,
)
from padicdyn.maps import eval_reduced, parse_map
from padicdyn.qpolys import binary_form_resultant, compose_forms
from padicdyn.reduction import MapAtPrime, pushforward

from oracles import form_eval, form_resultant, poly_mul


def test_canonical_moduli_are_frozen():
    # lexicographically first monic irreducibles: T^2+1, T^3+T+1, T^2+2
    assert fq_extension(3, 2).modulus == (1, 0, 1)
    assert fq_extension(2, 3).modulus == (1, 1, 0, 1)
    assert fq_extension(5, 2).modulus == (2, 0, 1)
    assert fq_extension(7, 1).modulus == (0, 1)


def test_modulus_is_the_first_irreducible_candidate():
    # brute force over the candidates in order, sympy deciding irreducibility;
    # at each p some degree m has no irreducible binomial T^m + c
    T = sympy.Symbol("T")
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(2, 7):
            if p ** (m - 1) > 3000:
                continue
            for k in range(p**m):
                digits = [k // p**i % p for i in range(m)] + [1]
                if sympy.Poly(list(reversed(digits)), T, modulus=p).is_irreducible:
                    break
            assert fq_extension(p, m, cap=p**m).modulus == tuple(digits)
    # no binomial is irreducible in degree 6 at p = 10007, as 3 does not divide
    # p - 1: testing all 10,007 of them first takes 15 s
    assert fq_extension(10007, 6, cap=10007**6).modulus == (7, 1, 0, 0, 0, 0, 1)


def test_each_cached_field_proves_its_modulus_once(monkeypatch):
    modulus = fq_extension(3, 8).modulus
    tested = []
    def recording(field, f):
        tested.append(tuple(f))
        return is_irreducible(field, f)

    monkeypatch.setattr(padicdyn.finitefield, "is_irreducible", recording)
    padicdyn.finitefield._first_modulus.cache_clear()
    padicdyn.finitefield.residue_field.cache_clear()
    assert fq_extension(3, 8).modulus == modulus
    assert tested.count(modulus) == 1 and tested[-1] == modulus


# digit fields above TABLE_Q, each with fq_extension's modulus and the last
# one in its order, which has more nonzero coefficients to reduce by
@pytest.mark.parametrize("p,m", [(3, 8), (2, 13), (101, 2), (101, 5)])
def test_digit_field_product_matches_sympy(p, m):
    T = sympy.Symbol("T")
    rng = random.Random(p * m)
    for modulus in (fq_extension(p, m, cap=p**m).modulus, _last_modulus(p, m)):
        field = FqField(p, m, modulus)
        c = sympy.Poly(modulus[::-1], T, modulus=p)
        els = [0, 1, p - 1, p, field.q - 1] + [rng.randrange(field.q) for _ in range(60)]
        for a, b in zip(els, els[::-1] + [rng.randrange(field.q) for _ in els]):
            A, B = (sympy.Poly(field.decode(x)[::-1], T, modulus=p) for x in (a, b))
            digits = [int(d) % p for d in (A * B).rem(c).all_coeffs()[::-1]]
            assert field.mul(a, b) == field.encode(digits)


def test_is_irreducible_matches_sympy_on_every_small_monic():
    T = sympy.Symbol("T")
    for p in (2, 3):
        field = prime_field_of(p)
        for n in range(7):
            for k in range(p**n):
                f = [k // p**i % p for i in range(n)] + [1]
                want = n >= 1 and sympy.Poly(f[::-1], T, modulus=p).is_irreducible
                assert is_irreducible(field, f) == want, f


@pytest.mark.parametrize("p", [5, 7])
def test_is_irreducible_refuses_squares_and_equal_degree_products(p):
    # distinct-degree splitting assumes a squarefree input; g^2 and g*h with
    # deg g = deg h are the inputs whose one factor degree is n/2
    T = sympy.Symbol("T")
    field, rng = prime_field_of(p), random.Random(p)
    for k in (1, 2, 3):
        monics = ([c // p**i % p for i in range(k)] + [1] for c in range(p**k))
        irreducibles = [g for g in monics if sympy.Poly(g[::-1], T, modulus=p).is_irreducible]
        for _ in range(12):
            g, h = rng.sample(irreducibles, 2)
            assert is_irreducible(field, g) and is_irreducible(field, h)
            gg = poly_mul(field, g, g)
            for f in (gg, poly_mul(field, g, h), poly_mul(field, gg, g)):
                assert not is_irreducible(field, f), f


def test_field_axioms_sampled():
    for field in (fq_extension(3, 2), fq_extension(2, 3), fq_extension(5, 2)):
        rng = random.Random(field.q)
        els = range(field.q)
        assert len(els) == field.q
        for _ in range(60):
            a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            assert field.mul(a, b) == field.mul(b, a)
        for a in els:
            if a:
                assert field.mul(a, field.inv(a)) == field.of_int(1)


def test_frobenius_is_additive_and_fixes_prime_field():
    field = fq_extension(3, 3)
    els = range(field.q)
    rng = random.Random(9)
    for _ in range(50):
        a, b = rng.choice(els), rng.choice(els)
        assert field.frobenius(field.add(a, b)) == field.add(
            field.frobenius(a), field.frobenius(b)
        )
    for a in range(3):
        assert field.frobenius(field.of_int(a)) == field.of_int(a)


def _agree(tab, dig, a, b):
    q = tab.q
    assert tab.add(a, b) == dig.add(a, b)
    assert tab.mul(a, b) == dig.mul(a, b)
    assert tab.neg(a) == dig.neg(a)
    assert tab.frobenius(a) == dig.frobenius(a)
    for e in (0, 1, 2, tab.p, q - 2, q - 1, q + 3):
        assert tab.pow(a, e) == dig.pow(a, e)
    if a:
        assert tab.inv(a) == dig.inv(a)
        assert tab.pow(a, -3) == dig.pow(a, -3)
    else:
        for field in (tab, dig):
            with pytest.raises(ZeroDivisionError):
                field.inv(0)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_log_tables_match_digit_arithmetic_exhaustively(p, m):
    tab = fq_extension(p, m)
    dig = FqField(p, m, tab.modulus)  # same modulus, digit arithmetic, as above TABLE_Q
    assert isinstance(tab, _LogField) and not isinstance(dig, _LogField)
    assert fq_extension(p, m) is tab
    for a in range(tab.q):
        for b in range(tab.q):
            _agree(tab, dig, a, b)
    if p == 2:
        assert all(tab.neg(a) == a for a in range(tab.q))


@pytest.mark.parametrize("p,m", [(3, 4), (5, 4)])
def test_log_tables_match_digit_arithmetic_sampled(p, m):
    tab = fq_extension(p, m)
    dig = FqField(p, m, tab.modulus)
    assert isinstance(tab, _LogField)
    rng = random.Random(tab.q)
    for a in (0, 1, p - 1, p, tab.q - 1):
        _agree(tab, dig, a, rng.randrange(tab.q))
    for _ in range(600):
        _agree(tab, dig, rng.randrange(tab.q), rng.randrange(tab.q))


def test_large_extensions_keep_digit_arithmetic():
    field = fq_extension(2, 13)
    assert field.q > TABLE_Q and not isinstance(field, _LogField)


def test_bad_modulus_rejected():
    with pytest.raises(InputError):
        FqField(5, 2, (4, 0, 1))  # T^2 + 4 = (T-1)(T+1)
    with pytest.raises(InputError):
        FqField(5, 2, (1, 0, 2))  # not monic
    with pytest.raises(ResourceLimitError):
        fq_extension(2, 25)


def test_huge_extension_degree_is_refused_without_its_field_size():
    # 5^(10^12) has 2.3e12 bits; the refusal must not compute it
    message = r"^field size 5\^1000000000000 exceeds cap 1048576$"
    with pytest.raises(ResourceLimitError, match=message):
        fq_extension(5, 10**12)
    assert fq_extension(2, 20).q == 2**20  # m = 20 = bit_length(2^20) - 1 still builds
    with pytest.raises(ResourceLimitError):
        fq_extension(2, 21)


def _to_sympy(poly: FqPoly):
    T = sympy.Symbol("T")
    return sympy.Poly(list(reversed(list(poly.coeffs))), T, modulus=poly.field.p)


def test_prime_field_factor_matches_sympy():
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        field = prime_field_of(p)
        for _ in range(25):
            deg = rng.randint(1, 8)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = FqPoly(field, tuple(coeffs))
            ours = set(fq_factor(f))
            _, sym_factors = _to_sympy(f).factor_list()
            theirs = {
                (tuple(int(c) % p for c in reversed(fac.all_coeffs())), mult)
                for fac, mult in sym_factors
            }
            assert ours == theirs


def test_extension_factorization_multiplies_back():
    rng = random.Random(37)
    for field in (fq_extension(2, 2), fq_extension(3, 2), fq_extension(5, 2), fq_extension(2, 3)):
        els = range(field.q)
        for _ in range(15):
            deg = rng.randint(1, 6)
            coeffs = [rng.choice(els) for _ in range(deg)]
            lead = rng.choice(els[1:])
            f = FqPoly(field, tuple(coeffs + [lead]))
            factors = fq_factor(f)
            prod = [lead]
            for fac, mult in factors:
                assert is_irreducible(field, fac)
                assert fac[-1] == field.of_int(1)
                for _ in range(mult):
                    prod = poly_mul(field, prod, fac)
            assert tuple(prod) == f.coeffs
            assert sum((len(fac) - 1) * m for fac, m in factors) == f.degree


def test_factorization_is_seed_independent(monkeypatch):
    # equal-degree splitting runs on a fixed-seed stream; the canonical
    # sort must make the factor list independent of that stream
    field = fq_extension(5, 2)
    f = FqPoly(field, (3, 1, 4, 1, 0, 1))
    want = fq_factor(f)
    other = types.SimpleNamespace(Random=lambda seed: random.Random(seed + 12345))
    monkeypatch.setattr(padicdyn.finitefield, "random", other)
    assert fq_factor(f) == want


def test_squarefree_decomposition_char_p_powers():
    # (T+1)^2 * (T^2+1) over F_3; the square escapes a naive Yun step
    field = prime_field_of(3)
    f = [1, 2, 2, 2, 1]  # (T^2 + 2T + 1)(T^2 + 1)
    parts = {mult: g for g, mult in squarefree_decomposition(field, f)}
    assert parts[2] == (1, 1)
    assert parts[1] == (1, 0, 1)
    # a pure p-th power: 2T^3 + 2 = 2(T+1)^3 in char 3
    cube = [2, 0, 0, 2]
    assert squarefree_decomposition(field, cube) == [((1, 1), 3)]
    assert not form_is_squarefree(field, cube)


def test_roots_against_brute_force():
    rng = random.Random(41)
    for field in (prime_field_of(7), fq_extension(3, 2)):
        for _ in range(20):
            roots = rng.sample(range(field.q), rng.randint(0, 5))
            f = [rng.randrange(1, field.q)]
            for r in roots:
                f = poly_mul(field, f, [field.neg(r), 1])
            brute = [a for a in range(field.q) if form_eval(field, f, a, 1) == 0]
            assert split_roots(field, f) == brute == sorted(roots)


def _form_of_roots(field, c, roots, inf_mult):
    """c * prod (X - r Y) * Y^inf_mult as an ascending form."""
    f = [c]
    for r in roots:
        f = poly_mul(field, f, [field.neg(r), 1])
    return tuple(f) + (0,) * inf_mult


def test_form_eval_vs_compose():
    # maps over F_p, composed there and evaluated on P^1(F_q): F_5 computes
    # mod 5, F_4 and F_9 on log tables and F_{3^8} (above TABLE_Q) on digits;
    # each map has forms whose top coefficients vanish, so infinity is a root
    # of F or a double root of G
    for p, m in [(5, 1), (2, 2), (3, 2), (3, 8)]:
        base, field = prime_field_of(p), fq_extension(p, m)
        assert isinstance(field, _LogField) == (1 < m and field.q <= TABLE_Q)
        rng = random.Random(43 + field.q)
        r, s = rng.sample(range(p), 2)
        t = rng.choice([u for u in range(p) if u != r])  # t = s over F_2
        c = rng.randrange(1, p)
        maps = [
            (_form_of_roots(base, 1, [r], 1), _form_of_roots(base, c, [s, t], 0)),
            (_form_of_roots(base, c, [s, t], 0), _form_of_roots(base, 1, [], 2)),
        ]
        points = [*range(field.q), None]
        if field.q > TABLE_Q:
            # digit arithmetic costs about 1 ms a point here: the special
            # points and a seeded sample stand in for all of P^1
            points = [None, 0, 1, r, s, t] + rng.sample(range(2, field.q), 120)
        for F, G in maps:
            forms = [(F, G)] + [iterate_forms(base, F, G, n) for n in (2, 3)]
            assert [len(Fn) for Fn, _ in forms] == [3, 5, 9]
            for z in points:
                a, b = (1, 0) if z is None else (z, 1)
                prev = (a, b)
                for Fn, Gn in forms:
                    value = (form_eval(field, Fn, a, b), form_eval(field, Gn, a, b))
                    assert value == (form_eval(field, F, *prev), form_eval(field, G, *prev))
                    assert value != (0, 0)
                    want = None if value[1] == 0 else field.mul(value[0], field.inv(value[1]))
                    assert eval_reduced(field, Fn, Gn, z) == want
                    prev = value


def test_compose_forms_degree():
    # reduction mod p is a ring map: composing reduced forms with the F_p
    # product is the integer composition reduced mod p, of formal degree d*e
    rng = random.Random(29)
    for p in (2, 3, 5, 7):
        field = prime_field_of(p)
        for _ in range(25):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            forms = [tuple(rng.randint(-40, 40) for _ in range(d + 1)) for _ in range(2)]
            pair = [tuple(rng.randint(-40, 40) for _ in range(e + 1)) for _ in range(2)]
            want = [tuple(c % p for c in f) for f in compose_forms(forms, pair)]
            got = compose_forms(
                [tuple(c % p for c in f) for f in forms],
                [tuple(c % p for c in f) for f in pair],
                partial(_mul, field),
            )
            assert [tuple(c % p for c in f) for f in got] == want
            assert [len(f) for f in want] == [d * e + 1] * 2
        F, G = (1, 2 % p, 1), (0, 1, 0)
        assert iterate_forms(field, F, G, 2) == tuple(
            tuple(c % p for c in f) for f in compose_forms((F, G), (F, G))
        )


def test_iterate_forms_refuses_an_extension_field():
    # encoded elements of F_{p^m} do not add as integers, so the reduced
    # integer sums would be wrong there
    for field in (fq_extension(2, 2), fq_extension(3, 8)):
        with pytest.raises(InputError, match="prime field"):
            iterate_forms(field, (0, 1), (1, 0), 2)


def test_form_gcd_split_extracts_common_factor():
    field = prime_field_of(5)
    # F = (X - 2Y) * (X + Y), G = (X - 2Y) * (X - Y)
    F = _form_of_roots(field, 1, [2, 4], 0)
    G = _form_of_roots(field, 1, [2, 1], 0)
    common, F1, G1 = form_gcd_split(field, F, G)
    assert common == (3, 1)
    c, a, b = form_gcd_split(field, F1, G1)
    assert len(c) == 1  # coprime parts share nothing
    assert tuple(poly_mul(field, common, F1)) == F
    # gcd(0, g) = g: the common factor is g made monic, the rest (0,) and (lc,)
    g = (1, 3, 2)  # 2X^2 + 3XY + Y^2
    assert form_gcd_split(field, (0, 0, 0), g) == ((3, 4, 1), (0,), (2,))
    assert form_gcd_split(field, g, (0, 0, 0)) == ((3, 4, 1), (2,), (0,))
    h = (0, 4, 0)  # 4XY: its affine part is monic only after scaling by 4^-1
    assert form_gcd_split(field, (0, 0, 0), h) == ((0, 1, 0), (0,), (4,))
    with pytest.raises(InputError):
        form_gcd_split(field, (0, 0, 0), (0, 0, 0))


def test_form_is_squarefree_counts_infinity():
    field = prime_field_of(5)
    assert form_is_squarefree(field, (1, 0, 4))           # 4(T-1)(T+1)
    assert form_is_squarefree(field, (0, 1, 1))           # XY + X^2: roots 0 and -1
    assert form_is_squarefree(field, (0, 0, 1)) is False  # X^2: the root 0 doubled
    assert form_is_squarefree(field, (1, 0))              # Y: infinity once
    assert form_is_squarefree(field, (0, 1, 0, 0)) is False  # X Y^2: infinity doubled
    assert form_is_squarefree(field, (1, 0, 1))           # (X-2Y)(X+2Y)
    assert form_is_squarefree(field, (0, 0, 0)) is False


def test_fiber_form_and_dehomogenize():
    field = prime_field_of(5)
    F, G = (0, 0, 1), (1, 0, 0)  # the squaring map X^2 : Y^2
    fib = fiber_form(field, F, G, 4, 1)  # fiber over 4: X^2 - 4 Y^2
    assert fib == (1, 0, 1)
    poly, inf_mult = form_dehomogenize(fib)
    assert inf_mult == 0 and poly == [1, 0, 1]
    fib_inf = fiber_form(field, F, G, 1, 0)  # fiber over infinity: -Y^2
    poly, inf_mult = form_dehomogenize(fib_inf)
    assert inf_mult == 2 and len(poly) == 1


def test_form_resultant_matches_integer_resultant_mod_p():
    rng = random.Random(47)
    for p in (3, 5, 7):
        field = prime_field_of(p)
        for _ in range(25):
            d = rng.randint(1, 3)
            F = [rng.randint(-20, 20) for _ in range(d + 1)]
            G = [rng.randint(-20, 20) for _ in range(d + 1)]
            over_q = binary_form_resultant(F, G, d)
            got = form_resultant(
                field,
                tuple(c % p for c in F),
                tuple(c % p for c in G),
            )
            assert got == int(over_q) % p


# -- the row kernel against a schoolbook reference ----------------------------


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _school_add(field, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim(field.add(x, y) for x, y in zip(a, b))


def _school_divmod(field, a, b):
    rem, inv = list(a), field.inv(b[-1])
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = field.mul(rem[i + len(b) - 1], inv)
        quot[i] = c
        for j, y in enumerate(b):
            rem[i + j] = field.add(rem[i + j], field.neg(field.mul(c, y)))
    return _trim(quot), _trim(rem)


def _school_pow_mod(field, a, e, m):
    # right to left, where pow_mod runs from the top bit
    out, base = _school_divmod(field, [1], m)[1], _school_divmod(field, a, m)[1]
    while e:
        if e & 1:
            out = _school_divmod(field, poly_mul(field, out, base), m)[1]
        base = _school_divmod(field, poly_mul(field, base, base), m)[1]
        e >>= 1
    return out


def _last_modulus(p, m):
    """The last monic irreducible of degree m over F_p in fq_extension's order, by sympy."""
    T = sympy.Symbol("T")
    for k in range(p**m - 1, -1, -1):
        modulus = tuple(k // p**i % p for i in range(m)) + (1,)
        if sympy.Poly(modulus[::-1], T, modulus=p).is_irreducible:
            return modulus


def _random_poly(field, rng, deg, monic=False):
    lead = 1 if monic else rng.randrange(1, field.q)
    return [rng.randrange(field.q) for _ in range(deg)] + [lead]


# F_2 and F_5 reduce mod p inline, F_4, F_9 and F_{5^4} look up log
# tables, and F_{3^8} (above TABLE_Q) calls its digit arithmetic
@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 2), (3, 2), (5, 4), (3, 8)])
def test_row_kernel_matches_schoolbook_arithmetic(p, m):
    field = fq_extension(p, m)
    # every field is residue_field's, which gives tables to the same fields
    # whatever their modulus
    assert fq_extension(p, m) is residue_field(p, field.modulus) is field
    assert isinstance(field, _LogField) == (1 < m and field.q <= TABLE_Q)
    last = _last_modulus(p, m)
    assert isinstance(residue_field(p, last), _LogField) == (1 < m and field.q <= TABLE_Q)
    rng = random.Random(field.q)
    top = 4 if m == 8 else 9
    for trial in range(12 if m == 8 else 40):
        A = _random_poly(field, rng, rng.randint(0, top)) if trial % 5 else []
        # constant, monic and non-monic divisors
        B = _random_poly(field, rng, rng.choice([0, 1, 2, top // 2]), monic=trial % 2 == 0)
        minus_b = [field.neg(y) for y in B]
        assert _mul(field, A, B) == poly_mul(field, A, B)
        assert _sub(field, A, B) == _school_add(field, A, minus_b)
        quot, rem = _divmod(field, A, B)
        assert (quot, rem) == _school_divmod(field, A, B)
        assert len(rem) < len(B)
        assert _school_add(field, _mul(field, quot, B), rem) == A
        for poly in (quot, rem, _mul(field, A, B), _sub(field, A, B)):
            assert not poly or poly[-1] != 0
        u, v = A, B
        while v:
            u, v = v, _school_divmod(field, u, v)[1]
        assert list(_gcd(field, A, B)) == poly_mul(field, u, [field.inv(u[-1])])
        e = rng.choice([0, 1, 2, 3, field.q, field.q**2 - 1])
        assert _powmod(field, A, e, B) == _school_pow_mod(field, A, e, B)
    with pytest.raises(InputError):
        _divmod(field, A, [])
    with pytest.raises(InputError):
        _powmod(field, A, 2, [])


def _count_element_calls(monkeypatch):
    """Count add, mul and neg calls on FqField and _LogField elements."""
    calls = []
    for cls in (FqField, _LogField):
        for name in ("add", "mul", "neg"):
            original = vars(cls)[name]

            def counting(self, *args, _original=original):
                calls.append(None)
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counting)
    return calls


def test_polynomial_loops_make_no_call_per_coefficient(monkeypatch):
    # rows run inline over F_p and on log tables: a factorization or a
    # root split calls the field per row and per division, not per term
    rng = random.Random(32)
    f = FqPoly(prime_field_of(5), tuple(_random_poly(prime_field_of(5), rng, 32, monic=True)))
    field = fq_extension(5, 4)
    split = [1]
    for r in rng.sample(range(field.q), 16):
        split = poly_mul(field, split, [field.neg(r), 1])
    calls = _count_element_calls(monkeypatch)
    factors = fq_factor(f)
    assert sum((len(fac) - 1) * mult for fac, mult in factors) == 32
    assert len(calls) < 3000
    del calls[:]
    assert len(split_roots(field, split)) == 16
    assert len(calls) < 3000


def test_walk_step_over_the_prime_field_makes_one_element_call(monkeypatch):
    # Horner's rule reduces mod p inline, so a postcritical walk step in F_p
    # makes one element call, the quotient's mul (Horner's would make two per
    # coefficient)
    rmap = MapAtPrime(parse_map("(z^2+1)/(z-1)", 1009), 1009).rmap
    calls = _count_element_calls(monkeypatch)
    z, points = 5, set()
    for _ in range(40):
        z, pt = pushforward(rmap.field, rmap, z)
        points.add(pt)
    assert len(points) > 10
    assert len(calls) == 40


# F_{3^8}, F_{2^13} and F_{101^2} exceed TABLE_Q and invert on digits
@pytest.mark.parametrize("p,m", [(3, 8), (2, 13), (101, 2)])
def test_digit_field_inverse(p, m):
    field = fq_extension(p, m)
    assert not isinstance(field, _LogField)
    rng = random.Random(field.q)
    for a in [1, p - 1, p, field.q - 1] + rng.sample(range(1, field.q), 30):
        inv = field.inv(a)
        assert field.mul(a, inv) == 1
        assert inv == field.pow(a, field.q - 2)
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


# root splits on digits above TABLE_Q, and at p = 2 by the trace map
@pytest.mark.parametrize("p,m", [(2, 13), (3, 8)])
def test_split_roots_on_digit_fields(p, m):
    field = fq_extension(p, m)
    assert field.q > TABLE_Q
    rng = random.Random(m)
    for deg in (2, 3, 5):
        c = rng.randrange(1, field.q)
        f = _form_of_roots(field, c, rng.sample(range(field.q), deg), 0)
        roots = split_roots(field, f)
        assert len(roots) == len(set(roots)) == deg
        assert _form_of_roots(field, c, roots, 0) == f


def test_split_roots_without_roots_in_the_field_raises():
    # z^3 + z + 1 is irreducible over F_5: every Cantor-Zassenhaus draw fails
    message = r"^equal-degree splitting found no factor of a degree-3 polynomial over F_5\^1 in 64 draws"
    with pytest.raises(InternalError, match=message):
        split_roots(prime_field_of(5), [1, 1, 0, 1])


def _roots_three_ways(F, f):
    """split_roots, brute force over the field, and Cantor-Zassenhaus, all sorted."""
    brute = [a for a in range(F.q) if horner(F, f, a) == 0]
    cz = sorted(F.neg(fac[0]) for fac in _equal_degree(F, _monic(F, f), 1, random.Random(0)))
    return split_roots(F, f), brute, cz


# log fields F_9, F_25, F_49 and the prime field F_7: every pair of distinct roots
@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (7, 1)])
def test_quadratic_roots_on_every_split_quadratic(p, m):
    field = fq_extension(p, m)
    assert isinstance(field, _LogField) == (m > 1)
    rng = random.Random(field.q)
    for r in range(field.q):
        for s in range(r + 1, field.q):
            f = _form_of_roots(field, rng.randrange(1, field.q), [r, s], 0)
            assert _roots_three_ways(field, f) == ([r, s],) * 3


# the prime field F_101 and the digit field F_{3^8}, sampled
@pytest.mark.parametrize("p,m", [(101, 1), (3, 8)])
def test_quadratic_roots_on_sampled_quadratics(p, m):
    field = fq_extension(p, m)
    assert not isinstance(field, _LogField)
    rng = random.Random(field.q)
    for _ in range(60 if m == 1 else 4):
        roots = sorted(rng.sample(range(field.q), 2))
        f = _form_of_roots(field, rng.randrange(1, field.q), roots, 0)
        assert _roots_three_ways(field, f) == (roots,) * 3


def _nonsquare(field):
    squares = {field.mul(a, a) for a in range(field.q)}
    return next(a for a in range(field.q) if a not in squares)


@pytest.mark.parametrize("p,m", [(7, 1), (101, 1), (5, 2), (3, 8)])
def test_quadratic_without_two_roots_raises_at_once(p, m, monkeypatch):
    # z^2 - n for a nonsquare n is irreducible, (z - 1)^2 has a double
    # root: neither may reach the random search, which would never end
    field = fq_extension(p, m)

    def no_search(*args):
        raise AssertionError("Cantor-Zassenhaus ran on an unsplittable quadratic")

    n = _nonsquare(field)
    assert field.sqrt(n) is None
    monkeypatch.setattr(padicdyn.finitefield, "_equal_degree", no_search)
    for f in [(field.neg(n), 0, 1), (1, field.neg(2), 1)]:
        with pytest.raises(InternalError, match=f"root split: .* over F_{p}\\^{m}"):
            split_roots(field, f)


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 2), (7, 2), (2, 4), (3, 8), (2, 13)])
def test_sqrt_squares_back(p, m):
    field = fq_extension(p, m)
    rng = random.Random(field.q)
    squares = 0
    for a in [0, 1] + rng.sample(range(2, field.q), min(field.q - 2, 40)):
        s = field.sqrt(a)
        if s is None:
            assert field.pow(a, (field.q - 1) // 2) != 1
        else:
            assert field.mul(s, s) == a
            squares += 1
    assert squares >= 2


@pytest.mark.parametrize("m", [1, 4, 13])
def test_quadratic_roots_at_p_2_take_the_trace_path(m, monkeypatch):
    # in characteristic 2 there is no quadratic formula: split_roots runs
    # equal-degree splitting, whose trace loop makes no modular power
    field = fq_extension(2, m)
    calls = {"_equal_degree": [], "_powmod": []}
    for name, seen in calls.items():
        original = getattr(padicdyn.finitefield, name)

        def counting(*args, _original=original, _seen=seen):
            _seen.append(args)
            return _original(*args)

        monkeypatch.setattr(padicdyn.finitefield, name, counting)
    rng = random.Random(m)
    for _ in range(4):
        roots = sorted(rng.sample(range(field.q), 2))
        f = _form_of_roots(field, rng.randrange(1, field.q), roots, 0)
        calls["_equal_degree"].clear()
        assert split_roots(field, f) == roots
        assert calls["_equal_degree"] and calls["_powmod"] == []
