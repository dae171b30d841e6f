"""Residue field arithmetic, factorization, and binary forms over F_q."""

import random
import types

import pytest
import sympy

import padicdyn.finitefield
from padicdyn.errors import InputError, ResourceLimitError
from padicdyn.finitefield import (
    TABLE_Q,
    FqField,
    _LogField,
    FqPoly,
    fiber_form,
    form_compose_pair,
    form_dehomogenize,
    form_eval,
    form_gcd_split,
    form_is_squarefree,
    form_mul,
    fq_extension,
    fq_factor,
    iterate_forms,
    prime_field_of,
    split_roots,
    squarefree_decomposition,
)
from padicdyn.qpolys import binary_form_resultant

from oracles import form_resultant


def test_canonical_moduli_are_frozen():
    # lexicographically first monic irreducibles: T^2+1, T^3+T+1, T^2+2
    assert fq_extension(3, 2).modulus == (1, 0, 1)
    assert fq_extension(2, 3).modulus == (1, 1, 0, 1)
    assert fq_extension(5, 2).modulus == (2, 0, 1)
    assert fq_extension(7, 1).modulus == (0, 1)


def test_field_axioms_sampled():
    for field in (fq_extension(3, 2), fq_extension(2, 3), fq_extension(5, 2)):
        rng = random.Random(field.q)
        els = field.elements()
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
    els = field.elements()
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
    assert tab.sub(a, b) == dig.sub(a, b)
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
    dig = FqField(p, m, tab.modulus)  # a field as pushforward builds it
    assert isinstance(tab, _LogField) and not isinstance(dig, _LogField)
    assert fq_extension(p, m) is tab
    for a in tab.elements():
        for b in tab.elements():
            _agree(tab, dig, a, b)
    if p == 2:
        assert all(tab.neg(a) == a for a in tab.elements())


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
            f = FqPoly.of_integers(field, coeffs)
            ours = {
                (tuple(int(c) for c in fac.coeffs), mult)
                for fac, mult in fq_factor(f)
            }
            _, sym_factors = _to_sympy(f).factor_list()
            theirs = {
                (tuple(int(c) % p for c in reversed(fac.all_coeffs())), mult)
                for fac, mult in sym_factors
            }
            assert ours == theirs


def test_extension_factorization_multiplies_back():
    rng = random.Random(37)
    for field in (fq_extension(2, 2), fq_extension(3, 2), fq_extension(5, 2), fq_extension(2, 3)):
        els = field.elements()
        for _ in range(15):
            deg = rng.randint(1, 6)
            coeffs = [rng.choice(els) for _ in range(deg)]
            lead = rng.choice(els[1:])
            f = FqPoly(field, coeffs + [lead])
            factors = fq_factor(f)
            prod = FqPoly(field, (f.lc,))
            for fac, mult in factors:
                assert fac.is_irreducible()
                assert fac.lc == field.of_int(1)
                for _ in range(mult):
                    prod = prod * fac
            assert prod.coeffs == f.coeffs
            assert sum(fac.degree * m for fac, m in factors) == f.degree


def test_factorization_is_seed_independent(monkeypatch):
    # equal-degree splitting runs on a fixed-seed stream; the canonical
    # sort must make the factor list independent of that stream
    field = fq_extension(5, 2)
    f = FqPoly.of_integers(field, [3, 1, 4, 1, 5, 1])
    want = fq_factor(f)
    other = types.SimpleNamespace(Random=lambda seed: random.Random(seed + 12345))
    monkeypatch.setattr(padicdyn.finitefield, "random", other)
    assert fq_factor(f) == want


def test_squarefree_decomposition_char_p_powers():
    # (T+1)^2 * (T^2+1) over F_3; the square escapes a naive Yun step
    field = prime_field_of(3)
    sq = FqPoly.of_integers(field, [1, 1]) * FqPoly.of_integers(field, [1, 1])
    f = sq * FqPoly.of_integers(field, [1, 0, 1])
    parts = {mult: tuple(g.coeffs) for g, mult in squarefree_decomposition(f)}
    assert parts[2] == (1, 1)
    assert parts[1] == (1, 0, 1)
    # a pure p-th power: T^3 + 1 = (T+1)^3 in char 3
    cube = FqPoly.of_integers(field, [1, 0, 0, 1])
    assert squarefree_decomposition(cube) == [(FqPoly.of_integers(field, [1, 1]), 3)]
    assert not cube.is_squarefree()


def test_roots_against_brute_force():
    rng = random.Random(41)
    for field in (prime_field_of(7), fq_extension(3, 2)):
        for _ in range(20):
            roots = rng.sample(field.elements(), rng.randint(0, 5))
            f = FqPoly(field, (rng.randrange(1, field.q),))
            for r in roots:
                f = f * FqPoly(field, (field.neg(r), 1))
            brute = [a for a in field.elements() if f(a) == 0]
            assert split_roots(f) == brute == sorted(roots)


def test_form_eval_vs_compose():
    field = prime_field_of(5)
    rng = random.Random(43)
    F = tuple(rng.randrange(5) for _ in range(3))
    G = (1, 0, 3)
    F2, G2 = iterate_forms(field, F, G, 2)
    for a in range(5):
        for b in range(5):
            if a == 0 and b == 0:
                continue
            inner = (form_eval(field, F, a, b), form_eval(field, G, a, b))
            if inner == (0, 0):
                continue
            assert form_eval(field, F2, a, b) == form_eval(field, F, *inner)
            assert form_eval(field, G2, a, b) == form_eval(field, G, *inner)


def test_form_compose_pair_degree():
    field = prime_field_of(3)
    F, G = (1, 2, 1), (0, 1, 0)
    FF, GG = form_compose_pair(field, F, (F, G)), form_compose_pair(field, G, (F, G))
    assert len(FF) == 5 and len(GG) == 5


def test_form_gcd_split_extracts_common_factor():
    field = prime_field_of(5)
    # F = (X - 2Y) * (X + Y), G = (X - 2Y) * (X - Y)
    F = form_mul(field, (3, 1), (1, 1))
    G = form_mul(field, (3, 1), (4, 1))
    common, F1, G1 = form_gcd_split(field, F, G)
    assert common == (3, 1)
    c, a, b = form_gcd_split(field, F1, G1)
    assert len(c) == 1  # coprime parts share nothing
    assert form_mul(field, common, F1) == F


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
    poly, inf_mult = form_dehomogenize(field, fib)
    assert inf_mult == 0 and tuple(poly.coeffs) == (1, 0, 1)
    fib_inf = fiber_form(field, F, G, 1, 0)  # fiber over infinity: -Y^2
    poly, inf_mult = form_dehomogenize(field, fib_inf)
    assert inf_mult == 2 and poly.degree == 0


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
