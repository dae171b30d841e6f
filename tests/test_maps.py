"""Parsing, projective points, models, iteration, conjugation, reduction."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from corpus_util import random_models
from padicdyn.errors import InputError, ResourceLimitError
from padicdyn.maps import (
    DEGREE_CAP,
    Mobius,
    ProjPointQ,
    RationalMapModel,
    conjugate_forms,
    conjugate_map,
    eval_map,
    eval_reduced,
    iterate_map,
    normalize_integral,
    parse_map,
    reduce_map,
)
from padicdyn.finitefield import form_gcd_split, form_is_zero, prime_field_of
from padicdyn.padics import vp
from padicdyn.qpolys import binary_form_resultant

from oracles import mobius_apply, mobius_inverse, sylvester_det


def test_parse_basic_forms():
    m = parse_map("z^2 + p", 5)
    assert (m.d, m.F, m.G) == (2, (5, 0, 1), (1, 0, 0))
    assert m.map_str() == "z^2+5"
    m = parse_map("p*z^2 + z", 5)
    assert (m.F, m.G) == ((0, 1, 5), (1, 0, 0))
    m = parse_map("z^2/(1 + p*z^2)", 5)
    assert (m.F, m.G) == ((0, 0, 1), (1, 0, 5))
    m = parse_map("1/z", 7)
    assert (m.F, m.G) == ((1, 0), (0, 1))
    m = parse_map("(z^2 - 1)/(3*z + 2)", 5)
    assert (m.F, m.G) == ((-1, 0, 1), (2, 3, 0))


def test_parse_rational_coefficients_cleared():
    m = parse_map("z^2/2 + 1/3", 5)
    assert (m.F, m.G) == ((2, 0, 3), (6, 0, 0))


def test_parse_unary_minus_and_powers():
    m = parse_map("-z^3 + 2", 5)
    assert (m.F, m.G) == ((2, 0, 0, -1), (1, 0, 0, 0))
    # a unary plus is read as nothing, before a factor and in an exponent
    assert parse_map("+z^2", 5) == parse_map("+(+z)^2", 5) == parse_map("z^2", 5)
    assert parse_map("z^+2-+3", 5) == parse_map("z^2-3", 5)
    with pytest.raises(InputError):
        parse_map("z^2^3", 5)  # exponent chains are ambiguous, rejected


def test_parse_rejections():
    with pytest.raises(InputError, match="implicit multiplication"):
        parse_map("2z", 5)
    with pytest.raises(InputError, match="common factor"):
        parse_map("(z^2 + z)/z", 5)
    with pytest.raises(InputError, match="constant"):
        parse_map("3 + 1", 5)
    with pytest.raises(InputError):
        parse_map("z + w", 5)
    with pytest.raises(InputError):
        parse_map("z^z", 5)
    # a superscript is a digit to str.isdigit, but int() cannot read it
    with pytest.raises(InputError, match="unexpected character '²'"):
        parse_map("z^²", 5)
    assert parse_map("z^2+٣", 5) == parse_map("z^2+3", 5)  # an Arabic-Indic 3
    with pytest.raises(InputError):
        parse_map("(z + 1", 5)
    with pytest.raises(InputError):
        parse_map("1/(z - z)", 5)
    # negative exponents are sugar for the reciprocal power, not an error
    m = parse_map("z^-2", 5)
    assert (m.F, m.G) == ((1, 0, 0), (0, 0, 1))


def test_parse_prime_substitution_happens_before_arithmetic():
    assert parse_map("z + p^2", 3).F == (9, 1)
    assert parse_map("z + p", 11).F == (11, 1)


def test_projective_point_canonicalization():
    assert (ProjPointQ(2, 4).a, ProjPointQ(2, 4).b) == (1, 2)
    assert (ProjPointQ(-3, -6).a, ProjPointQ(-3, -6).b) == (1, 2)
    assert (ProjPointQ(5, 0).a, ProjPointQ(5, 0).b) == (1, 0)
    assert (ProjPointQ(0, -7).a, ProjPointQ(0, -7).b) == (0, 1)
    with pytest.raises(TypeError):
        ProjPointQ(Fraction(1, 2), 3)
    assert ProjPointQ.from_value(Fraction(1, 6)) == ProjPointQ(1, 6)
    assert str(ProjPointQ.from_value("inf")) == "inf"
    assert ProjPointQ.from_value("-2/6") == ProjPointQ(-1, 3)


def test_projective_point_reduction():
    assert ProjPointQ(7, 3).reduce(5) == 4  # 7 * 3^{-1} = 2 * 2 = 4
    assert ProjPointQ(1, 5).reduce(5) is None
    assert ProjPointQ.from_value("inf").reduce(5) is None
    assert ProjPointQ(5, 1).reduce(5) == 0
    assert ProjPointQ(7, 3).is_integral(3) is False
    assert ProjPointQ(7, 3).is_integral(5) is True


def test_eval_map_matches_affine_formula():
    m = parse_map("(z^2 + 1)/(2*z - 3)", 5)
    rng = random.Random(5)
    for _ in range(25):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if 2 * x - 3 == 0:
            continue
        got = eval_map(m, ProjPointQ(x.numerator, x.denominator))
        assert got == ProjPointQ((x * x + 1).numerator * (2 * x - 3).denominator,
                                 (x * x + 1).denominator * (2 * x - 3).numerator)
    assert eval_map(m, ProjPointQ.from_value("inf")) == ProjPointQ.from_value("inf")
    assert eval_map(m, ProjPointQ.from_value("3/2")) == ProjPointQ.from_value("inf")


def test_iterate_matches_repeated_eval():
    rng = random.Random(7)
    for m in random_models(5, 12, seed=77):
        it2 = iterate_map(m, 2)
        for _ in range(6):
            x = ProjPointQ(rng.randint(-5, 5), rng.randint(1, 5))
            assert eval_map(it2, x) == eval_map(m, eval_map(m, x))


def test_iterate_degree_cap():
    m = parse_map("z^2 + 1", 5)
    with pytest.raises(ResourceLimitError):
        iterate_map(m, 4, cap_degree=8)


def test_mobius_algebra():
    M = Mobius(1, 2, 3, 4)
    N = Mobius(0, 1, 1, 0)
    for x in (ProjPointQ(2, 1), ProjPointQ(-1, 3), ProjPointQ(1, 0)):
        assert mobius_apply(mobius_inverse(M), mobius_apply(M, x)) == x
    assert mobius_apply(N, ProjPointQ(0, 1)) == ProjPointQ.from_value("inf")
    assert mobius_apply(Mobius(Fraction(1, 5), 2, 0, 1), ProjPointQ(5, 1)) == ProjPointQ(3, 1)
    with pytest.raises(InputError):
        Mobius(1, 2, 2, 4)


def test_conjugation_round_trip_and_composition():
    rng = random.Random(11)
    for m in random_models(5, 10, seed=101):
        M = Mobius(1, 2, 1, 3)
        back = conjugate_map(conjugate_map(m, M), mobius_inverse(M))
        assert back == m
        # phi^M(M(x)) = M(phi(x))
        for _ in range(4):
            x = ProjPointQ(rng.randint(-4, 4), rng.randint(1, 4))
            assert eval_map(conjugate_map(m, M), mobius_apply(M, x)) == mobius_apply(M, eval_map(m, x))


def _law_matrix(rng, p, shape):
    """A nonsingular integer matrix: any, an inversion composite, or p | det."""
    while True:
        if shape == "any":
            a, b, c, d = (rng.randint(-2 * p, 2 * p) for _ in range(4))
        elif shape == "inversion":
            # z -> p^e z + b with inversion on the right or on the left
            e, t = rng.randint(-3, 3), rng.randint(-p, 3 * p)
            s, u = (p**e, 1) if e >= 0 else (1, p**-e)
            a, b, c, d = rng.choice([(t * u, s, u, 0), (0, u, s, t * u)])
        else:
            # second row = k * first row + p * (e, f): p | det, off the grid
            a, b, k, e, f = (rng.randint(-2 * p, 2 * p) for _ in range(5))
            c, d = k * a + p * e, k * b + p * f
        if a * d - b * c != 0:
            return a, b, c, d


def test_conjugate_forms_obey_the_resultant_transformation_law():
    # Res(M o phi o M^-1) = det(M)^(d^2+d) Res(phi) for the unscaled
    # conjugate, and its model divides out the content g of its forms, so
    # the model's resultant has valuation v + (d^2+d) v_p(det M) - 2d v_p(g)
    rng = random.Random(23)
    seen = Counter()
    for p in (2, 3, 5, 7):
        for m in random_models(p, 6, degrees=(2, 3, 4), seed=300 + p):
            d, res = m.d, m.resultant()
            assert res == sylvester_det(list(m.F), list(m.G)) != 0
            seen["p | d"] += d % p == 0
            for shape in ("any", "inversion", "p | det") * 2:
                M = _law_matrix(rng, p, shape)
                det = M[0] * M[3] - M[1] * M[2]
                F, G = conjugate_forms(m, *M)
                assert binary_form_resultant(F, G, d) == det ** (d * d + d) * res
                g = math.gcd(*F, *G)
                law = vp(p, res) + (d * d + d) * vp(p, det) - 2 * d * vp(p, g)
                assert vp(p, RationalMapModel(F, G).resultant()) == law
                seen["p | det"] += det % p == 0
                seen["p | g"] += g % p == 0
    assert seen["p | d"] >= 4 and seen["p | g"] >= 20, seen


def test_conjugation_by_inversion_worked_example():
    m = parse_map("z^2 + p", 7)
    psi = conjugate_map(m, Mobius.inversion())
    assert psi == parse_map("z^2/(1 + p*z^2)", 7)


def test_normalize_integral_is_p_primitive():
    for p in (3, 5):
        for m in random_models(p, 20, seed=13):
            # content 1 is p-primitive: the canonical model is its own
            assert normalize_integral(m, p) is m
            assert min(vp(p, c) for c in m.F + m.G) == 0


def test_resultant_degree_consistency():
    m = parse_map("z^2 + p", 5)
    assert m.resultant() == 1
    assert vp(5, parse_map("p*z^2 + z", 5).resultant()) == 2


def test_reduce_map_splits_common_factor():
    for p in (3, 5):
        field = prime_field_of(p)
        for m in random_models(p, 30, seed=17):
            rmap = reduce_map(m, p)
            raw_F, raw_G = (tuple(c % p for c in f) for f in (m.F, m.G))
            if form_is_zero(raw_F) or form_is_zero(raw_G):
                assert rmap.reduced_degree == 0
                continue
            # coprime parts really are coprime and rebuild the raw reduction
            common, f1, g1 = form_gcd_split(field, raw_F, raw_G)
            assert (common, f1, g1) == (rmap.common, rmap.F1, rmap.G1)
            assert rmap.reduced_degree == m.d - (len(rmap.common) - 1)
            again, _, _ = form_gcd_split(field, rmap.F1, rmap.G1)
            assert len(again) == 1


def test_reduced_map_evaluation_commutes_under_full_degree():
    # with no degree drop, reduction commutes with evaluation everywhere
    rng = random.Random(19)
    p = 5
    for m in random_models(p, 40, seed=23):
        rmap = reduce_map(m, p)
        if rmap.reduced_degree < m.d:
            continue
        for _ in range(8):
            lift = ProjPointQ(rng.randint(-12, 12), rng.randint(1, 12))
            image = eval_reduced(rmap.field, rmap.F1, rmap.G1, lift.reduce(p))
            assert image == eval_map(m, lift).reduce(p)


def test_degenerate_reduction_shapes():
    # numerator divisible by p: the reduced F vanishes identically
    m = RationalMapModel([5, 10], [1, 0])
    rmap = reduce_map(m, 5)
    assert form_is_zero(rmap.F1) and rmap.common == (1, 0)
    assert rmap.reduced_degree == 0


def test_map_str_round_trip():
    for text in ("z^2+5", "(z^2+1)/(z-1)", "1/z", "z^3-2*z+1"):
        m = parse_map(text, 5)
        assert parse_map(m.map_str(), 5) == m


def test_parser_refuses_a_product_past_the_cap_before_forming_it(monkeypatch):
    # every product the parser forms goes through the wrapped kernel
    import padicdyn.maps as maps

    formed = []
    kernel = maps._form_mul

    def counting(a, b):
        formed.append(len(a) + len(b) - 2)
        return kernel(a, b)

    monkeypatch.setattr(maps, "_form_mul", counting)
    cases = ("((z+1)^2)^2049", "z^4000*(z+1)^97", "z^4096/z^96 - z^4096/z^96", "(z^64+1)^65")
    for text in cases:
        with pytest.raises(ResourceLimitError, match="expression degree exceeds cap 4096"):
            parse_map(text, 5)
    assert formed and max(formed) <= DEGREE_CAP
    assert parse_map("z^4096 + 1", 5).d == DEGREE_CAP


def test_parser_refuses_a_coefficient_past_the_height_cap_before_forming_it(monkeypatch):
    # the bound on a product's coefficients adds its factors' bit sizes, and
    # a power's multiplies the base's by the exponent: neither is formed past it
    import padicdyn.maps as maps

    formed = []
    kernel = maps._form_mul

    def counting(a, b):
        formed.append(maps._bits(a) + maps._bits(b))
        return kernel(a, b)

    monkeypatch.setattr(maps, "_form_mul", counting)
    cases = {
        "(7^4000)^1000*z^2+1": (7**4000).bit_length() * 1000,
        "(7^4000)^400*z^2+1": (7**4000).bit_length() * 400,
        "2^50001*z^2+1": 2 * 50001,
        "(2^50000)*(2^50000)*z+z^2": 50001 + 50001,
        "z^2+1/0^100001": 100001,  # a zero base still has a denominator of one bit
    }
    for text, bits in cases.items():
        message = f"^map parser: a coefficient of up to {bits} bits exceeds cap 100000$"
        with pytest.raises(ResourceLimitError, match=message):
            parse_map(text, 5)
    assert formed and max(formed) <= maps.PARSE_HEIGHT_CAP_BITS
    # 22,460 bits, and a constant power past the degree cap, are read
    assert parse_map("z^2+7^4000*7^4000", 5).F[0] == 7**8000
    assert parse_map("2^4097*z^2", 5).F == (0, 0, 2**4097)


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("z^2+", 2, "error: map expression ended unexpectedly"),
        ("z^2+*3", 2, "error: unexpected token '*' in map expression"),
        ("z^2 3", 2, "error: unexpected token '3' after a complete expression (note: there is no implicit multiplication)"),
        ("z^2)", 2, "error: unexpected token ')' after a complete expression (note: there is no implicit multiplication)"),
        # a power of z past the degree cap; a constant power is bounded by its height
        ("z^4097", 3, "error: expression degree exceeds cap 4096"),
    ],
)
def test_parser_error_paths_exit_with_their_messages(text, code, message, capsys):
    import padicdyn.cli as cli

    assert cli.main(["analyze", text, "-p", "5"]) == code
    assert capsys.readouterr() == ("", message + "\n")


_Z = sympy.Symbol("z")
_ZPOLY = lambda e: sympy.Poly(e, _Z, domain="ZZ")  # noqa: E731


def _random_tree(rng, depth, prime):
    """(text, precedence, sympy value, unreduced (num, den) or None after a zero division).

    The pair follows the parser's rule: a/b + c/d = (ad + cb)/(bd), and so
    on, with nothing cancelled; the value is sympy's own expression.
    Precedence: 1 sum, 2 product, 3 unary minus, 4 power, 5 atom.
    """
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(["int", "z", "z", "p"])
        if kind == "z":
            return "z", 5, _Z, (_ZPOLY(_Z), _ZPOLY(1))
        k = prime if kind == "p" else rng.randint(0, 9)
        return ("p" if kind == "p" else str(k)), 5, sympy.Integer(k), (_ZPOLY(k), _ZPOLY(1))

    def wrap(node, low):
        text, prec = node[0], node[1]
        return text if prec >= low and rng.random() < 0.85 else f"({text})"

    op = rng.choice("+-*/^~")
    a = _random_tree(rng, depth - 1, prime)
    pair_a = a[3]
    if op == "~":
        pair = None if pair_a is None else (-pair_a[0], pair_a[1])
        return "-" + wrap(a, 3), 3, None if pair is None else -a[2], pair
    if op == "^":
        e = rng.randint(-3, 3)
        base = a[0] if a[1] == 5 else f"({a[0]})"
        sign = "+" if e >= 0 and rng.random() < 0.2 else ""
        pair = None
        if pair_a is not None:
            num, den = pair_a
            if e >= 0:
                pair = (num**e, den**e)
            elif not num.is_zero:
                pair = (den**-e, num**-e)
        return f"{base}^{sign}{e}", 4, a[2] ** e if pair is not None else None, pair
    b = _random_tree(rng, depth - 1, prime)
    pair = None
    if pair_a is not None and b[3] is not None:
        (an, ad), (bn, bd) = pair_a, b[3]
        if op == "+":
            pair = (an * bd + bn * ad, ad * bd)
        elif op == "-":
            pair = (an * bd - bn * ad, ad * bd)
        elif op == "*":
            pair = (an * bn, ad * bd)
        elif not bn.is_zero:
            pair = (an * bd, ad * bn)
    if pair is None:
        value = None
    else:
        value = {"+": sympy.Add, "-": lambda x, y: x - y, "*": sympy.Mul, "/": lambda x, y: x / y}[op](a[2], b[2])
    low_left, low_right, prec = (1, 2, 1) if op in "+-" else (2, 3, 2)
    return f"{wrap(a, low_left)}{op}{wrap(b, low_right)}", prec, value, pair


def _coefficients(expr, d):
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, _Z, domain="QQ").all_coeffs())]
    return cs + [0] * (d + 1 - len(cs))


def test_parser_agrees_with_sympy_on_random_expressions():
    # the value against sympy's cancel and fraction, up to content and sign,
    # and a shared factor refused exactly when sympy's gcd of the parser's
    # unreduced numerator and denominator is nonconstant
    rng = random.Random(2024)
    accepted = shared = 0
    for _ in range(400):
        prime = rng.choice([2, 3, 5, 7])
        text, _, value, pair = _random_tree(rng, rng.randint(1, 5), prime)
        if pair is None or pair[0].is_zero:
            with pytest.raises(InputError):
                parse_map(text, prime)
            continue
        num, den = pair
        g = sympy.gcd(num, den)
        if g.degree() >= 1:
            shared += 1
            with pytest.raises(InputError, match="common factor"):
                parse_map(text, prime)
            continue
        d = max(num.degree(), den.degree())
        if d < 1:
            with pytest.raises(InputError, match="constant"):
                parse_map(text, prime)
            continue
        m = parse_map(text, prime)
        accepted += 1
        top, bottom = sympy.fraction(sympy.cancel(value))
        want = _coefficients(top, d) + _coefficients(bottom, d)
        den = math.lcm(*(c.denominator for c in want))
        want = [int(c * den) for c in want]
        content = math.gcd(*want)
        want = [c // content for c in want]
        assert m.d == d, text
        assert list(m.F + m.G) in (want, [-c for c in want]), text
    assert accepted > 100 and shared > 10
