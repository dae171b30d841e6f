"""MapAtPrime sessions: each derived object is computed once per query."""

import contextlib
import io
import json
import random
import sys

import pytest
import sympy

import padicdyn.cli as cli
import padicdyn.reduction as reduction
from corpus_util import random_models
from oracles import map_table, poly_mul
from padicdyn.errors import InputError, ResourceLimitError
from padicdyn.finitefield import FqPoly, fq_extension, prime_field_of
from padicdyn.maps import Mobius, iterate_map, parse_map
from padicdyn.qpolys import QPoly
from padicdyn.reduction import MapAtPrime


def _count(monkeypatch, module, attr, *, hook=None):
    """Record the arguments of every call to padicdyn.<module>.<attr>.

    The function is replaced in every padicdyn module that imported it by
    name, so calls through ``from .x import f`` are recorded too.  A hook,
    when given, makes the call in its place: hook(original, *args).
    """
    original = getattr(sys.modules[f"padicdyn.{module}"], attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        if hook:
            return hook(original, *args, **kwargs)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("padicdyn") and mod.__dict__.get(attr) is original:
            monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize(
    "argv,n_max",
    [
        (["tower", "z^2+p", "-p", "5", "-x", "1", "-n", "4"], 4),
        (["orbit", "z^2-1", "-p", "5", "-x", "2", "-N", "6", "-n", "3"], 3),
    ],
)
def test_each_query_derives_its_artifacts_once(monkeypatch, argv, n_max):
    # the canonical model is its own p-primitive model: none is built beside it
    normalized = _count(monkeypatch, "maps", "normalize_integral")
    reduced = _count(monkeypatch, "maps", "reduce_map")
    composed_q = _count(monkeypatch, "maps", "compose_map")
    # over Z through compose_map; over F_p with the field's product as mul
    composed_forms = _count(monkeypatch, "qpolys", "compose_forms")
    # separability is read from the factor multiplicities, never by a gcd
    squarefree = _count(monkeypatch, "finitefield", "form_is_squarefree")
    # squarefree decompositions the session runs, not those inside fq_factor
    decomposed = []
    original = reduction.squarefree_decomposition

    def decompose(field, f):
        decomposed.append((field, f))
        return original(field, f)

    monkeypatch.setattr(reduction, "squarefree_decomposition", decompose)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--format", "json"]) == 0

    assert normalized == []
    assert reduced == [(parse_map(argv[1], 5), 5)]
    assert len(composed_q) <= n_max - 1
    # one composition of each map substitutes into both of its forms
    assert len([args for args in composed_forms if len(args) == 2]) <= n_max - 1
    assert 0 < len([args for args in composed_forms if len(args) == 3]) <= n_max - 1
    assert squarefree == []
    keys = [(field, tuple(f)) for field, f in decomposed]
    assert len(keys) == len(set(keys)) > 0


def test_orbit_builds_one_tower_per_distinct_point(monkeypatch):
    # 0 -> -1 -> 0 -> ... under z^2-1: 41 orbit points, 2 distinct, so 2 towers
    # of 3 levels however long the orbit runs
    reports = _count(monkeypatch, "towers", "fiber_report")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["orbit", "z^2-1", "-p", "5", "-x", "0", "-N", "40", "-n", "3"]) == 0
    assert [(str(x), n) for _, n, x in reports] == [
        ("0", 1), ("0", 2), ("0", 3), ("-1", 1), ("-1", 2), ("-1", 3),
    ]


def test_tower_factors_nothing_but_the_critical_divisor(monkeypatch):
    # fibers need only factor degrees; the one fq_factor call is the PC
    # set's, on the critical divisor 2z of the reduced map z^2
    factored = _count(monkeypatch, "finitefield", "fq_factor")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["tower", "z^2+p", "-p", "5", "-x", "1", "-n", "4"]) == 0
    assert [args[0] for args in factored] == [FqPoly(prime_field_of(5), (0, 2))]


def test_orbit_query_runs_one_rational_gcd(monkeypatch):
    # the parser's; the orbital report proves no junction X_n(x) -> X_{n+1}(phi(x)),
    # which holds by construction
    gcds = []
    original = QPoly.gcd

    def gcd(self, other):
        gcds.append((self, other))
        return original(self, other)

    monkeypatch.setattr(QPoly, "gcd", gcd)
    out = io.StringIO()
    argv = ["orbit", "z^2-1", "-p", "5", "-x", "2", "-N", "4", "-n", "2", "--format", "json"]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert len(gcds) == 1
    assert "shifts" not in json.loads(out.getvalue())["orbit"]


@pytest.mark.parametrize(
    "argv,searches",
    [
        # a quadratic fiber at odd p is split by one square root: a log lookup
        (["tower", "z^2+z+1", "-p", "5", "-x=-4", "-n", "3"], False),
        # a cubic fiber still takes Cantor-Zassenhaus, a modular power per draw
        (["tower", "z^3+2", "-p", "7", "-x", "1", "-n", "2"], True),
    ],
)
def test_tree_climb_searches_only_above_degree_two(monkeypatch, argv, searches):
    powers = _count(monkeypatch, "finitefield", "_powmod")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--format", "json"]) == 0
    assert json.loads(out.getvalue())["towers"]["tree"]["field_degree"] > 1
    assert any(args[0].m > 1 for args in powers) == searches


@pytest.mark.parametrize(
    "argv", [["z^2+1", "-p", "1009"], ["(2*z^3+1)/(z^3+z^2+5)", "-p", "101"]]
)
def test_locus_check_evaluates_one_pencil_discriminant(monkeypatch, argv):
    # D(t) once for the map, one evaluation per affine residue, and the
    # fiber over infinity, in the rational map's locus, read off D's top
    # coefficient: no squarefree test
    squarefree = _count(monkeypatch, "finitefield", "form_is_squarefree")
    pencils = _count(monkeypatch, "reduction", "pencil_discriminant")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", *argv, "--format", "json"]) == 0
    report = json.loads(out.getvalue())
    locus = report["locus"]
    assert len(locus) > 50
    assert ("inf" in locus) == ("/" in argv[0])
    assert report["condition2"]["witnesses"] == locus
    assert squarefree == []
    assert len(pencils) == 1


@pytest.mark.parametrize("argv", [["z^3", "-p", "3"], ["z^2", "-p", "2"]])
def test_empty_locus_builds_no_pencil_discriminant(monkeypatch, argv):
    # full reduced degree, but an inseparable reduction: nothing to evaluate
    pencils = _count(monkeypatch, "reduction", "pencil_discriminant")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", *argv, "--format", "json"]) == 0
    report = json.loads(out.getvalue())
    assert report["locus"] == [] and report["condition2"]["reduced_degree_full"]
    assert pencils == []


def test_session_checks_the_prime():
    with pytest.raises(InputError, match="prime"):
        MapAtPrime(parse_map("z^2", 5), 6)


def test_valuations_do_not_reprove_the_prime(monkeypatch):
    proofs = _count(monkeypatch, "padics", "is_prime")
    valuations = _count(monkeypatch, "padics", "vp")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["moduli", "p*z^2+z", "-p", "5"]) == 0
    assert len(valuations) > 20
    assert len(proofs) <= 4


def test_moduli_query_works_on_integers(monkeypatch):
    # one Mobius map for the answer; one resultant, that of the input, and
    # its valuation, plus one valuation per conjugated candidate (of its content),
    # besides the zero witness's re-verification; the reported model is built
    # once, by conjugate_map, with none
    built = []
    original_new = Mobius.__new__

    def new(cls, *entries):
        built.append(entries)
        return original_new(cls, *entries)

    monkeypatch.setattr(Mobius, "__new__", new)
    valuations = _count(monkeypatch, "padics", "vp")
    resultants = _count(monkeypatch, "qpolys", "binary_form_resultant")
    inside = []

    def measure(original, *args):
        before = len(valuations)
        out = original(*args)
        inside.append(len(valuations) - before)
        return out

    _count(monkeypatch, "maps", "conjugate_map", hook=measure)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["moduli", "p*z^2+z", "-p", "5", "--format", "json"]) == 0
    report = json.loads(out.getvalue())["moduli"]
    searched, res_searched = len(valuations), len(resultants)

    del valuations[:], resultants[:]
    assert MapAtPrime(parse_map(report["conjugate"], 5), 5).sgr.is_strict_good_reduction
    assert (report["tried"], report["mobius"]) == (21, "5*z")
    assert len(built) == 1
    assert searched == report["tried"] + 1 + len(valuations)
    assert res_searched == 1 + len(resultants)
    assert inside == [0]


def test_moduli_conjugates_only_the_affine_candidates(monkeypatch):
    # a query with no zero witness counts all 21p candidates, but only the
    # 7p affine ones are conjugated and rated: the inversion composites rate
    # as affine maps walked before them (test_orbits.py pins that)
    conjugated = _count(monkeypatch, "maps", "conjugate_forms")
    valuations = _count(monkeypatch, "padics", "vp")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["moduli", "z^3+2/p", "-p", "5", "--format", "json"]) == 0
    report = json.loads(out.getvalue())["moduli"]
    assert (report["tried"], report["achieved_zero"], report["mobius"]) == (105, False, "z")
    # 35 candidates and the reported model; Res(phi) and the 35 contents
    assert (len(conjugated), len(valuations)) == (35 + 1, 1 + 35)


def test_session_iterates_match_the_free_functions():
    p = 5
    for m in random_models(p, 12, seed=83):
        mp = MapAtPrime(m, p)
        for n in (3, 1, 2):
            assert mp.iterate(n) == iterate_map(m, n)


def test_reduced_iterates_match_the_composite_of_the_map_table():
    # the n-th reduced iterate, point by point on P^1(F_p) and P^1(F_{p^2}),
    # is the n-fold composite of the reduced map's own table
    seen = set()
    for p in (2, 3, 5, 7):
        for m in random_models(p, 10, degrees=(2, 3, 4), seed=61 + p):
            mp = MapAtPrime(m, p)
            rmap = mp.rmap
            if rmap.reduced_degree < 1:
                continue
            seen.add(("p | d", m.d % p == 0))
            seen.add(("degree drops", rmap.reduced_degree < m.d))
            for field in (prime_field_of(p), fq_extension(p, 2)):
                table = map_table(field, rmap.F1, rmap.G1)
                want = {z: z for z in table}
                for n in (1, 2, 3):
                    want = {z: table[w] for z, w in want.items()}
                    Fn, Gn = mp.reduced_iterate(n)
                    assert len(Fn) == len(Gn) == rmap.reduced_degree**n + 1
                    assert map_table(field, Fn, Gn) == want
    assert seen == {(k, v) for k in ("p | d", "degree drops") for v in (False, True)}


def test_session_factor_degrees_are_keyed_by_monic_coefficients(monkeypatch):
    mp = MapAtPrime(parse_map("z^2", 5), 5)
    decomposed = _count(monkeypatch, "reduction", "squarefree_decomposition")
    f = (1, 0, 0, 1)  # T^3 + 1 = (T + 1)(T^2 - T + 1)
    assert mp.factor_degrees(f) == ((1, 1), (2, 1))
    assert mp.factor_degrees([3 * c for c in f]) == ((1, 1), (2, 1))
    assert len(decomposed) == 1


def _sympy_degrees(coeffs, p):
    T = sympy.Symbol("T")
    _, factors = sympy.Poly(list(reversed(coeffs)), T, modulus=p).factor_list()
    return tuple(sorted((fac.degree(), mult) for fac, mult in factors))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_degrees_match_sympy(p):
    rng = random.Random(41 + p)
    field = prime_field_of(p)
    mp = MapAtPrime(parse_map("z^2", p), p)
    for _ in range(40):
        # a product of random factors, some repeated, some p-th powers
        coeffs = [rng.randrange(1, p)]
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 4)
            fac = [rng.randrange(p) for _ in range(deg)] + [1]
            power = rng.choice([1, 1, 2, 3, p, 2 * p])
            for _ in range(power):
                coeffs = poly_mul(field, coeffs, fac)
        assert mp.factor_degrees(coeffs) == _sympy_degrees(coeffs, p)


def test_factor_degrees_of_pth_powers():
    # over F_2: T^4 + 1 = (T + 1)^4 and T^8 + T^6 + T^2 + 1 = (T + 1)^4 (T^2 + T + 1)^2;
    # over F_3: (T^3 + 2)^3 * T^2 = (T + 2)^9 * T^2
    for p, coeffs, want in [
        (2, [1, 0, 0, 0, 1], ((1, 4),)),
        (2, [1, 0, 1, 0, 0, 0, 1, 0, 1], ((1, 4), (2, 2))),
        (3, [0, 0, 8, 0, 0, 12, 0, 0, 6, 0, 0, 1], ((1, 2), (1, 9))),
    ]:
        mp = MapAtPrime(parse_map("z^2", p), p)
        f = [c % p for c in coeffs]
        assert mp.factor_degrees(f) == want == _sympy_degrees(coeffs, p)


def test_session_finds_the_least_level_over_the_cap_in_log_steps():
    # at d = 1 no level is over the cap, so the depth itself is refused past
    # it; a depth of 10^9 is refused at once, not walked level by level
    line = MapAtPrime(parse_map("z+1", 5), 5)
    line.check_depth(4096)
    with pytest.raises(ResourceLimitError, match=r"^tower depth 4097 exceeds cap 4096 at degree 1$"):
        line.check_depth(4097)
    with pytest.raises(ResourceLimitError, match=r"^tower depth 1000000000 exceeds"):
        line.check_depth(10**9)
    mp = MapAtPrime(parse_map("z^2+1", 5), 5, cap_degree=10**300)
    mp.check_depth(996)
    with pytest.raises(ResourceLimitError, match=r"iterate degree 2\^997 exceeds"):
        mp.check_depth(10**9)
