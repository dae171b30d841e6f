"""MapAtPrime sessions: each derived object is computed once per query."""

import contextlib
import io
import sys

import pytest

import padicdyn.cli as cli
from corpus_util import random_models
from padicdyn.errors import InputError
from padicdyn.finitefield import FqPoly, fq_factor, iterate_forms
from padicdyn.maps import iterate_map, parse_map
from padicdyn.reduction import MapAtPrime


def _count(monkeypatch, module, attr):
    """Record the arguments of every call to padicdyn.<module>.<attr>.

    The function is replaced in every padicdyn module that imported it by
    name, so calls through ``from .x import f`` are recorded too.
    """
    original = getattr(sys.modules[f"padicdyn.{module}"], attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
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
    normalized = _count(monkeypatch, "maps", "normalize_integral")
    reduced = _count(monkeypatch, "maps", "reduce_map")
    composed_q = _count(monkeypatch, "maps", "compose_map")
    composed_fp = _count(monkeypatch, "finitefield", "form_compose_pair")
    factored = _count(monkeypatch, "finitefield", "fq_factor")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--format", "json"]) == 0

    assert [args[0] for args in normalized] == [parse_map(argv[1], 5)]
    assert len(reduced) == 1
    assert len(composed_q) <= n_max - 1
    # one composition of the reduced map substitutes into both of its forms
    assert len(composed_fp) <= 2 * (n_max - 1)
    keys = [(f.field, f.monic().coeffs) for f, *_ in factored]
    assert len(keys) == len(set(keys)) > 0


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


def test_session_iterates_match_the_free_functions():
    p = 5
    for m in random_models(p, 12, seed=83):
        mp = MapAtPrime(m, p)
        for n in (3, 1, 2):
            assert mp.iterate(n) == iterate_map(m, n)
        rmap = mp.rmap
        if rmap.reduced_degree < 1:
            continue
        for n in (2, 3, 1):
            assert mp.reduced_iterate(n) == iterate_forms(rmap.field, rmap.F1, rmap.G1, n)


def test_session_factor_is_keyed_by_monic_coefficients(monkeypatch):
    mp = MapAtPrime(parse_map("z^2", 5), 5)
    field = mp.rmap.field
    factored = _count(monkeypatch, "finitefield", "fq_factor")
    f = FqPoly(field, (1, 0, 0, 1))
    assert list(mp.factor(f)) == fq_factor(f)
    assert list(mp.factor(f.scale(3))) == fq_factor(f)
    assert len(factored) == 1
