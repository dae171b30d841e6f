"""The CLI under ``python -O``: same bytes and exit codes as without it.

``-O`` strips ``assert`` statements, so an invariant check written as one
would vanish there; the package raises ``InternalError`` instead.  A few
frozen corpus invocations and every internal alarm, each forced by a fault,
run in an optimized subprocess and must match; the alarms run in a plain one too,
each with a timeout, since a fault that breaks an invariant can also
leave a loop that never ends.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import padicdyn.cli as cli
import padicdyn.maps as maps
import padicdyn.orbits as orbits
import padicdyn.reduction as reduction
import padicdyn.towers as towers
from padicdyn.finitefield import FqField
from padicdyn.maps import RationalMapModel
from padicdyn.qpolys import _form_mul
from padicdyn.reduction import MapAtPrime
from test_cli_corpus import CORPUS, STORE, run

TESTS = Path(__file__).resolve().parent

CASES = [
    ["analyze", "z^3+z", "-p", "3", "--format", "json"],
    ["tower", "z^2+p", "-p", "5", "-x", "1", "-n", "3", "--format", "json"],
    ["tower", "z^2-1", "-p", "7", "-x", "inf", "-n", "2", "--format", "json"],
    ["orbit", "z^2-1", "-p", "5", "-x", "2", "-N", "4", "-n", "2", "--format", "json"],
    ["moduli", "p*z^2+z", "-p", "5"],
    ["moduli", "z^2/p", "-p", "5", "--format", "json"],
    ["examples", "-p", "3"],
    ["analyze", "(z^2+1)/(z^2+1)", "-p", "5", "--format", "json"],
    ["tower", "z^2+1", "-p", "3", "-x", "0", "-n", "9", "--cap-degree", "64", "--format", "json"],
    # a separability failure read from the factor multiplicities: no tree, no cycle types
    ["tower", "z^2+p", "-p", "5", "-x", "5", "-n", "2", "--format", "json"],
    # a tree in F_{3^8}: polynomial rows on digit arithmetic
    ["tower", "z^2+1", "-p", "3", "-x", "0", "-n", "3", "--format", "json"],
    # postcritical walks above the field cap: refused, answered, and a
    # refusal that the tower goes on past
    ["analyze", "(9*z^4-6*z^3-4*z-6)/(-3*z^2+7*z+4)", "-p", "101"],
    ["analyze", "(z^4+2)/(z^4+z^3+1)", "-p", "101", "--cap-field", "10000"],
    ["tower", "(9*z^4-6*z^3-4*z-6)/(-3*z^2+7*z+4)", "-p", "101", "-x", "1", "-n", "1"],
    # a JSON answer of about 20 kB: 953 locus residues and their witnesses
    ["analyze", "(z^2+1)/(z-1)", "-p", "1009", "--format", "json"],
    # a 32-point level in F_{2^8}: root splits by the trace map at p = 2
    ["tower", "z^2+z+1", "-p", "2", "-x", "1", "-n", "5", "--format", "json"],
    # a composite that passes the bases 2..37, and a prime above the proved range
    ["analyze", "z^2", "-p", "318665857834031151167461"],
    ["analyze", "z^2-2", "-p", "618970019642690137449562111"],
    # postcritical walks of degree 42 and 72 above the field cap, both refused
    ["analyze", "z^128+z+1", "-p", "5"],
    ["analyze", "z^74+z+1", "-p", "5"],
]

def _scaled(model, p):
    # a model left with content p: not p-primitive, it reduces to the zero pair
    return model._replace(F=tuple(p * c for c in model.F), G=tuple(p * c for c in model.G))


def _unconjugated(conjugate_forms):
    # the model's own forms, scaled by the content of its true conjugate's forms
    def forms(model, *matrix):
        g = math.gcd(*(c for form in conjugate_forms(model, *matrix) for c in form))
        return tuple(tuple(g * c for c in form) for form in (model.F, model.G))
    return forms


# (argv, module, attribute, fault, message): each fault trips the internal
# alarm whose message it names
ALARMS = [
    # a zero pencil discriminant rejects every fiber and contradicts the resultant
    (
        ["analyze", "z^2+p", "-p", "5"],
        reduction,
        "pencil_discriminant",
        lambda f: lambda F, G: (),
        "the fiber criterion and the resultant criterion disagree",
    ),
    # a climb that loses a root leaves a tree level short of d^n points
    (
        ["tower", "z^2+p", "-p", "5", "-x", "1", "-n", "2"],
        towers,
        "split_roots",
        lambda f: lambda field, g: f(field, g)[1:],
        "has 1 points, not 2^1",
    ),
    # a climb that trades the root r of z^2 = 2 over F_5 for r + 1, no root,
    # keeps 2 points but a level that Frobenius does not map to itself
    (
        ["tower", "z^2+p", "-p", "5", "-x", "2", "-n", "1"],
        towers,
        "split_roots",
        lambda f: lambda field, g: [field.add(r, 1) if i == 0 else r for i, r in enumerate(f(field, g))],
        "a level of the preimage tree is not Frobenius-stable",
    ),
    # a tree field of half the degree holds no roots of some quadratic fiber
    (
        ["tower", "z^2+z+1", "-p", "5", "-x=-4", "-n", "3"],
        towers,
        "fq_extension",
        lambda f: lambda p, m, **kw: f(p, m // 2, **kw),
        "has no two distinct roots there",
    ),
    # at p = 2 the tree splits quadratics by Cantor-Zassenhaus, which in a field
    # of half the degree draws on an irreducible one until its draws run out
    (
        ["tower", "z^2+z+1", "-p", "2", "-x", "1", "-n", "5"],
        towers,
        "fq_extension",
        lambda f: lambda p, m, **kw: f(p, m // 2, **kw),
        "equal-degree splitting found no factor of a degree-2 polynomial over F_2^4 in 64 draws",
    ),
    # a parser that lets the shared factor z - 1 through: both forms vanish at 1
    (
        ["orbit", "z^2-1", "-p", "5", "-x", "1", "-N", "2", "-n", "0"],
        cli,
        "parse_map",
        lambda f: lambda text, p: RationalMapModel(*(_form_mul(g, (-1, 1)) for g in f(text, p)[1:])),
        "coprime forms cannot vanish together",
    ),
    # a gcd split that misses the common factor Y of p*z^2+z mod p: the
    # reduced forms X*Y and Y^2 both vanish at infinity, a critical point
    (
        ["tower", "p*z^2+z", "-p", "5", "-x", "1", "-n", "1"],
        maps,
        "form_gcd_split",
        lambda f: lambda field, F, G: ((1,), F, G),
        "coprime reduced forms cannot vanish together",
    ),
    (
        ["analyze", "z^2+p", "-p", "5"],
        reduction,
        "reduce_map",
        lambda f: lambda model, p: f(_scaled(model, p), p),
        "a p-primitive model cannot reduce to the zero pair",
    ),
    # a conjugation that ignores its Mobius map but keeps the content it would
    # have: the rating still reaches zero, and the bad model comes back as the witness
    (
        ["moduli", "p*z^2+z", "-p", "5"],
        orbits,
        "conjugate_forms",
        _unconjugated,
        "zero witness failed re-verification",
    ),
    # a Frobenius that fixes everything closes the orbit of the image 2T of
    # the critical point T (T^2 = -1 over F_103) at once, so T - 2T is its product
    (
        ["analyze", "z^3+3*z", "-p", "103"],
        FqField,
        "frobenius",
        lambda f: lambda self, a: a,
        "orbit product must have F_p coefficients",
    ),
    # a resultant off by a factor of p, beside a reduction of full degree
    (
        ["analyze", "z^2+p", "-p", "5"],
        RationalMapModel,
        "resultant",
        lambda f: lambda self: 5 * f(self),
        "resultant valuation and reduced degree disagree",
    ),
    # factor degrees that report a double factor of the fiber z^2-1 over 1,
    # whose discriminant is a unit
    (
        ["tower", "z^2+p", "-p", "5", "-x", "1", "-n", "1"],
        MapAtPrime,
        "factor_degrees",
        lambda f: lambda self, c: tuple((e, m + (i == 0)) for i, (e, m) in enumerate(f(self, c))),
        "unit discriminant forces a squarefree reduction",
    ),
    # factor degrees that lose a factor of that fiber
    (
        ["tower", "z^2+p", "-p", "5", "-x", "1", "-n", "1"],
        MapAtPrime,
        "factor_degrees",
        lambda f: lambda self, c: f(self, c)[:-1],
        "level-1 cycle type (1,) does not sum to 2^1",
    ),
    # a critical-orbit resultant one too large: the discriminant of the fiber
    # of z^3+5 over 1 read from it no longer divides by the 3^3 it must
    (
        ["tower", "z^3+p", "-p", "5", "-x", "1", "-n", "1"],
        towers,
        "_integer_resultant",
        lambda f: lambda a, b: f(a, b) + 1,
        "level-1 fiber discriminant over 1 leaves a remainder",
    ),
]

SCRIPT = """
import json, sys
from test_optimized import CASES, alarm_outputs, run
cases = CASES if sys.argv[1:] == ["cases"] else []
print(json.dumps({"debug": __debug__, "runs": [run(argv) for argv in cases] + alarm_outputs()}))
"""


def alarm_outputs():
    out = []
    for argv, module, attr, fault, _ in ALARMS:
        original = getattr(module, attr)
        setattr(module, attr, fault(original))
        try:
            out.append(run(argv))
        finally:
            setattr(module, attr, original)
    return out


def _script(*args, optimized):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    flags = ["-O"] if optimized else []
    res = subprocess.run(
        [sys.executable, *flags, "-c", SCRIPT, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["debug"] != optimized
    return out["runs"]


def test_optimized_interpreter_gives_identical_output():
    stored = {tuple(e["argv"]): e for e in json.loads(STORE.read_text())}
    alarms = _script(optimized=False)
    assert [e["exit"] for e in alarms] == [4] * len(ALARMS)
    for entry, (*_, message) in zip(alarms, ALARMS):
        assert entry["stderr"].startswith("internal error: ") and message in entry["stderr"]
    assert _script("cases", optimized=True) == [stored[tuple(argv)] for argv in CASES] + alarms


def test_cases_are_in_the_frozen_corpus():
    assert all(argv in CORPUS for argv in CASES)
