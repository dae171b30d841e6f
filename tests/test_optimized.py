"""The CLI under ``python -O``: same bytes and exit codes as without it.

``-O`` strips ``assert`` statements, so an invariant check written as one
would vanish there; the package raises ``InternalError`` instead.  A few
frozen corpus invocations and the two forced internal alarms of
``test_cli.py`` run in an optimized subprocess and must match.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import padicdyn.reduction as reduction
import padicdyn.towers as towers
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
]

# (argv, module, attribute, fault): each fault trips an internal alarm
ALARMS = [
    # a zero pencil discriminant rejects every fiber and contradicts the resultant
    (["analyze", "z^2+p", "-p", "5"], reduction, "pencil_discriminant", lambda f: lambda F, G: ()),
    # a climb that loses a root leaves a tree level short of d^n points
    (["tower", "z^2+p", "-p", "5", "-x", "1", "-n", "2"], towers, "split_roots", lambda f: lambda g: f(g)[1:]),
]

SCRIPT = """
import json, sys
from test_optimized import CASES, alarm_outputs, run
if __debug__:
    sys.exit("not running under -O")
print(json.dumps([run(argv) for argv in CASES] + alarm_outputs()))
"""


def alarm_outputs():
    out = []
    for argv, module, attr, fault in ALARMS:
        original = getattr(module, attr)
        setattr(module, attr, fault(original))
        try:
            out.append(run(argv))
        finally:
            setattr(module, attr, original)
    return out


def test_optimized_interpreter_gives_identical_output():
    stored = {tuple(e["argv"]): e for e in json.loads(STORE.read_text())}
    alarms = alarm_outputs()
    assert [e["exit"] for e in alarms] == [4, 4]

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    res = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [stored[tuple(argv)] for argv in CASES] + alarms


def test_cases_are_in_the_frozen_corpus():
    assert all(argv in CORPUS for argv in CASES)
