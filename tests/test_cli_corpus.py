"""Frozen command-line corpus: exact stdout, stderr and exit code.

Every entry of CORPUS is one ``padicdyn.cli.main`` invocation, and
``cli_corpus.json`` holds the bytes it printed and the code it returned.
A change to any of them is a change to the program's output and has to
be made on purpose: rewrite the stored file with

    PYTHONPATH=src python tests/test_cli_corpus.py --regenerate

which prints the index and argv of every entry whose exit code, stdout
or stderr changed (or that is new), and review its diff.
"""

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

import padicdyn.cli as cli

STORE = Path(__file__).with_name("cli_corpus.json")

CORPUS = [
    # analyze: good, degenerate, constant, inseparable and degree-one maps
    ["analyze", "z^2+p", "-p", "5"],
    ["analyze", "z^2+p", "-p", "5", "--format", "json"],
    ["analyze", "z^2-1", "-p", "7", "--format", "json"],
    ["analyze", "p*z^2+z", "-p", "5"],
    ["analyze", "p^2*z^2", "-p", "5", "--format", "json"],
    ["analyze", "z^3", "-p", "3", "--format", "json"],
    ["analyze", "(z^2+1)/(z-1)", "-p", "5", "--format", "json"],
    ["analyze", "z/(z^2+1)", "-p", "7"],
    ["analyze", "z+1", "-p", "5", "--format", "json"],
    ["analyze", "z^2+1", "-p", "13", "--format", "json"],
    # p divides the degree: separable reductions
    ["analyze", "z^3+z", "-p", "3"],
    ["analyze", "z^3+z", "-p", "3", "--format", "json"],
    ["analyze", "z^2+z+1", "-p", "2", "--format", "json"],
    ["tower", "z^2+z+1", "-p", "2", "-x", "0", "-n", "2"],
    ["tower", "z^3+z", "-p", "3", "-x", "1", "-n", "2", "--format", "json"],
    ["orbit", "z^2+z+1", "-p", "2", "-x", "1", "-N", "3", "-n", "1", "--format", "json"],
    # tower: integral, non-integral, postcritical and infinite basepoints
    ["tower", "z^2+p", "-p", "5", "-x", "1", "-n", "3"],
    ["tower", "z^2+p", "-p", "5", "-x", "1", "-n", "3", "--format", "json"],
    ["tower", "z^2+p", "-p", "5", "-x", "1/5", "-n", "1", "--format", "json"],
    ["tower", "z^2+p", "-p", "5", "-x", "5", "-n", "2", "--format", "json"],
    ["tower", "z^2-1", "-p", "7", "-x", "inf", "-n", "2", "--format", "json"],
    ["tower", "z^3+z+1", "-p", "7", "-x", "2", "-n", "2"],
    ["tower", "p*z^2+z", "-p", "5", "-x", "1", "-n", "2", "--format", "json"],
    ["tower", "z^2+1", "-p", "3", "-x", "0", "-n", "3", "--cap-field", "10", "--format", "json"],
    # orbit: cycles, towers along the orbit, infinity, no towers
    ["orbit", "z^2-1", "-p", "5", "-x", "2", "-N", "4", "-n", "2", "--format", "json"],
    ["orbit", "z^2-1", "-p", "5", "-x", "0", "-N", "4", "-n", "2"],
    ["orbit", "z^2+p", "-p", "5", "-x", "1", "-N", "2", "-n", "2", "--format", "json"],
    ["orbit", "1/z", "-p", "5", "-x", "0", "-N", "2", "-n", "2", "--format", "json"],
    ["orbit", "z^2", "-p", "5", "-x", "3", "-N", "3", "-n", "0"],
    # moduli
    ["moduli", "p*z^2+z", "-p", "5"],
    ["moduli", "p^2*z^2", "-p", "3", "--format", "json"],
    ["moduli", "z^2+p", "-p", "7", "--format", "json"],
    # examples
    ["examples", "-p", "3"],
    ["examples", "-p", "5", "--format", "json"],
    # exit code 2: invalid input
    ["analyze", "z^2", "-p", "6"],
    ["analyze", "2z", "-p", "5"],
    ["analyze", "(z^2+1)/(z^2+1)", "-p", "5", "--format", "json"],
    ["tower", "z^2", "-p", "5", "-x", "nonsense", "-n", "1"],
    ["examples", "-p", "2", "--format", "json"],
    # exit code 3: resource caps
    ["orbit", "z^2", "-p", "5", "-x", "2", "-N", "30", "--cap-height", "16"],
    ["tower", "z^2+1", "-p", "3", "-x", "0", "-n", "9", "--cap-degree", "64", "--format", "json"],
    # integers of more than 4,300 digits (the default limit of str(int))
    ["analyze", "z^2+7^4000*7^4000", "-p", "5"],
    ["tower", "z^2+7^4000*7^4000", "-p", "5", "-x", "1", "-n", "1", "--format", "json"],
    ["orbit", "z^2+7^4000*7^4000", "-p", "5", "-x", "0", "-N", "2", "-n", "0", "--format", "json"],
    # moduli grid corners: a winner at a < 0, a full walk whose best is not 0,
    # and a full walk that keeps the identity on ties
    ["moduli", "z^2/p", "-p", "5", "--format", "json"],
    ["moduli", "(z^2+p*z)/p^2", "-p", "3"],
    ["moduli", "z^3+2/p", "-p", "5", "--format", "json"],
    # basepoints of more than 4,300 digits
    ["tower", "z^2", "-p", "5", "-x", "1" * 5000, "-n", "1"],
    ["orbit", "z^2", "-p", "5", "-x", "1" * 5000 + "/3", "-N", "2", "-n", "0", "--format", "json"],
    # a negative fraction reaches -x only as -x=-1/3: argparse reads "-1/3" as an option
    ["tower", "z^2", "-p", "5", "-x=-1/3", "-n", "1"],
    # p = 101, degrees 3 and 4: infinity in the locus, and the fiber over
    # phi(inf) = 2, resp. 1, loses affine degree
    ["analyze", "(2*z^3+1)/(z^3+z^2+5)", "-p", "101", "--format", "json"],
    ["analyze", "(z^4+2)/(z^4+z^3+1)", "-p", "101", "--format", "json"],
    # a tree in F_{3^8}, above TABLE_Q: polynomial rows on digit arithmetic
    ["tower", "z^2+1", "-p", "3", "-x", "0", "-n", "3", "--format", "json"],
    # postcritical walks in fields above --cap-field: the walk from a critical
    # point of degree 5 in F_{101^5} does not close within its 163 steps;
    # one of degree 2 in 101^2 = 10,201 elements closes within its 1,024
    ["analyze", "(9*z^4-6*z^3-4*z-6)/(-3*z^2+7*z+4)", "-p", "101"],
    ["analyze", "(z^4+2)/(z^4+z^3+1)", "-p", "101", "--cap-field", "10000"],
    # T^2+1 needs 1031^2 elements, above the default cap: under z^3+3z its
    # walk closes in two steps, under z^3+3z+1 not within 1,024
    ["analyze", "z^3+3*z", "-p", "1031"],
    ["analyze", "z^3+3*z+1", "-p", "1031"],
    # a refused walk leaves tower and orbit without the postcritical flags
    ["tower", "(9*z^4-6*z^3-4*z-6)/(-3*z^2+7*z+4)", "-p", "101", "-x", "1", "-n", "1"],
    ["orbit", "(9*z^4-6*z^3-4*z-6)/(-3*z^2+7*z+4)", "-p", "101", "-x", "1", "-N", "2", "-n", "1", "--format", "json"],
    # p = 1009: a locus of 953 residues ending in inf, and 959 violations
    ["analyze", "(z^2+1)/(z-1)", "-p", "1009", "--format", "json"],
    ["analyze", "p*z^3+z^2+1", "-p", "1009", "--format", "json"],
    # trees at p = 2 and at p | d: a 32-point level in F_{2^8}, split by the
    # trace map; d = p = 3 in F_{3^6}; d = 4, p = 2 with 64 points
    ["tower", "z^2+z+1", "-p", "2", "-x", "1", "-n", "5", "--format", "json"],
    ["tower", "z^3+z+1", "-p", "3", "-x", "1", "-n", "3", "--format", "json"],
    ["tower", "z^4+z+1", "-p", "2", "-x", "1", "-n", "3", "--format", "json"],
    # primality: psi12, a strong pseudoprime to the bases 2..37, is composite
    # (exit 2); 2^89 - 1 is prime but above psi13, where no proof is run (exit 3)
    ["analyze", "z^2", "-p", "318665857834031151167461"],
    ["analyze", "z^2-2", "-p", "618970019642690137449562111"],
    # a power past the degree cap is refused before its first product (exit 3)
    ["analyze", "((z+1)^2)^2049", "-p", "5"],
    # postcritical walks above the field cap (exit 3): three of degree 42
    # get 4096 // 42^2 = 2 steps each, and one of degree 72 gets none and is
    # refused before its field is built
    ["analyze", "z^128+z+1", "-p", "5"],
    ["analyze", "z^74+z+1", "-p", "5"],
    # a superscript digit is no decimal digit: an input error (exit 2)
    ["analyze", "z^²", "-p", "5"],
    # a depth past the degree cap is refused before any level, naming the
    # least level over it (exit 3)
    ["tower", "z^2+1", "-p", "5", "-x", "0", "-n", "13"],
    # at degree one the depth itself is capped (exit 3)
    ["tower", "z+1", "-p", "5", "-x", "0", "-n", "1000000000"],
    # an orbit that cycles bounds no coordinate, so its length is capped (exit 3)
    ["orbit", "z^2", "-p", "5", "-x", "0", "-N", "1000000", "-n", "0", "--format", "json"],
    # a 2-cycle revisits its points: each repeat prints the levels of its first visit
    ["orbit", "z^2-1", "-p", "5", "-x", "0", "-N", "12", "-n", "3", "--format", "json"],
    # a critical divisor of degree 1999 over F_7 is refused before it is factored (exit 3)
    ["analyze", "z^2000+z+1", "-p", "7"],
    # a tree that needs F_{3^32} is refused by the field cap, and the levels still print
    ["tower", "z^2+2*z+1", "-p", "3", "-x=-1", "-n", "5"],
    # a moduli search of 7p = 700,021 affine conjugations is refused before
    # the first (exit 3)
    ["moduli", "z^2+1", "-p", "100003"],
    # at degree 32 the cap on 7p is 2^19 // 32^2 = 512: 28,693 conjugations
    # are refused before the first (exit 3)
    ["moduli", "z^32+1/p", "-p", "4099"],
    # a coefficient of about 11,230,000 bits is refused before the parser
    # forms it (exit 3)
    ["analyze", "(7^4000)^1000*z^2+1", "-p", "5"],
    # analyze's text lines for an inseparable reduction whose postcritical
    # set is all of P^1, and for a constant reduction
    ["analyze", "z^3", "-p", "3"],
    ["analyze", "p^2*z^2", "-p", "5"],
    # 131,033 conjugations of 99,015-bit coefficients, each counted 13 times,
    # pass the moduli width cap and are refused before the first (exit 3)
    ["moduli", "((2^1000)^99-1)*z^2+1/p", "-p", "18719"],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _stored():
    return json.loads(STORE.read_text())


def test_stored_corpus_lists_the_same_invocations():
    assert [entry["argv"] for entry in _stored()] == CORPUS


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: f"{i:02d}-{CORPUS[i][0]}")
def test_cli_output_is_frozen(index):
    assert run(CORPUS[index]) == _stored()[index]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    before = {tuple(entry["argv"]): entry for entry in _stored()}
    fresh = [run(argv) for argv in CORPUS]
    for index, entry in enumerate(fresh):
        old = before.get(tuple(entry["argv"]))
        changed = [key for key in ("exit", "stdout", "stderr") if old and old[key] != entry[key]]
        if changed or not old:
            print(f"{index:02d} {','.join(changed) or 'new'}: {shlex.join(entry['argv'])}")
    STORE.write_text(json.dumps(fresh, indent=1) + "\n")
