"""Command-line front end: payload shapes, determinism, and exit codes."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import padicdyn.cli as cli
from padicdyn.golden import GoldenCheck, battery_passed, run_battery

from corpus_util import random_models


SRC = Path(__file__).resolve().parent.parent / "src"


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "padicdyn", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def test_analyze_json_payload():
    res = _run("analyze", "z^2+p", "-p", "5", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert sorted(data) == ["condition2", "locus", "map", "pc", "prime", "sgr"]
    assert data["prime"] == 5
    assert data["sgr"]["is_strict_good_reduction"] is True
    assert data["sgr"]["res_valuation"] == 0
    assert data["condition2"]["holds"] is True
    assert data["pc"]["points"] == ["0", "inf"]


def test_analyze_text_mentions_the_verdict():
    res = _run("analyze", "5*z^2+z", "-p", "5")
    assert res.returncode == 0
    assert "strict good reduction: no" in res.stdout
    assert "resultant: 25 (valuation 2)" in res.stdout


def test_tower_json_payload():
    res = _run("tower", "z^2+p", "-p", "5", "-x", "1", "-n", "2", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert sorted(data) == ["map", "prime", "towers"]
    tw = data["towers"]
    assert tw["x"] == "1" and tw["integral"] is True
    assert [lev["certificate"] for lev in tw["levels"]] == ["UNRAMIFIED", "UNRAMIFIED"]
    assert tw["tree"]["level_sizes"] == [1, 2, 4]


def test_tower_flags_nonintegral_basepoint():
    res = _run("tower", "z^2+p", "-p", "5", "-x", "1/5", "-n", "1", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    tw = data["towers"]
    assert tw["integral"] is False
    assert any("not integral" in w for w in tw["warnings"])
    assert tw["levels"][0]["certificate"] == "NO_CERTIFICATE"
    assert tw["levels"][0]["lc_valuation"] >= 1


def test_orbit_json_payload():
    res = _run("orbit", "z^2+p", "-p", "5", "-x", "1", "-N", "2", "-n", "1", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    orb = data["orbit"]
    assert orb["points"] == ["1", "6", "41"]
    assert orb["reductions"] == [1, 1, 1]
    assert orb["all_unramified_on_locus"] is True
    assert len(orb["basepoints"]) == 3


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tower_levels_are_the_orbit_basepoint_levels(p, capsys):
    # tower over x and orbit's basepoint x_0 report the same levels, cycle
    # types included, for integral, non-integral and infinite x; p = 2, 3
    # include p | d, and bad reductions leave some cycle types null
    rng = random.Random(500 + p)
    cycles = set()
    for m in random_models(p, 12, seed=500 + p):
        x = rng.choice(["inf", str(rng.randint(-p, 2 * p)), f"{rng.choice([-1, 1, 2])}/{p}"])
        common = [m.map_str(), "-p", str(p), f"-x={x}", "-n", "2", "--format", "json"]
        assert cli.main(["tower", *common]) == 0
        levels = json.loads(capsys.readouterr().out)["towers"]["levels"]
        assert cli.main(["orbit", *common, "-N", "1"]) == 0
        basepoint = json.loads(capsys.readouterr().out)["orbit"]["basepoints"][0]
        assert basepoint["levels"] == [{k: v for k, v in lev.items() if k != "cycle_type"} for lev in levels]
        assert basepoint["cycle_types"] == [lev["cycle_type"] for lev in levels]
        cycles.update(c is None for c in basepoint["cycle_types"])
    assert cycles == {True, False}


def test_moduli_json_payload():
    res = _run("moduli", "p*z^2+z", "-p", "5", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    mod = data["moduli"]
    assert mod["initial_valuation"] == 2
    assert mod["best_valuation"] == 0
    assert mod["achieved_zero"] is True
    assert mod["mobius"] == "5*z"
    assert mod["conjugate"] == "z^2+z"
    assert mod["tried"] == 21


def test_examples_command_passes():
    res = _run("examples", "-p", "7", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["passed"] is True
    assert len(data["examples"]) == 56
    assert all(entry["ok"] for entry in data["examples"])

    text = _run("examples", "-p", "7")
    assert text.returncode == 0
    assert "56/56 worked-example checks passed" in text.stdout


def test_battery_passes_at_every_odd_prime_to_101():
    for p in (q for q in range(3, 102, 2) if all(q % r for r in range(3, q, 2))):
        checks = run_battery(p)
        assert len(checks) == 56 and battery_passed(checks), (p, [c for c in checks if not c.ok])


def test_json_output_is_byte_deterministic():
    a = _run("analyze", "z^2-1", "-p", "7", "--format", "json")
    b = _run("analyze", "z^2-1", "-p", "7", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = _run("tower", "z^2-1", "-p", "7", "-x", "1", "-n", "2", "--format", "json")
    d = _run("tower", "z^2-1", "-p", "7", "-x", "1", "-n", "2", "--format", "json")
    assert c.stdout == d.stdout


def test_input_errors_exit_2():
    assert _run("analyze", "z^2", "-p", "6").returncode == 2  # composite
    assert _run("analyze", "2z", "-p", "5").returncode == 2  # parse error
    assert _run("tower", "z^2", "-p", "5", "-x", "nonsense", "-n", "1").returncode == 2
    assert _run("analyze", "z^2").returncode == 2  # argparse: missing -p


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tower", "z^2+1", "-p", "5", "-x", "2", "-n", "0"], "-n: tower depth must be >= 1, got 0"),
        (["tower", "z^2+1", "-p", "5", "-x", "2", "-n", "-2"], "-n: tower depth must be >= 1, got -2"),
        (["orbit", "z^2+1", "-p", "5", "-x", "2", "-n", "-3"], "-n: tower depth must be >= 0, got -3"),
    ],
)
def test_depths_the_commands_cannot_serve_exit_2(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # orbit -n 0 stays valid: the orbit without towers
    assert cli.main(["orbit", "z^2+1", "-p", "5", "-x", "2", "-N", "2", "-n", "0"]) == 0


def test_resource_caps_exit_3(capsys):
    res = _run("orbit", "z^2", "-p", "5", "-x", "2", "-N", "30", "--cap-height", "16")
    assert res.returncode == 3
    # a cycling orbit grows no coordinate: its length is capped, before any step
    for n in ("0", "1"):
        start = time.perf_counter()
        assert cli.main(["orbit", "z^2", "-p", "5", "-x", "0", "-N", "1000000", "-n", n]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", "error: orbit length 1000000 exceeds cap 100000\n")
    res2 = _run("tower", "z^2+1", "-p", "3", "-x", "0", "-n", "9", "--cap-degree", "64")
    assert res2.returncode == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tower", "z^2+1", "-p", "5", "-x", "0", "-n", "13"], "iterate degree 2^13 exceeds cap 4096"),
        (["orbit", "z^2+1", "-p", "5", "-x", "0", "-N", "3", "-n", "13"], "iterate degree 2^13 exceeds cap 4096"),
        # the least level over the cap is named, not the depth asked for
        (["tower", "z^3+1", "-p", "5", "-x", "0", "-n", "40", "--cap-degree", "100"], "iterate degree 3^5 exceeds cap 100"),
        # the orbit is walked first, so its height cap still fires first
        (
            ["orbit", "z^2", "-p", "5", "-x", "2", "-N", "30", "-n", "13", "--cap-height", "16"],
            "orbit coordinate exceeded 16 bits at step 4",
        ),
        # at degree one no level's degree grows, so the depth itself is capped
        (["tower", "z+1", "-p", "5", "-x", "0", "-n", "1000000000"], "tower depth 1000000000 exceeds cap 4096 at degree 1"),
        (["orbit", "z+1", "-p", "5", "-x", "0", "-N", "2", "-n", "1000000000"], "tower depth 1000000000 exceeds cap 4096 at degree 1"),
        (["tower", "2*z", "-p", "5", "-x", "1", "-n", "11", "--cap-degree", "10"], "tower depth 11 exceeds cap 10 at degree 1"),
    ],
)
def test_depth_past_the_degree_cap_is_refused_before_any_level(argv, message, capsys):
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, degree",
    [(["z^2000+z+1", "-p", "7"], "1999 over F_7"), (["z^128+z+1", "-p", "1000003"], "127 over F_1000003")],
)
def test_critical_divisor_past_the_work_cap_exits_3_at_once(argv, degree, capsys):
    start = time.perf_counter()
    assert cli.main(["analyze", *argv]) == 3
    assert time.perf_counter() - start < 1
    assert f"postcritical set: factoring the critical divisor of degree {degree} " in capsys.readouterr().err


def test_moduli_search_past_the_width_cap_exits_3_at_once(capsys):
    # 7p = 700,021 affine conjugations, above 2^17: refused before the first
    start = time.perf_counter()
    assert cli.main(["moduli", "z^2+1", "-p", "100003"]) == 3
    assert time.perf_counter() - start < 1
    message = "moduli search at p=100003: 700021 affine conjugations exceed cap 131072"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cap_flags_only_where_they_bind():
    assert _run("moduli", "z^2", "-p", "5", "--cap-degree", "5").returncode == 2
    offered = {
        ("analyze", "z^2", "-p", "5"): {"field"},
        ("tower", "z^2", "-p", "5", "-x", "1"): {"degree", "field"},
        ("orbit", "z^2", "-p", "5", "-x", "1"): {"degree", "field", "height"},
        ("moduli", "z^2", "-p", "5"): set(),
        ("examples", "-p", "5"): set(),
    }
    parser = cli.build_parser()
    for argv, caps in offered.items():
        for cap in ("degree", "field", "height"):
            full = [*argv, f"--cap-{cap}", "64"]
            if cap in caps:
                assert getattr(parser.parse_args(full), f"cap_{cap}") == 64
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(full)


def test_refused_postcritical_walk_stops_only_analyze(monkeypatch, capsys):
    import padicdyn.reduction as reduction

    # an allowance of one step refuses the walk from T^2+1 under z^3+3z in F_49
    monkeypatch.setattr(reduction, "PC_WORK_ABOVE_CAP", 4)
    common = ["z^3+3*z", "-p", "7", "--cap-field", "7"]
    refusal = "did not close within 1 steps, and its field size 7^2 exceeds cap 7"
    assert cli.main(["analyze", *common]) == 3
    assert refusal in capsys.readouterr().err

    assert cli.main(["tower", *common, "-x", "1", "-n", "1"]) == 0
    out = capsys.readouterr().out
    assert "warning: basepoint not checked against the postcritical set: " in out
    assert refusal in out and " 1 |      0 |" in out

    assert cli.main(["orbit", *common, "-x", "1", "-N", "2", "-n", "1", "--format", "json"]) == 0
    orbit = json.loads(capsys.readouterr().out)["orbit"]
    assert refusal in orbit["pc_note"]
    assert orbit["in_postcritical_set"] == [None, None, None]
    assert orbit["all_unramified_on_locus"] is None
    assert cli.main(["orbit", *common, "-x", "1", "-N", "2", "-n", "1"]) == 0
    out = capsys.readouterr().out
    assert "note: no postcritical flags: " in out and refusal in out
    assert "certified unramified: unknown" in out


def test_tower_goes_on_past_a_walk_allowed_no_step(capsys):
    # z^74+z+1 at p = 5 has a critical point of degree 72, whose walk in a
    # field above the cap is allowed 4096 // 72^2 = 0 steps
    refusal = "of degree 72 is allowed 4096 // 72^2 = 0 steps, as its field size 5^72 exceeds cap 1048576"
    assert cli.main(["analyze", "z^74+z+1", "-p", "5"]) == 3
    assert refusal in capsys.readouterr().err
    assert cli.main(["tower", "z^74+z+1", "-p", "5", "-x", "1", "-n", "1"]) == 0
    out = capsys.readouterr().out
    assert "warning: basepoint not checked against the postcritical set: " in out and refusal in out
    assert " 1 |      0 |        0 | UNRAMIFIED     | 1,1,72     |" in out


def test_constant_reduction_leaves_the_orbit_flag_unknown(capsys):
    # 25z^2 reduces to the constant 0: no postcritical set, so no basepoint is
    # off it, although x_0 and x_2 carry no certificate
    argv = ["orbit", "p^2*z^2", "-p", "5", "-x", "1", "-N", "2", "-n", "1"]
    assert cli.main([*argv, "--format", "json"]) == 0
    orbit = json.loads(capsys.readouterr().out)["orbit"]
    assert orbit["in_postcritical_set"] == [None, None, None]
    assert [bp["levels"][0]["certificate"] for bp in orbit["basepoints"]][::2] == [
        "NO_CERTIFICATE",
        "NO_CERTIFICATE",
    ]
    assert orbit["all_unramified_on_locus"] is None
    assert cli.main(argv) == 0
    assert "certified unramified: unknown" in capsys.readouterr().out


def test_failed_battery_exits_1(monkeypatch, capsys):
    fake = [GoldenCheck(name="rigged", ok=False, expected="1", got="0")]
    monkeypatch.setattr(cli, "run_battery", lambda p: fake)
    rc = cli.main(["examples", "-p", "5"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "0/1" in out


def test_internal_alarms_exit_4(monkeypatch, capsys):
    import padicdyn.reduction as reduction
    import padicdyn.towers as towers

    # a zero pencil discriminant rejects every fiber and contradicts the resultant
    monkeypatch.setattr(reduction, "pencil_discriminant", lambda F, G: ())
    assert cli.main(["analyze", "z^2+p", "-p", "5"]) == 4
    assert "consistency alarm" in capsys.readouterr().err
    monkeypatch.undo()

    # a climb that loses a root leaves a tree level short of d^n points
    split_roots = towers.split_roots
    monkeypatch.setattr(towers, "split_roots", lambda field, f: split_roots(field, f)[1:])
    assert cli.main(["tower", "z^2+p", "-p", "5", "-x", "1", "-n", "2"]) == 4
    assert "not 2^1" in capsys.readouterr().err

    # a climb that trades the root r of z^2 = 2 over F_5 for r + 1, no root,
    # keeps 2 points but a level that Frobenius does not map to itself
    def shifted(field, f):
        roots = split_roots(field, f)
        return [field.add(roots[0], 1)] + roots[1:]

    monkeypatch.setattr(towers, "split_roots", shifted)
    assert cli.main(["tower", "z^2+p", "-p", "5", "-x", "2", "-n", "1"]) == 4
    assert "Frobenius-stable" in capsys.readouterr().err


@pytest.mark.parametrize("residue,code", [(6, 4), (None, 4), (0, 0)])
def test_analyze_alarm_cross_checks_the_postcritical_walk(residue, code, monkeypatch, capsys):
    # a walk that loses the branch value -1 = phi(0) of z^2-1 at p = 7 puts it
    # in the locus, where the fiber z^2 is not etale: the resultant criterion
    # then contradicts the fiber criterion.  So does losing infinity, critical
    # and fixed, whose fiber is Y^2; losing 0, no branch value, is harmless
    import padicdyn.reduction as reduction

    postcritical_set, lost = reduction.postcritical_set, reduction.ClosedPoint.of_residue(7, residue)

    def losing(mp):
        pc = postcritical_set(mp)
        return pc._replace(points=pc.points - {lost})

    monkeypatch.setattr(reduction, "postcritical_set", losing)
    assert cli.main(["analyze", "z^2-1", "-p", "7"]) == code
    assert ("consistency alarm" in capsys.readouterr().err) == (code == 4)


@pytest.mark.parametrize("command", [["analyze"], ["tower", "-x=-2/3", "-n", "2"]])
def test_map_with_a_leading_minus_sign(command, capsys):
    # maps print that way (-7*z^2+3*z+6), so one read back must not pass for an option
    outputs = []
    for argv in (
        command + ["-p", "5", "--", "-z^2+1"],
        command + ["(-z^2+1)", "-p", "5"],
        command + ["-z^2+1", "-p", "5"],
        command + ["-p", "5", "-z^2+1", "--format", "text"],
    ):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out.startswith("map: -z^2+1\n")
    assert all(out == outputs[0] for out in outputs)


def test_z_word_for_a_command_without_a_map_is_named_alone(capsys):
    # examples takes no map, so "-z" is an unknown option there, not a map to move behind "--"
    with pytest.raises(SystemExit) as exc:
        cli.main(["examples", "-p", "5", "-z"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: -z\n")


def test_closed_stdout_exits_1_without_a_traceback():
    # about 200 kB of JSON, more than a pipe holds: the writer meets a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "padicdyn", "analyze", "z^2+1", "-p", "10007", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_text_report_is_rendered_only_when_printed(monkeypatch, capsys):
    rendered = []
    for name, command in list(cli._DISPATCH.items()):

        def recording(args, _command=command):
            payload, text, code = _command(args)

            def render():
                rendered.append(args.command)
                return text()

            return payload, render, code

        monkeypatch.setitem(cli._DISPATCH, name, recording)
    for argv in (["analyze", "z^2+1", "-p", "101"], ["moduli", "p*z^2+z", "-p", "5"]):
        assert cli.main(argv + ["--format", "json"]) == 0
        assert rendered == []
        assert cli.main(argv) == 0
        assert rendered == [argv[0]]
        del rendered[:]
    assert "good residue locus: 0 3 4 6 7 " in capsys.readouterr().out


# JSON's two-character escapes, control characters, and non-ASCII past the BMP
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u20ac\U0001d11e'), st.characters()))
_INT = st.one_of(st.integers(), st.integers(-(10**4000), 10**4000))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _INT, _TEXT, st.lists(st.one_of(_INT, st.booleans()))),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(_TEXT, inner),
    ),
    max_leaves=30,
)


@settings(database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_JSON)
def test_render_json_writes_the_bytes_of_json_dumps(value):
    assert cli.render_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 3), 0.5, [1, 2.0], {"a": [set()]}, {1: 2}])
def test_render_json_refuses_what_a_payload_never_holds(value):
    # floats are refused rather than matched: no payload carries one
    with pytest.raises(TypeError):
        cli.render_json(value)


def test_module_entry_point_smoke():
    res = _run("--help")
    assert res.returncode == 0
    for sub in ("analyze", "tower", "orbit", "moduli", "examples"):
        assert sub in res.stdout
