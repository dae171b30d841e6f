"""The benchmark's layer tracer still finds every function it wraps.

``perfbench/layers.py`` wraps functions of ``padicdyn`` by module and
attribute name, so renaming or deleting one of them breaks
``perfbench/run.py --trace 1`` with an AttributeError although no other
test notices, and so does a change to an argument or a result whose
attributes the report reads.  These tests install the tracer as the
benchmark does, run tower, orbit, analyze and moduli queries and read the
report.
"""

import contextlib
import io
from pathlib import Path

import padicdyn.cli as cli
import padicdyn.qpolys as qpolys

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_the_integer_kernel(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import Tracer

    gcd, discriminant = qpolys.QPoly.__dict__["gcd"], qpolys.discriminant
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            # a rational map: a polynomial map's fiber discriminants come from its
            # critical orbit and never reach qpolys.discriminant
            code = cli.main(["orbit", "(z^2+1)/(z+2)", "-p", "5", "-x", "2", "-N", "3", "-n", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert qpolys.QPoly.__dict__["gcd"] is gcd and qpolys.discriminant is discriminant
    report = tracer.report({None: 1.0})
    assert report["qpolys.QPoly.gcd.calls"] > 0
    assert report["qpolys.discriminant.calls"] > 0
    assert report["qpolys.discriminant.max_degree"] >= 2
    assert report["qpolys.discriminant.max_bits"] >= 1


def test_tracer_reads_every_shape_it_measures(monkeypatch):
    # the report reads args[0].degree of fq_factor, result.q of fq_extension,
    # result.p and result.m of preimage_tree, result.points of
    # postcritical_set and result.tried of moduli_search
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["tower", "z^2+1", "-p", "3", "-x", "0", "-n", "3"]),  # a tree in F_{3^8}
                cli.main(["analyze", "z^3+z+1", "-p", "7"]),
                cli.main(["moduli", "5*z^2+z", "-p", "5"]),
            ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    report = tracer.report({None: 1.0})
    assert report["towers.preimage_tree.max_q"] == 3**8
    for key in (
        "finitefield.fq_factor.max_degree",
        "finitefield.fq_extension.max_q",
        "reduction.pc_points",
        "orbits.moduli_search.conjugates_tried",
    ):
        assert report[key] > 0, key
