"""The benchmark's layer tracer still finds every function it wraps.

``perfbench/layers.py`` wraps functions of ``padicdyn`` by module and
attribute name, so renaming or deleting one of them breaks
``perfbench/run.py --trace 1`` with an AttributeError although no other
test notices.  This test installs the tracer as the benchmark does, runs
one orbit query and reads the report.
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
            code = cli.main(["orbit", "z^2-1", "-p", "5", "-x", "2", "-N", "3", "-n", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert qpolys.QPoly.__dict__["gcd"] is gcd and qpolys.discriminant is discriminant
    report = tracer.report({None: 1.0})
    assert report["qpolys.QPoly.gcd.calls"] > 0
    assert report["qpolys.discriminant.calls"] > 0
    assert report["qpolys.discriminant.max_degree"] >= 2
    assert report["qpolys.discriminant.max_bits"] >= 1
