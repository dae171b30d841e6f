"""The result records: immutable values, and a start-up without dataclasses."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padicdyn.golden
import padicdyn.maps
import padicdyn.orbits
import padicdyn.qpolys
import padicdyn.reduction
import padicdyn.towers
from padicdyn.golden import run_battery
from padicdyn.maps import Mobius, ProjPointQ, RationalMapModel, parse_map
from padicdyn.orbits import forward_orbit, moduli_search, orbital_report
from padicdyn.reduction import ClosedPoint, MapAtPrime, condition2_check
from padicdyn.towers import fiber_polynomial, fiber_report, preimage_tree

SRC = Path(__file__).resolve().parent.parent / "src"


def _session(text="z^2-1", p=5):
    return MapAtPrime(parse_map(text, p), p)


# record class name -> a fresh computation of one record of that class
RECORDS = {
    "ProjPointQ": lambda: ProjPointQ(-4, 6),
    "Mobius": lambda: Mobius(Fraction(1, 2), 3, 0, 1),
    "RationalMapModel": lambda: RationalMapModel((Fraction(1, 2), 0, 1), (0, 3, 0)),
    "GoldenCheck": lambda: run_battery(3)[0],
    "ReducedMap": lambda: _session().rmap,
    "ClosedPoint": lambda: ClosedPoint(5, (2, 0, 1)),
    "QPoly": lambda: fiber_polynomial(_session(), 2, ProjPointQ(2, 1)),
    "PostcriticalSet": lambda: _session().pc,
    "SGRReport": lambda: _session().sgr,
    "Condition2Report": lambda: condition2_check(_session()),
    "FiberReport": lambda: fiber_report(_session(), 2, ProjPointQ(2, 1)),
    "PreimageTree": lambda: preimage_tree(_session("z^2+1"), 2, 3),
    "OrbitProfile": lambda: forward_orbit(_session(), ProjPointQ(2, 1), 3),
    "OrbitalReport": lambda: orbital_report(_session(), ProjPointQ(2, 1), 2, 2),
    "ModuliReport": lambda: moduli_search(parse_map("5*z^2+z", 5), 5),
}


def test_import_loads_neither_dataclasses_nor_inspect():
    code = "import sys, padicdyn.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["[]"]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values(name):
    record, again = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name and record is not again
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == again
    assert hash(record) == hash(again)


@pytest.mark.parametrize("name", ["Mobius", "ProjPointQ", "RationalMapModel"])
def test_value_records_survive_copy_and_pickle(name):
    # a model holds (d, F, G) but is built from (F, G): copies must rebuild it so
    record = RECORDS[name]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


def test_every_record_class_is_listed():
    modules = (
        padicdyn.golden, padicdyn.maps, padicdyn.orbits, padicdyn.qpolys, padicdyn.reduction, padicdyn.towers,
    )
    found = {
        name
        for mod in modules
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == mod.__name__
    }
    bases = {"_ClosedPointFields", "_MobiusFields", "_ProjPointQFields", "_QPolyFields", "_RationalMapModelFields"}
    assert found == set(RECORDS) | bases
