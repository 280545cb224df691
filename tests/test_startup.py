"""What an ecriesel process imports before it decides anything, and the
immutable record types that keep that import light.

A command loads neither the process pool (only `search --workers N>1`
imports it, when it starts one) nor `dataclasses` with the `inspect`
machinery behind it: the record types are named tuples.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecriesel.ecring import ChainFailure, Curve, Point
from ecriesel.numtheory import FormCandidate, InverseOutcome
from ecriesel.oracle import GroupStructure
from ecriesel.primality import Verdict
from ecriesel.sequence import FINAL_ZERO, SequenceOutcome, STrace

SRC = str(Path(__file__).resolve().parents[1] / "src")

HEAVY = {"concurrent.futures", "multiprocessing", "dataclasses", "inspect"}

SMALL_PRIME_RECORD = (
    '{"algorithm":"small-n","candidate":{"k":"7","n":"3","p":"383"},'
    '"certificate":{"outcome":"final-zero","type":"sequence"},'
    '"iterations":1,"schema":"ecriesel.run-record/5","tool_version":"0.1.0","verdict":"prime"}\n'
)


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def modules_after(code):
    """sys.modules once `code` has run in a new interpreter."""
    done = run_python("-c", code + "\nimport sys; print(*sys.modules)")
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def imported_by(*args):
    """(exit code, stdout, names of the modules `python -X importtime *args` imported)."""
    done = run_python("-X", "importtime", *args)
    names = {line.rpartition("|")[2].strip()
             for line in done.stderr.splitlines() if line.startswith("import time:")}
    return done.returncode, done.stdout, names


def test_importing_the_cli_loads_no_pool_or_dataclasses():
    extra = modules_after("import ecriesel.cli") - modules_after("pass")
    assert "ecriesel.cli" in extra
    assert not HEAVY & extra, sorted(HEAVY & extra)


def test_one_test_command_loads_no_pool_or_dataclasses():
    code, out, names = imported_by("-m", "ecriesel", "test", "7", "3", "--json")
    assert (code, out) == (0, SMALL_PRIME_RECORD)
    extra = names - imported_by("-c", "pass")[2]
    assert "ecriesel.cli" in extra
    assert not HEAVY & extra, sorted(HEAVY & extra)


RECORDS = [
    Curve(7, 3),
    Point(1, 2),
    ChainFailure(3, 5),
    FormCandidate(3, 5),
    InverseOutcome(inverse=3),
    SequenceOutcome(FINAL_ZERO),
    STrace(7, 3, True, (1,), (2,)),
    Verdict("prime", "small-n", {}),
    GroupStructure("cyclic", (8,)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[-1]))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("make, message", [
    (lambda: Curve(8, 1), "curve modulus must be odd and >= 3"),
    (lambda: Curve(7, 14), "m must be nonzero mod the modulus"),
    (lambda: FormCandidate(1, 3), "k must be at least 2"),
    (lambda: FormCandidate(3, 4), "n must be a positive odd integer"),
    (lambda: FormCandidate(3, 15, (3, 7)), "n_factors does not multiply out to n"),
    (lambda: FormCandidate(3, 1, (1,)), "n_factors entries must exceed 1"),
])
def test_validation_errors(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
