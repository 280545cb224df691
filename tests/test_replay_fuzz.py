"""Replay of mutated run records ends in a verdict or a malformed-record exit.

Each example takes a golden or frozen record, edits it one to three times (drops a
key or list entry, swaps in a value of another JSON type, truncates or
extends a list, inserts a 50-digit decimal) and pipes it through
`test --replay -`.  Whatever the edit, replay must exit 0 (valid),
1 (INVALID) or 3 (malformed) and no exception may escape.  The order
records are also forged field by field: their outcome, their factors, a
composite factor, another x(Q) = -iterations and the retired /4 shape.
"""

import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ecriesel import cli, primality  # noqa: E402
from ecriesel.numtheory import FormCandidate  # noqa: E402

from test_golden import record_lines  # noqa: E402

RECORDS = record_lines()

junk = st.one_of(
    st.sampled_from([True, None, -5, 1.5, "", "007"]),
    st.builds(list),  # a new empty container each time: edits may extend it
    st.builds(dict),
    st.integers(10**49, 10**50 - 1).map(str),
)


def locations(value, path=()):
    """The path of every value inside a JSON value, the value's own () first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, inner in items:
        yield from locations(inner, path + (key,))


@st.composite
def mutated(draw):
    record = json.loads(draw(st.sampled_from(RECORDS)))
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(list(locations(record))[1:]))
        target = record
        for parent in parents:
            target = target[parent]
        value = target[key]
        edits = ["replace", "drop"]
        if isinstance(value, list):
            edits += ["truncate", "extend"]
        edit = draw(st.sampled_from(edits))
        if edit == "replace":
            target[key] = draw(junk)
        elif edit == "drop":
            del target[key]
        elif edit == "truncate":
            del value[draw(st.integers(0, len(value))):]
        else:
            value.extend(draw(st.lists(junk, min_size=1, max_size=3)))
    return json.dumps(record)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=mutated())
def test_mutated_record_exits_cleanly(text):
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text + "\n")
    try:
        code = cli.main(["test", "--replay", "-"], out=out, err=err)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 3), (code, text)
    if code == 3:
        assert out.getvalue() == "" and err.getvalue().startswith("replay: malformed")
    else:
        assert out.getvalue().startswith("replay: ")


def replay(record):
    """(exit code, stdout, stderr) of `test --replay -` on one record."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(record) + "\n")
    try:
        code = cli.main(["test", "--replay", "-"], out=out, err=err)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


ORDER_RECORDS = [json.loads(line) for line in RECORDS if '"type":"order"' in line]


@pytest.mark.parametrize("record", ORDER_RECORDS,
                         ids=lambda r: "{k}-{n}".format(**r["candidate"]))
def test_forged_order_record(record):
    # the order shape: outcome, factors and x(Q) = -iterations
    cand = record["candidate"]
    c = FormCandidate(k=int(cand["k"]), n=int(cand["n"]))
    factors = record["certificate"]["factors"]
    assert replay(record)[0] == 0
    flipped = {"final-zero": "final-nonzero", "final-nonzero": "final-zero"}
    forged_certificates = [
        {"outcome": flipped[record["certificate"]["outcome"]]},
        {"factors": [cand["n"]]} if len(factors) > 1 else {"factors": ["1", cand["n"]]},
        {"factors": factors + ["1"]},
        {"factors": factors[1:] or [str(c.n + 2)]},
    ]
    for change in forged_certificates:
        forged = json.loads(json.dumps(record))
        forged["certificate"].update(change)
        code, out, err = replay(forged)
        assert (code, err) == (1, "") and "INVALID" in out, change
    # another a is valid only where that attempt gives the same verdict
    for a in range(1, primality.RETRY_CAP + 2):
        if a == record["iterations"]:
            continue
        verdict = (primality._order_verdict(c, a, [int(q) for q in factors])
                   if a <= primality.RETRY_CAP else None)
        same = verdict is not None and verdict.status == record["verdict"] and (
            cli._stringify(verdict.certificate) == record["certificate"])
        assert replay({**record, "iterations": a})[0] == (0 if same else 1), a


def test_forged_composite_prime_factor():
    # 250127 = 389 * 643 and 33 = 3 * 11 are no primes: a record naming
    # either as n's one factor replays INVALID, whatever its outcome
    for record in ORDER_RECORDS:
        if len(record["certificate"]["factors"]) < 2:
            continue
        for outcome in ("final-zero", "final-nonzero"):
            forged = json.loads(json.dumps(record))
            forged["certificate"].update(factors=[record["candidate"]["n"]], outcome=outcome)
            assert replay(forged)[0] == 1, forged


def test_run_record_4_with_a_base_point():
    # a /4 order record held the scanned point: no longer read (exit 3),
    # with the message /2 and /3 records get, not an unknown field
    for record in ORDER_RECORDS:
        forged = {**record, "schema": "ecriesel.run-record/4"}
        forged["certificate"] = {**record["certificate"], "base_point": ["2", "2"]}
        del forged["certificate"]["outcome"]
        assert replay(forged) == (3, "", "replay: malformed record: schema: "
                                         "ecriesel.run-record/4 is no longer read; "
                                         "decide the candidate again\n")
