"""Replay of mutated run records ends in a verdict or a malformed-record exit.

Each example takes a golden or frozen record, edits it one to three times (drops a
key or list entry, swaps in a value of another JSON type, truncates or
extends a list, inserts a 50-digit decimal) and pipes it through
`test --replay -`.  Whatever the edit, replay must exit 0 (valid),
1 (INVALID) or 3 (malformed) and no exception may escape.
"""

import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ecriesel import cli  # noqa: E402

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
