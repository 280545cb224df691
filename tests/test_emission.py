"""JSON record lines against their reference.

The CLI writes each record line field by field (cli._record_line), and a
presieved search candidate's line from k, n and its divisor alone.  Every
line must equal json.dumps of the record build_record gives, plus the
mersenne comparison fields, with sorted keys and compact separators.  The
reference here decides every candidate again and builds that dict; it
never calls the writer.
"""

import io
import json
import sys

import pytest

from ecriesel import cli
from ecriesel.numtheory import FormCandidate, lucas_lehmer, presieve
from ecriesel.primality import COMPOSITE, PRIME, Verdict, auto_test, replay_verdict
from ecriesel.primality import test_mersenne as decide_mersenne

from test_golden import GOLDEN_CALLS


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def decided(args):
    """(candidate, verdict, extra fields) for each record a command emits."""
    if args.command == "test":
        factors = tuple(args.q) if args.q else None
        c = FormCandidate(k=args.k, n=args.n, n_factors=factors)
        yield c, auto_test(c), {}
    elif args.command == "mersenne":
        for k in range(args.k_min, args.k_max + 1):
            verdict, extras = decide_mersenne(k), {}
            if args.compare_lucas_lehmer:
                classical = PRIME if lucas_lehmer(k) else COMPOSITE
                extras = {"lucas_lehmer": classical, "match": classical == verdict.status}
            yield FormCandidate(k=k, n=1), verdict, extras
    else:
        ns = range(args.n_min | 1, args.n_max + 1, 2)
        sieved = presieve(args.k, ns)
        for n in ns:
            c = FormCandidate(k=args.k, n=n)
            if n in sieved:
                cert = {"type": "factor", "divisor": sieved[n]}
                yield c, Verdict(COMPOSITE, "sieve", cert), {}
            else:
                yield c, auto_test(c), {}


def check_lines(*argv):
    """Run one command; every line it prints must equal the reference's."""
    out = io.StringIO()
    code = cli.main(list(argv), out=out, err=io.StringIO())
    args = cli._build_parser().parse_args(list(argv))
    lines = out.getvalue().splitlines(keepends=True)
    records = lines[:-1] if args.command == "search" else lines
    expected, counts = [], dict.fromkeys(cli.EXIT_BY_VERDICT, 0)
    for (c, verdict, extras), line in zip(decided(args), records, strict=True):
        # the one field that varies from run to run is taken from the line
        elapsed = json.loads(line).get("elapsed_ms")
        assert (elapsed is not None) == getattr(args, "timings", False)
        expected.append(dump({**cli.build_record(c, verdict, elapsed), **extras}))
        counts[verdict.status] += 1
    if args.command == "search":
        expected.append(dump({"summary": counts}))
    assert lines == expected
    return code, lines


def test_golden_calls():
    for argv, code in GOLDEN_CALLS:
        assert check_lines(*argv)[0] == code, argv


def test_timings_and_comparison_fields(monkeypatch):
    start, end = 2.0, 2.0 + 1 / 3
    ticks = iter((start, end))
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
    _, (line,) = check_lines("test", "5", "1", "--json", "--timings")
    monkeypatch.undo()
    assert json.loads(line)["elapsed_ms"] == (end - start) * 1000.0
    _, lines = check_lines("mersenne", "3", "64", "--compare-lucas-lehmer", "--json")
    assert len(lines) == 62 and all('"match":true' in line for line in lines)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_search_one_worker_and_pool(workers):
    for k, n_min, n_max in ((31, 40001, 40199), (2, 1, 301), (7, 1, 99)):
        argv = ("search", "--k", str(k), "--n-min", str(n_min), "--n-max", str(n_max))
        _, lines = check_lines(*argv, "--workers", workers, "--json")
        assert any('"algorithm":"sieve"' in line for line in lines)


def test_sieve_line_past_the_digit_limit(tmp_path):
    # 3 divides p = 2^14400 - 1 (4335 digits), so the presieve settles it;
    # the line holds k and n, and replay's line prints p
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, (line, summary) = check_lines("search", "--k", "14400", "--n-min", "1",
                                        "--n-max", "1", "--json")
    assert code == 0 and json.loads(summary)["summary"][COMPOSITE] == 1
    record = json.loads(line)
    assert record["algorithm"] == "sieve" and record["certificate"]["divisor"] == "3"
    assert record["candidate"] == {"k": "14400", "n": "1"}
    assert replay_verdict(*cli.record_to_inputs(record))
    path = tmp_path / "record.json"
    path.write_text(line)
    out = io.StringIO()
    assert cli.main(["test", "--replay", str(path)], out=out, err=io.StringIO()) == 0
    p_text = out.getvalue().removeprefix("replay: valid (composite via sieve for p=")
    assert cli._parse_int(p_text.removesuffix(")\n")) == (1 << 14400) - 1
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test extra; the fixed cases above still run
    pass
else:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(k=st.integers(2, 80),
           n_min=st.one_of(st.integers(1, 40), st.integers(1, 2**30)),
           width=st.integers(0, 80))
    def test_search_lines_differential(k, n_min, width):
        check_lines("search", "--k", str(k), "--n-min", str(n_min),
                    "--n-max", str(n_min + width), "--json")
