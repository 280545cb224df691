"""Golden run records: the CLI's JSON output, frozen byte for byte.

tests/data/golden_records.jsonl is the concatenated stdout of GOLDEN_CALLS,
in order.  The calls reach every certificate type and every sequence
outcome the CLI can emit, on every route that emits it.  Regenerate the
file only for an intended change of record bytes:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from pathlib import Path

from ecriesel import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_records.jsonl"

# (argv, exit code).  Comments name what each call adds to the set.
GOLDEN_CALLS = [
    # mersenne: final-zero, final-nonzero, gcd-hit
    (("mersenne", "3", "64", "--json"), 0),
    # sieve factors plus small-n final-zero, then the summary line
    (("search", "--k", "12", "--n-min", "1", "--n-max", "25", "--json"), 0),
    (("test", "2", "3", "--json"), 0),  # oracle, prime
    (("test", "2", "7", "--json"), 1),  # oracle, composite
    (("test", "2", "10395", "--json"), 3),  # gate-failure at dispatch
    (("test", "2", "17", "--json"), 0),  # order, one factor, prime
    (("test", "2", "257", "--json"), 1),  # order, one factor, composite
    (("test", "2", "250127", "--q1", "389", "--q2", "643", "--json"), 0),  # order, two factors
    (("test", "2", "37", "--json"), 1),  # large-n factor at parameter-scan
    (("test", "2", "19", "--json"), 1),  # large-n factor at scalar-multiplication
    (("test", "4", "167", "--retries", "1", "--json"), 2),  # retries-exhausted
    (("test", "5", "3", "--json"), 1),  # small-n factor at parameter-scan
    (("test", "6", "5", "--json"), 1),  # small-n factor at scalar-multiplication
    (("test", "7", "3", "--json"), 0),  # small-n final-zero
    (("test", "7", "37", "--json"), 1),  # small-n final-nonzero
    (("test", "7", "7", "--json"), 1),  # small-n gcd-hit
    (("test", "7", "15", "--seed", "14", "--json"), 1),  # small-n early-infinity, step 1
    (("test", "9", "15", "--seed", "35", "--json"), 1),  # small-n early-infinity, step 2
]


def run_calls():
    """Run GOLDEN_CALLS through cli.main; returns (exit codes, stdout)."""
    codes, out = [], io.StringIO()
    for argv, _ in GOLDEN_CALLS:
        codes.append(cli.main(list(argv), out=out, err=io.StringIO()))
    return codes, out.getvalue()


def test_records_are_byte_identical():
    codes, text = run_calls()
    assert codes == [code for _, code in GOLDEN_CALLS]
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_golden_set_covers_every_reachable_pair():
    pairs = set()
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "summary" not in record:
            cert = record["certificate"]
            pairs.add((record["algorithm"], cert["type"],
                       cert.get("outcome") or cert.get("stage") or cert.get("gate")))
    sequence = {("mersenne", "sequence", o) for o in ("final-zero", "final-nonzero", "gcd-hit")}
    sequence |= {("small-n", "sequence", o)
                 for o in ("final-zero", "final-nonzero", "gcd-hit", "early-infinity")}
    factors = {(a, "factor", s) for a in ("small-n", "large-n")
               for s in ("parameter-scan", "scalar-multiplication")}
    assert pairs == sequence | factors | {
        ("sieve", "factor", "sieve"),
        ("trial-division", "oracle", None),
        ("auto", "gate-failure", "dispatch"),
        ("large-n", "order", None),
        ("large-n", "retries-exhausted", None),
    }


def test_every_record_replays_valid(monkeypatch):
    replayed = 0
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if "summary" in json.loads(line):
            continue
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        out = io.StringIO()
        assert cli.main(["test", "--replay", "-"], out=out, err=io.StringIO()) == 0, line
        assert out.getvalue().startswith("replay: valid"), line
        replayed += 1
    assert replayed == 62 + 13 + len(GOLDEN_CALLS) - 2


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(run_calls()[1], encoding="utf-8")
