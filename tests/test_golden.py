"""Golden run records: the CLI's JSON output, frozen byte for byte.

tests/data/golden_records.jsonl is the concatenated stdout of GOLDEN_CALLS,
in order, and tests/data/search_k31_40001_40999.jsonl the stdout of
SEARCH_CALL.  Regenerate both files only for an intended change of record
bytes:

    PYTHONPATH=src python tests/test_golden.py

tests/data/frozen_records.jsonl holds a record of an outcome that no call
is known to reach: a large-n retries-exhausted, written with the retry
cap at 1.  It is replayed and fuzzed, never regenerated; each schema move
has only changed its tag.  Together the two files reach every certificate
type and every sequence or order outcome the CLI can emit, on every route
that emits it.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from ecriesel import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_records.jsonl"
FROZEN = GOLDEN.with_name("frozen_records.jsonl")
SEARCH_RANGE = GOLDEN.with_name("search_k31_40001_40999.jsonl")

# (argv, exit code).  Comments name what each call adds to the set.
GOLDEN_CALLS = [
    # M_3 by trial division (the small-n gate fails at p = 7), then small-n:
    # final-zero, final-nonzero, gcd-hit, and the factor 3 of M_k for even k
    (("mersenne", "3", "64", "--json"), 0),
    # sieve factors plus small-n final-zero, then the summary line
    (("search", "--k", "12", "--n-min", "1", "--n-max", "25", "--json"), 0),
    (("test", "2", "3", "--json"), 0),  # oracle, prime
    (("test", "2", "7", "--json"), 1),  # oracle, composite
    # no route: Miller-Rabin, prime; p = 4 * 3^27 - 1, composite (witness 2);
    # above psi_13, gate-failure at dispatch
    (("test", "2", "10395", "--json"), 0),
    (("test", "2", "7625597484987", "--json"), 1),
    (("test", "2", "19383245667680019896796723", "--json"), 3),
    (("test", "2", "17", "--json"), 0),  # order, one factor, final-zero
    (("test", "2", "257", "--json"), 1),  # order, one factor, final-nonzero
    (("test", "2", "250127", "--q1", "389", "--q2", "643", "--json"), 0),  # order, two factors
    # p = 131 is prime: x(Q) = -1 .. -5 decline, x(Q) = -6 decides
    (("test", "2", "33", "--q", "3", "--q", "11", "--json"), 0),
    # p = 147 = 3 * 7^2: two attempts decline, the third meets 21
    (("test", "2", "37", "--json"), 1),
    (("test", "2", "19", "--json"), 1),  # large-n factor at scalar-multiplication
    (("test", "3", "29", "--json"), 1),  # large-n factor at parameter-scan: (3/231) = 0
    (("test", "5", "3", "--json"), 1),  # small-n factor at parameter-scan
    (("test", "6", "5", "--json"), 1),  # small-n final-nonzero
    (("test", "7", "3", "--json"), 0),  # small-n final-zero
    (("test", "7", "37", "--json"), 1),  # small-n final-nonzero
    (("test", "7", "7", "--json"), 1),  # small-n final-nonzero
    # small-n early-infinity: p = 13^2 * 409 * 69119, and n * Q is infinity
    # mod every prime factor.  The only such candidate with 2 <= k <= 100
    # and odd n < 20000.
    (("test", "18", "18225", "--json"), 1),
]

# 500 candidates at k = 31: presieved lines, small-n primes (final-zero)
# and composites (final-nonzero), then the summary line.
SEARCH_CALL = ("search", "--k", "31", "--n-min", "40001", "--n-max", "40999", "--json")

# SHA-256 of the run-record/4 lines of each file other than the large-n
# records, joined by newlines: the lines the x-only large-n route left as
# they were, but for their schema tag.
RECORD_4_DIGESTS = {
    GOLDEN: "4589225ca7d100403ce862b3782e4d607c88cbd346b4301f15d6c9a5ba2c701b",
    SEARCH_RANGE: "0035c08ef09e6ddb7fde76ee046c80fd9bc80901192907acda0a77ccddb0832a",
}


def record_lines():
    """Every golden and frozen run record line, summary lines left out."""
    lines = (GOLDEN.read_text(encoding="utf-8") + FROZEN.read_text(encoding="utf-8")).splitlines()
    return [line for line in lines if "summary" not in json.loads(line)]


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


def search_range_output():
    out = io.StringIO()
    assert cli.main(list(SEARCH_CALL), out=out, err=io.StringIO()) == 0
    return out.getvalue()


def test_search_range_is_byte_identical():
    assert search_range_output() == SEARCH_RANGE.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", sorted(RECORD_4_DIGESTS), ids=lambda p: p.name)
def test_lines_off_large_n_kept_their_bytes(path):
    lines = [line.replace("ecriesel.run-record/5", "ecriesel.run-record/4")
             for line in path.read_text(encoding="utf-8").splitlines()
             if json.loads(line).get("algorithm") != "large-n"]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RECORD_4_DIGESTS[path]


def test_golden_set_covers_every_reachable_pair():
    pairs = set()
    for line in record_lines():
        record = json.loads(line)
        cert = record["certificate"]
        pairs.add((record["algorithm"], cert["type"],
                   cert.get("outcome") or cert.get("stage") or cert.get("gate")))
    sequence = {("small-n", "sequence", o)
                for o in ("final-zero", "final-nonzero", "gcd-hit", "early-infinity")}
    factors = {("small-n", "factor", "parameter-scan")}
    factors |= {("large-n", "factor", s) for s in ("parameter-scan", "scalar-multiplication")}
    assert pairs == sequence | factors | {
        ("sieve", "factor", "sieve"),
        ("trial-division", "oracle", None),
        ("miller-rabin", "oracle", None),
        ("auto", "gate-failure", "dispatch"),
        ("large-n", "order", "final-zero"),
        ("large-n", "order", "final-nonzero"),
        ("large-n", "retries-exhausted", None),
    }


def test_no_certificate_carries_a_derived_field():
    # replay derives m from Jacobi symbols and re-runs the chain for x0 and
    # the final residue, so no record holds the three; neither route scans
    # a point, so no record holds one
    for line in record_lines():
        record = json.loads(line)
        assert record["schema"] == "ecriesel.run-record/5", line
        assert not {"m", "x0", "residue", "base_point"} & record["certificate"].keys(), line


def test_decided_verdicts_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    decided = 0
    for line in record_lines() + SEARCH_RANGE.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("verdict") in ("prime", "composite"):
            p = int(record["candidate"]["p"])
            assert (record["verdict"] == "prime") == sympy.isprime(p), line
            decided += 1
    assert decided == 62 + 13 + len(GOLDEN_CALLS) - 3 + 500


def test_every_record_replays_valid(monkeypatch):
    replayed = 0
    for line in record_lines():
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        out = io.StringIO()
        assert cli.main(["test", "--replay", "-"], out=out, err=io.StringIO()) == 0, line
        assert out.getvalue().startswith("replay: valid"), line
        replayed += 1
    assert replayed == 62 + 13 + len(GOLDEN_CALLS) - 2 + 1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(run_calls()[1], encoding="utf-8")
    SEARCH_RANGE.write_text(search_range_output(), encoding="utf-8")
