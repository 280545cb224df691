"""Golden run records: the CLI's JSON output, frozen byte for byte.

tests/data/golden_records.jsonl is the concatenated stdout of GOLDEN_CALLS,
in order, and tests/data/search_k31_40001_40999.jsonl the stdout of
SEARCH_CALL.  Regenerate both files only for an intended change of record
bytes:

    PYTHONPATH=src python tests/test_golden.py

Together the two files reach every certificate shape and every sequence
or order outcome that a known call of the CLI reaches, on every route
that emits it.  No known call gives up after RETRY_CAP attempts: the
evaluator tests reach retries-exhausted with every attempt made to
decline (test_primality).
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from ecriesel import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_records.jsonl"
SEARCH_RANGE = GOLDEN.with_name("search_k31_40001_40999.jsonl")

# (argv, exit code).  Comments name what each call adds to the set.  A
# composite p meets the presieve first, then the base-3 witness; only a
# base-3 strong pseudoprime reaches a curve route's composite outcomes.
# Below psi_13 too, a corner comes before the oracle: the mixed corner
# (a small-n record with factors) takes every p <= 10^4 past the witness.
GOLDEN_CALLS = [
    # M_3 by trial division (the small-n gate fails at p = 7), then small-n
    # final-zero; each composite M_k ends at the presieve or on the witness
    (("mersenne", "3", "64", "--json"), 0),
    # sieve factors, witnesses and small-n final-zero, then the summary line
    (("search", "--k", "12", "--n-min", "1", "--n-max", "25", "--json"), 0),
    (("test", "2", "3", "--json"), 0),  # mixed, s = p + 1 = 4 * 3, prime
    (("test", "2", "7", "--json"), 1),  # presieve: 3 divides p = 27
    # mixed, n = 3^3 * 5 * 7 * 11: prime at the fourth start; p = 4 * 3^27 - 1
    # and, above psi_13, p = 4 * 3^53 - 1 end on the witness
    (("test", "2", "10395", "--json"), 0),
    (("test", "2", "7625597484987", "--json"), 1),
    (("test", "2", "19383245667680019896796723", "--json"), 1),
    # p prime above psi_13, n = 3 * 5 * 24799 * 52107600219578799943: the
    # primes below 2^16 fail the gate, so the probable-prime cofactor joins
    # them, s = p + 1, prime at the third start
    (("test", "2", "19383245667680019896796855", "--json"), 0),
    # p prime above psi_13, n = 609403 * 461886431 with no prime factor
    # below 2^16: gate-failure at dispatch, and with n's factors given, mixed
    (("test", "48", "281474976710693", "--json"), 3),
    (("test", "48", "281474976710693", "--q", "609403", "--q", "461886431", "--json"), 0),
    # base-3 strong pseudoprimes on the mixed corner, final-nonzero:
    # p = 1891 = 31 * 61 and p = 12403 = 79 * 157
    (("test", "2", "473", "--json"), 1),
    (("test", "2", "3101", "--json"), 1),
    (("test", "2", "17", "--json"), 0),  # order, one factor, final-zero
    (("test", "2", "257", "--json"), 1),  # presieve: 13 divides p = 1027
    # base-3 strong pseudoprimes on large-n: p = 16531 = 61 * 271 and
    # p = 97567 = 43 * 2269 end final-nonzero; the walk of D meets 31 in
    # p = 1772611 = 31 * 211 * 271, and in p = 1891 with n's factors
    (("test", "2", "4133", "--json"), 1),
    (("test", "5", "3049", "--json"), 1),
    (("test", "2", "443153", "--json"), 1),
    (("test", "2", "473", "--q", "11", "--q", "43", "--json"), 1),
    (("test", "2", "250127", "--q1", "389", "--q2", "643", "--json"), 0),  # order, two factors
    (("test", "2", "33", "--q", "3", "--q", "11", "--json"), 0),  # p = 131, prime
    # p = 947 is prime: x(Q) = -2 .. -5 decline, x(Q) = -6 decides
    (("test", "2", "237", "--q", "3", "--q", "79", "--json"), 0),
    (("test", "2", "37", "--json"), 1),  # presieve: 3 divides p = 147
    (("test", "2", "19", "--json"), 1),  # presieve: 3 divides p = 75
    (("test", "3", "29", "--json"), 1),  # presieve: 3 divides p = 231
    (("test", "5", "3", "--json"), 1),  # presieve: 5 divides p = 95
    (("test", "6", "5", "--json"), 1),  # presieve: 11 divides p = 319
    (("test", "7", "3", "--json"), 0),  # small-n final-zero
    (("test", "7", "37", "--json"), 1),  # presieve: 5 divides p = 4735
    (("test", "7", "7", "--json"), 1),  # presieve: 5 divides p = 895
    (("test", "7", "61", "--json"), 1),  # witness: p = 7807 = 37 * 211
    # base-3 strong pseudoprimes on small-n, final-nonzero: p = 703 = 19 * 37
    # and p = 2795519 = 683 * 4093
    (("test", "6", "11", "--json"), 1),
    (("test", "11", "1365", "--json"), 1),
    (("test", "6", "13", "--json"), 1),  # presieve: 3 divides p = 831
    (("test", "18", "18225", "--json"), 1),  # presieve: 13 divides p
]

# 500 candidates at k = 31: presieved lines, small-n primes (final-zero)
# and composites (final-nonzero), then the summary line.
SEARCH_CALL = ("search", "--k", "31", "--n-min", "40001", "--n-max", "40999", "--json")

# SHA-256 of the run-record/6 prime lines of each file, joined by newlines,
# mixed records left out: the witness test before the curve routes moved
# composite records only, and the mixed corner moved the oracle's primes
# p = 11 and p = 41579 only, so every other prime record kept its bytes
# but for its schema tag.
RECORD_6_PRIME_DIGESTS = {
    GOLDEN: "b2c26c1dddf8c32989a2311f8dbf508ded5f67970a5116740dd4480bc57f2789",
    SEARCH_RANGE: "4021ffa58a6856a6fc002160a0fd703092bc1ebd38c50fa5a29e511fab9b23f8",
}

# SHA-256 and size of each whole file as run-record/11, /10 and /9 wrote
# it, which as_record_11, as_record_10 and as_record_9 rebuild from
# today's lines: every /12 line is its /11 line less the certificate's
# type and the constant tool_version, every /11 line is its /10 line less
# a factor certificate's stage and the dispatch give-up's gate and reason,
# and every /10 line is its /9 line less p, a large-n order certificate's
# lone factor n, and a give-up's attempts, each with its schema tag
# changed.
RECORD_11_FILES = {
    GOLDEN: ("ff042dada91faea2b77df05697c966d824ec8c442c88fc6a9ce96307a5db0665", 21455),
    SEARCH_RANGE: ("afeac7943aced795639311a3e153e47ea80b0d79d83192aaba8be937ee934487", 99302),
}
RECORD_10_FILES = {
    GOLDEN: ("fc22a544e4a1da1039b4c15b93809dc91a8528cce498491a3f170eb1b804ec48", 22628),
    SEARCH_RANGE: ("b36e7f0dc86f69a9b76c35b36491125a706c273464571546f815ab6e8f94ce0e", 106342),
}
RECORD_9_FILES = {
    GOLDEN: ("067a0efa4165bdce3cd40513b143ebf7023ede34aba5be2c74666e792ae54ea5", 24279),
    SEARCH_RANGE: ("450d772488392d0dcadc52bd695b47111d15bfa288bf7c7eb76d0f1d03fc7e85", 116342),
}

# The stage a run-record/10 factor certificate named on each algorithm the
# files hold one on (they hold no small-n factor record).
_STAGES = {"sieve": "sieve", "large-n": "scalar-multiplication"}


def _dumps(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def certificate_type(record):
    """The type a run-record/11 certificate named, from the record's
    algorithm, verdict and certificate keys."""
    if record["certificate"].keys() == {"divisor"}:
        return "factor"
    give_up = {"not-applicable": "gate-failure", "inconclusive": "retries-exhausted"}
    if record["verdict"] in give_up:
        return give_up[record["verdict"]]
    return {"small-n": "sequence", "large-n": "order"}.get(record["algorithm"], "oracle")


def as_record_11(line):
    """The run-record/11 line of a run-record/12 line (a summary line is
    unchanged): the certificate's type put back, and tool_version 0.1.0."""
    record = json.loads(line)
    if "summary" in record:
        return line
    record["certificate"]["type"] = certificate_type(record)
    record["tool_version"] = "0.1.0"
    record["schema"] = "ecriesel.run-record/11"
    return _dumps(record)


def as_record_10(line):
    """The run-record/10 line of a run-record/12 line (a summary line is
    unchanged): as_record_11's line, then the stage put back on a factor
    certificate, from its algorithm, and the constant gate and reason on
    the dispatch give-up."""
    record = json.loads(as_record_11(line))
    if "summary" in record:
        return line
    cert = record["certificate"]
    if cert["type"] == "factor":
        cert["stage"] = _STAGES[record["algorithm"]]
    if cert["type"] == "gate-failure":
        cert["gate"] = "dispatch"
        cert["reason"] = "no applicable route: gates fail or n needs an unavailable factorization"
    record["schema"] = "ecriesel.run-record/10"
    return _dumps(record)


def as_record_9(line):
    """The run-record/9 line of a run-record/12 line (a summary line is
    unchanged): as_record_10's line, then p put back in the candidate,
    factors [n] on a large-n order certificate without factors, attempts 20
    on a give-up."""
    record = json.loads(as_record_10(line))
    if "summary" in record:
        return line
    candidate, cert = record["candidate"], record["certificate"]
    candidate["p"] = str((int(candidate["n"]) << int(candidate["k"])) - 1)
    if record["algorithm"] == "large-n" and cert["type"] == "order":
        cert.setdefault("factors", [candidate["n"]])
    if cert["type"] == "retries-exhausted":
        cert["attempts"] = "20"
    record["schema"] = "ecriesel.run-record/9"
    return _dumps(record)


def record_lines():
    """Every golden run record line, summary lines left out."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
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


@pytest.mark.parametrize("path", sorted(RECORD_11_FILES), ids=lambda p: p.name)
def test_records_derive_from_run_record_11(path):
    # each line differs from its /11 line only by the certificate's type,
    # which its algorithm, verdict and keys give, the constant tool_version
    # and its tag: no other byte of either file moved
    text = path.read_text(encoding="utf-8")
    assert '"type":' not in text and '"tool_version":' not in text
    old = "".join(as_record_11(line) + "\n" for line in text.splitlines())
    digest, size = RECORD_11_FILES[path]
    assert (hashlib.sha256(old.encode()).hexdigest(), len(old)) == (digest, size)


@pytest.mark.parametrize("path", sorted(RECORD_10_FILES), ids=lambda p: p.name)
def test_records_derive_from_run_record_10(path):
    # each line differs from its /10 line only by the fields replay never
    # read (a factor's stage) or that were constants (the dispatch gate
    # and reason) and by its tag: no other byte of either file moved
    text = path.read_text(encoding="utf-8")
    assert not any(field in text for field in ('"stage":', '"gate":', '"reason":'))
    old = "".join(as_record_10(line) + "\n" for line in text.splitlines())
    digest, size = RECORD_10_FILES[path]
    assert (hashlib.sha256(old.encode()).hexdigest(), len(old)) == (digest, size)


@pytest.mark.parametrize("path", sorted(RECORD_9_FILES), ids=lambda p: p.name)
def test_records_derive_from_run_record_9(path):
    # each line differs from its /9 line only by the fields replay forms
    # from k and n and by its tag: no other byte of either file moved
    text = path.read_text(encoding="utf-8")
    assert '"p":' not in text and '"attempts":' not in text
    old = "".join(as_record_9(line) + "\n" for line in text.splitlines())
    digest, size = RECORD_9_FILES[path]
    assert (hashlib.sha256(old.encode()).hexdigest(), len(old)) == (digest, size)
    if path == GOLDEN:
        assert (text.count('"factors"'), old.count('"factors"')) == (9, 12)


@pytest.mark.parametrize("path", sorted(RECORD_6_PRIME_DIGESTS), ids=lambda p: p.name)
def test_prime_lines_kept_their_bytes(path):
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = as_record_9(line)
        record = json.loads(line)
        if record.get("verdict") == "prime" and "factors" not in (
                record["certificate"] if record["algorithm"] == "small-n" else ()):
            lines.append(line.replace("ecriesel.run-record/9", "ecriesel.run-record/6"))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RECORD_6_PRIME_DIGESTS[path]


def test_golden_set_covers_every_reachable_pair():
    # small-n's divisor (a zero symbol or a gcd of the chain's end Z) and
    # early-infinity need a base-3 strong pseudoprime that meets them, and
    # none is known: the evaluator tests reach them (test_small_n,
    # test_chain_walker), as they reach a give-up (test_primality)
    shapes = set()
    for line in record_lines():
        record = json.loads(line)
        cert = record["certificate"]
        shapes.add((record["algorithm"], record["verdict"], tuple(sorted(cert)),
                    cert.get("outcome")))
    walk = ("outcome",)
    factored = ("factors", "outcome")
    assert shapes == {
        ("sieve", "composite", ("divisor",), None),
        ("large-n", "composite", ("divisor",), None),
        ("trial-division", "prime", ("least_factor",), None),
        ("miller-rabin", "composite", ("witness",), None),
        ("auto", "not-applicable", (), None),
        ("small-n", "prime", walk, "final-zero"),
        ("small-n", "composite", walk, "final-nonzero"),
        ("small-n", "prime", factored, "final-zero"),
        ("small-n", "composite", factored, "final-nonzero"),
        ("large-n", "prime", walk, "final-zero"),
        ("large-n", "prime", factored, "final-zero"),
        ("large-n", "composite", walk, "final-nonzero"),
    }


def test_no_certificate_carries_a_derived_field():
    # both routes walk one curve, replay finds small-n's start by Jacobi
    # symbols and re-runs the chain for the final residue, so no record
    # holds m, x0 or the residue; neither route scans a point, so no record
    # holds one; replay forms p from k and n, takes a large-n record with
    # no factors as n's own, and a give-up's attempts from its iterations;
    # a factor's divisor is checked by one remainder wherever it surfaced,
    # so no record names a stage; the algorithm and verdict name the
    # certificate's kind, so none names a type; and no record carries the
    # constant tool_version
    for line in record_lines():
        record = json.loads(line)
        assert record["schema"] == "ecriesel.run-record/12", line
        assert "tool_version" not in record, line
        assert record["candidate"].keys() == {"k", "n"}, line
        cert = record["certificate"]
        assert not {"m", "x0", "residue", "base_point", "attempts", "stage", "gate",
                    "reason", "type"} & cert.keys(), line
        assert cert.get("factors") != [record["candidate"]["n"]] or (
            record["algorithm"] != "large-n"), line


def test_decided_verdicts_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    decided = 0
    for line in record_lines() + SEARCH_RANGE.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("verdict") in ("prime", "composite"):
            p = (int(record["candidate"]["n"]) << int(record["candidate"]["k"])) - 1
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
    assert replayed == 62 + 13 + len(GOLDEN_CALLS) - 2


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(run_calls()[1], encoding="utf-8")
    SEARCH_RANGE.write_text(search_range_output(), encoding="utf-8")
