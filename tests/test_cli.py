import argparse
import concurrent.futures
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ecriesel import cli, primality
from ecriesel.cli import main

from test_golden import GOLDEN, record_lines

SRC = str(Path(__file__).resolve().parents[1] / "src")

# n = 3^53: p = 4n - 1 lies above psi_13, where the exact oracle stops, and
# n is composite, so no route and no oracle decides it
UNDECIDED_N = str(3**53)
DISPATCH_CERTIFICATE = {"gate": "dispatch", "type": "gate-failure", "reason": (
    "no applicable route: gates fail or n needs an unavailable factorization")}


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestTestCommand:
    def test_mersenne_route(self):
        # M_k is small-n's n = 1 corner
        code, out, _ = run_cli("test", "5", "1", "--json")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["verdict"] == "prime"
        assert rec["algorithm"] == "small-n"
        assert rec["candidate"] == {"k": "5", "n": "1", "p": "31"}

    def test_small_n_route(self):
        code, out, _ = run_cli("test", "7", "3", "--json")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["verdict"] == "prime"
        assert rec["algorithm"] == "small-n"
        assert rec["candidate"]["p"] == "383"

    def test_composite_exit_code(self):
        code, out, _ = run_cli("test", "2", "2503")
        assert code == 1
        assert "composite" in out

    def test_factor_hints(self):
        code, out, _ = run_cli("test", "2", "250127", "--q1", "389", "--q2", "643", "--json")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["algorithm"] == "large-n"

    def test_not_applicable_exit_code(self):
        code, _, _ = run_cli("test", "2", UNDECIDED_N)
        assert code == 3

    def test_usage_errors(self):
        assert run_cli("test", "5")[0] == 3  # missing n
        assert run_cli("test", "1", "3")[0] == 3  # k too small
        assert run_cli("test", "2", "4")[0] == 3  # even n
        assert run_cli("test", "2", "9", "--q1", "3")[0] == 3  # lonely hint
        assert run_cli("no-such-command")[0] == 3

    def test_human_output_mentions_divisor(self):
        code, out, _ = run_cli("test", "8", "7")
        assert code == 1
        assert "divisor=3" in out

    def test_big_integers_are_decimal_strings(self):
        code, out, _ = run_cli("test", "89", "19", "--json")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["candidate"]["p"] == str((19 << 89) - 1)
        cert = rec["certificate"]
        # small-n scans no point, and replay derives m and x0
        assert cert == {"type": "sequence", "outcome": "final-zero"}

    def test_json_records_parse_standalone(self):
        _, out, _ = run_cli("test", "2", "2633", "--json")
        for line in out.splitlines():
            assert json.loads(line)["schema"].endswith("/5")


class TestFactorOption:
    """--q names one prime factor of n and repeats; --q1 and --q2 are the
    same option, so any factorization reaches the large-n route."""

    def test_three_factors_decide_and_replay(self, tmp_path):
        code, out, _ = run_cli("test", "2", "105", "--q", "3", "--q", "5", "--q", "7", "--json")
        rec = json_lines(out)[0]
        assert code == 0 and rec["algorithm"] == "large-n" and rec["verdict"] == "prime"
        assert rec["certificate"]["factors"] == ["3", "5", "7"]
        path = tmp_path / "record.json"
        path.write_text(out)
        assert run_cli("test", "--replay", str(path))[:2] == (
            0, "replay: valid (prime via large-n for p=419)\n")

    def test_spellings_mix_and_keep_command_line_order(self):
        golden = [line + "\n" for line in GOLDEN.read_text(encoding="utf-8").splitlines()
                  if '"n":"250127"' in line]
        mixed = run_cli("test", "2", "250127", "--q1", "389", "--q", "643", "--json")
        assert mixed == (0, golden[0], "")
        code, out, _ = run_cli("test", "2", "250127", "--q2", "643", "--q1", "389", "--json")
        assert code == 0 and json_lines(out)[0]["certificate"]["factors"] == ["643", "389"]

    def test_composite_factor_is_not_applicable(self):
        # 27 is not prime and p = 4 * 3^53 - 1 is above psi_13: the record is
        # the dispatch gate failure of the same n with no factors given
        code, out, err = run_cli("test", "2", UNDECIDED_N, "--q", "27", "--q", str(3**50),
                                 "--json")
        assert (code, err) == (3, "")
        assert out == (
            f'{{"algorithm":"auto","candidate":{{"k":"2","n":"{UNDECIDED_N}",'
            f'"p":"{4 * 3**53 - 1}"}},'
            '"certificate":{"gate":"dispatch","reason":"no applicable route: gates fail or n '
            'needs an unavailable factorization","type":"gate-failure"},"iterations":1,'
            '"schema":"ecriesel.run-record/5","tool_version":"0.1.0","verdict":"not-applicable"}\n')

    @pytest.mark.parametrize("argv, line", [
        (("5", "3"), "k=5 n=3 p=95: composite [small-n] divisor=5"),  # factor
        (("9", "1"), "k=9 n=1 p=511: composite [small-n] divisor=7"),  # gcd-hit
        (("2", "7"), "k=2 n=7 p=27: composite [trial-division] divisor=3"),  # oracle
        (("2", "3"), "k=2 n=3 p=11: prime [trial-division]"),
        (("2", "10395"), "k=2 n=10395 p=41579: prime [miller-rabin]"),
        (("2", "7625597484987"), "k=2 n=7625597484987 p=30502389939947: composite [miller-rabin]"),
        (("2", UNDECIDED_N), f"k=2 n={UNDECIDED_N} p={4 * 3**53 - 1}: not-applicable [auto]"),
    ])
    def test_human_line(self, monkeypatch, argv, line):
        ticks = iter((2.0, 2.0 + 1 / 3))
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
        assert run_cli("test", *argv)[1] == line + " (333.33 ms)\n"


class TestReplayCommand:
    def test_roundtrip(self, tmp_path):
        _, out, _ = run_cli("test", "7", "3", "--json")
        path = tmp_path / "record.json"
        path.write_text(out)
        code, out2, _ = run_cli("test", "--replay", str(path))
        assert code == 0
        assert "valid" in out2

    def test_tampered_record_rejected(self, tmp_path):
        _, out, _ = run_cli("test", "7", "3", "--json")
        rec = json.loads(out)
        rec["verdict"] = "composite"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(rec))
        code, out2, _ = run_cli("test", "--replay", str(path))
        assert code == 1
        assert "INVALID" in out2

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert run_cli("test", "--replay", str(path))[0] == 3

    def test_every_emitted_certificate_replays(self, tmp_path):
        cases = [
            ("5", "1"),
            ("7", "3"),
            ("8", "7"),
            ("2", "2633"),
            ("2", "2503"),
            ("2", "45"),
            ("2", "33", "--q1", "3", "--q2", "11"),
        ]
        for case in cases:
            _, out, _ = run_cli("test", *case, "--json")
            path = tmp_path / f"r{case[0]}_{case[1]}.json"
            path.write_text(out)
            code, _, _ = run_cli("test", "--replay", str(path))
            assert code == 0, case

    @pytest.mark.parametrize("extra", [
        ("99",), ("--q", "3"), ("--q1", "3"), ("--json",), ("--timings",),
    ], ids=" ".join)
    def test_replay_rejects_what_it_would_ignore(self, monkeypatch, extra):
        # the candidate comes from the record: a k, n or factor given beside
        # it, or an output option, is refused rather than silently dropped
        record = run_cli("test", "7", "3", "--json")[1]
        monkeypatch.setattr(sys, "stdin", io.StringIO(record))
        code, out, err = run_cli("test", "--replay", "-", *extra)
        assert (code, out) == (3, "")
        assert err == ("test: --replay reads the candidate from its record and takes "
                       "no k, n, --q, --json or --timings\n")
        assert sys.stdin.read() == record  # the record was not even read


class TestStrictReplayInput:
    """Replay reads each certificate field by name and takes one record."""

    @staticmethod
    def replay(tmp_path, text):
        path = tmp_path / "record.json"
        path.write_text(text)
        return run_cli("test", "--replay", str(path))

    @staticmethod
    def record(*argv):
        return json.loads(run_cli("test", *argv, "--json")[1])

    def test_forged_vanished_multiple(self, tmp_path):
        # p = 383 is prime; the record claims 3 * Q = infinity, in the
        # shape the small-n route wrote before it ran the ladder, less the
        # base point that no certificate holds now
        rec = self.record("7", "3")
        rec["verdict"] = "composite"
        rec["certificate"] = {"type": "vanished-multiple"}
        code, out, _ = self.replay(tmp_path, json.dumps(rec))
        assert code == 1 and "INVALID" in out
        for multiplier in ("0", "384"):
            rec["certificate"]["multiplier"] = multiplier
            assert self.replay(tmp_path, json.dumps(rec))[0] == 3

    def test_non_canonical_decimals(self, tmp_path):
        for x in ("\u0665", "05", "+5", " 5", "5.0"):
            rec = self.record("7", "3")
            rec["certificate"]["step"] = x
            code, _, err = self.replay(tmp_path, json.dumps(rec))
            assert code == 3 and "malformed" in err and "certificate.step" in err, x
        rec = self.record("7", "3")
        rec["candidate"]["n"] = "03"
        assert self.replay(tmp_path, json.dumps(rec))[0] == 3

    def test_field_types(self, tmp_path):
        for field, value in (("factors", [5, 1]), ("factors", "5"),
                             ("outcome", ["final-zero"])):
            rec = self.record("7", "3")
            rec["certificate"][field] = value
            assert self.replay(tmp_path, json.dumps(rec))[0] == 3, field

    def test_unknown_key_and_schema(self, tmp_path):
        rec = self.record("7", "3")
        rec["certificate"]["s_chain"] = ["0"]
        assert self.replay(tmp_path, json.dumps(rec))[0] == 3
        rec = self.record("7", "3")
        rec["schema"] = "ecriesel.run-record/1"
        assert self.replay(tmp_path, json.dumps(rec))[0] == 3
        rec["certificate"]["junk"] = "1"
        assert self.replay(tmp_path, json.dumps(rec))[0] == 3

    def test_run_record_2_is_no_longer_read(self, tmp_path):
        # the /2 record of the same call, which carried m and x0
        rec = self.record("7", "3")
        rec["schema"] = "ecriesel.run-record/2"
        rec["certificate"].update(base_point=["5", "1"], m="178", x0="39")
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", "replay: malformed record: schema: ecriesel.run-record/2 is no longer read; "
                   "decide the candidate again\n")

    def test_run_record_3_is_no_longer_read(self, tmp_path):
        # the /3 record of the same call, which carried the scanned point,
        # with the same message as /2
        rec = self.record("7", "3")
        rec["schema"] = "ecriesel.run-record/3"
        rec["certificate"]["base_point"] = ["5", "1"]
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", "replay: malformed record: schema: ecriesel.run-record/3 is no longer read; "
                   "decide the candidate again\n")

    def test_one_record_per_input(self, tmp_path):
        good = json.dumps(self.record("7", "3"))
        bad = self.record("7", "3")
        bad["verdict"] = "composite"
        assert self.replay(tmp_path, good + "\n" + json.dumps(bad) + "\n")[0] == 3
        assert self.replay(tmp_path, good + "\n" + good)[0] == 3
        assert self.replay(tmp_path, "\n" + good + "\n\n")[0] == 0
        assert self.replay(tmp_path, "")[0] == 3

    @pytest.mark.parametrize("k", [10**20, 18], ids=["huge", "bit-length-plus-one"])
    def test_k_above_the_bit_length_of_p(self, tmp_path, k):
        # p = 86015 has 17 bits; 2^k * 21 - 1 is never formed for such a k
        rec = self.record("12", "21")
        assert rec["candidate"]["p"] == "86015"
        rec["candidate"]["k"] = str(k)
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert code == 3 and out == "" and "malformed" in err and "Traceback" not in err

    def test_deeply_nested_json(self, tmp_path):
        code, out, err = self.replay(tmp_path, "[" * 200000 + "]" * 200000)
        assert code == 3 and out == "" and "malformed" in err

    @pytest.mark.parametrize("iterations", [True, 1.9, "0007", -5, 0, None],
                             ids=["bool", "float", "string", "negative", "zero", "missing"])
    def test_iterations_must_be_a_positive_json_int(self, tmp_path, iterations):
        rec = self.record("7", "3")
        assert rec["iterations"] == 1
        if iterations is None:
            del rec["iterations"]
        else:
            rec["iterations"] = iterations
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert code == 3 and out == "" and "malformed" in err

    @staticmethod
    def golden(algorithm, kind):
        for line in GOLDEN.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec.get("algorithm") == algorithm and rec["certificate"]["type"] == kind:
                return rec
        raise LookupError((algorithm, kind))

    # (algorithm, certificate type) of a golden record, its forgery, exit code
    FORGERIES = {
        "factor-without-stage": (("large-n", "factor"),
                                 lambda r: r["certificate"].pop("stage"), 1),
        "factor-with-witness": (("sieve", "factor"),
                                lambda r: r["certificate"].update(witness="3"), 1),
        # m and x0 are no certificate fields since run-record/3: malformed
        "factor-with-m": (("sieve", "factor"), lambda r: r["certificate"].update(m="3"), 3),
        "sieve-at-parameter-scan": (("sieve", "factor"),
                                    lambda r: r["certificate"].update(stage="parameter-scan"), 1),
        "factor-long-algorithm": (("small-n", "factor"), lambda r: r.update(algorithm="9" * 50), 1),
        "factor-null-algorithm": (("sieve", "factor"), lambda r: r.update(algorithm=None), 3),
        "tool-version-list": (("sieve", "factor"), lambda r: r.update(tool_version=[1]), 3),
        "order-with-step": (("large-n", "order"), lambda r: r["certificate"].update(step="5"), 1),
        "order-with-x0": (("large-n", "order"), lambda r: r["certificate"].update(x0="5"), 3),
        "order-with-outcome": (("large-n", "order"),
                               lambda r: r["certificate"].update(outcome="final-nonzero"), 1),
        "oracle-as-small-n": (("trial-division", "oracle"),
                              lambda r: r.update(algorithm="small-n"), 1),
        "oracle-null-algorithm": (("trial-division", "oracle"),
                                  lambda r: r.update(algorithm=None), 3),
        # p = 11 is prime, its least factor 11; p = 41579 is prime, no witness
        "oracle-least-factor": (("trial-division", "oracle"),
                                lambda r: r["certificate"].update(least_factor="3"), 1),
        "oracle-as-miller-rabin": (("trial-division", "oracle"),
                                   lambda r: r.update(algorithm="miller-rabin"), 1),
        "prime-oracle-with-witness": (("miller-rabin", "oracle"),
                                      lambda r: r["certificate"].update(witness="2"), 1),
        "verdict-int": (("small-n", "factor"), lambda r: r.update(verdict=5), 3),
        "verdict-null": (("sieve", "factor"), lambda r: r.update(verdict=None), 3),
        "verdict-list": (("large-n", "order"), lambda r: r.update(verdict=["prime"]), 3),
        "verdict-object": (("small-n", "factor"), lambda r: r.update(verdict={"a": 1}), 3),
    }

    @pytest.mark.parametrize("name", FORGERIES)
    def test_forged_record(self, tmp_path, name):
        source, forge, expected = self.FORGERIES[name]
        rec = self.golden(*source)
        assert self.replay(tmp_path, json.dumps(rec))[0] == 0
        forge(rec)
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert code == expected and "Traceback" not in err
        assert ("INVALID" in out) if expected == 1 else (out == "" and "malformed" in err)

    @pytest.mark.parametrize("source, field", [
        (("large-n", "order"), "m"),
        (("small-n", "sequence"), "m"),
        (("small-n", "sequence"), "x0"),
        (("small-n", "sequence"), "residue"),
    ])
    def test_derived_field_is_unknown(self, tmp_path, source, field):
        # run-record/2 carried these; replay derives them now
        rec = self.golden(*source)
        rec["certificate"][field] = "3"
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", f"replay: malformed record: unknown certificate field '{field}'\n")

    @pytest.mark.parametrize("field", ["verdict", "algorithm", "tool_version",
                                       "certificate.type", "certificate.witness",
                                       "candidate.k"])
    def test_malformed_field_is_named(self, tmp_path, field):
        rec = self.record("2", "7625597484987")
        assert rec["certificate"] == {"type": "oracle", "witness": "2"}
        *outer, key = field.split(".")
        (rec[outer[0]] if outer else rec)[key] = 5
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert (code, out) == (3, "")
        assert err.startswith(f"replay: malformed record: {field}: ") and err.endswith(": 5\n")

    @pytest.mark.parametrize("forge, message", [
        (lambda c: "7", "candidate: not a JSON object"),
        (lambda c: [c["k"], c["n"], c["p"]], "candidate: not a JSON object"),
        (lambda c: {"k": c["k"], "n": c["n"]}, "candidate.p: missing"),
        (lambda c: {"n": c["n"], "p": c["p"]}, "candidate.k: missing"),
        (lambda c: {**c, "x": "1"}, "unknown candidate field 'x'"),
    ], ids=["string", "list", "no-p", "no-k", "extra-x"])
    def test_malformed_candidate_is_named(self, tmp_path, forge, message):
        rec = self.record("7", "3")
        rec["candidate"] = forge(rec["candidate"])
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", f"replay: malformed record: {message}\n")

    @pytest.mark.parametrize("key", ["tool_version", "candidate", "certificate", "iterations",
                                     "verdict", "algorithm"])
    def test_missing_field_is_named(self, tmp_path, key):
        rec = self.record("7", "3")
        del rec[key]
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", f"replay: malformed record: {key}: missing\n")

    # p = 383 is prime, so no route gives up on it and nothing sends it to
    # the fallback: each undecided record replays INVALID
    @pytest.mark.parametrize("verdict, algorithm, certificate, iterations", [
        ("not-applicable", "mersenne",
         {"type": "gate-failure", "gate": "made-up", "reason": "anything"}, 1),
        ("inconclusive", "sieve", {"type": "gate-failure", "gate": "dispatch",
                                   "reason": "anything"}, 1),
        ("not-applicable", "auto", {"type": "retries-exhausted"}, 1),
        ("inconclusive", "small-n", {"type": "retries-exhausted", "attempts": "999"}, 999),
        ("not-applicable", "auto", DISPATCH_CERTIFICATE, 1),
    ], ids=["mersenne-gate-failure", "sieve-inconclusive", "auto-retries-exhausted",
            "999-attempts", "dispatch-below-psi13"])
    def test_forged_undecided_record(self, tmp_path, verdict, algorithm, certificate,
                                     iterations):
        rec = self.record("7", "3")
        rec.update(verdict=verdict, algorithm=algorithm, certificate=certificate,
                   iterations=iterations)
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert (code, err) == (1, "") and out.startswith("replay: INVALID")

    # Every route but large-n decides on its first attempt; large-n's
    # evaluator can decline one, up to RETRY_CAP of them, so 21 attempts at
    # p = 2671 (test 4 167) are more than it makes.
    @pytest.mark.parametrize("argv, iterations", [
        (("7", "3"), 999), (("7", "3"), 2), (("4", "167"), 21), (None, 5),
    ], ids=["small-n-999", "small-n-2", "large-n-21", "sieve-5"])
    def test_forged_decided_iterations(self, tmp_path, argv, iterations):
        rec = self.golden("sieve", "factor") if argv is None else self.record(*argv)
        assert self.replay(tmp_path, json.dumps(rec))[0] == 0
        rec["iterations"] = iterations
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert (code, err) == (1, "") and out.startswith("replay: INVALID")

    # p = 4 * 3^27 - 1 = 157 * 194282738471, whose least witness base is 2
    @pytest.mark.parametrize("forge", [
        lambda r: r["certificate"].update(witness="3"),
        lambda r: r["certificate"].update(witness="157"),
        lambda r: r["certificate"].pop("witness"),
        lambda r: r.update(verdict="prime"),
        lambda r: r["certificate"].update(least_factor="157"),
        lambda r: (r.update(algorithm="trial-division"), r["certificate"].pop("witness"),
                   r["certificate"].update(least_factor="157")),
    ], ids=["witness-3", "witness-157", "no-witness", "prime", "with-least-factor",
            "as-trial-division"])
    def test_forged_oracle_record(self, tmp_path, forge):
        rec = self.record("2", "7625597484987")
        assert rec["algorithm"] == "miller-rabin"
        assert self.replay(tmp_path, json.dumps(rec))[0] == 0
        forge(rec)
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert code == 1 and "INVALID" in out and err == ""

    @pytest.mark.parametrize("k, n", [(2, UNDECIDED_N), (3999, "3")], ids=["psi13", "4000-bit"])
    @pytest.mark.parametrize("algorithm", ["miller-rabin", "trial-division"])
    def test_oracle_record_above_psi13(self, tmp_path, k, n, algorithm):
        # the exact oracle knows nothing at or above psi_13, so nothing replays
        # there and nothing long is computed: no trial division, no Miller-Rabin
        rec = self.record("7", "3")
        p = (int(n) << k) - 1
        rec.update(algorithm=algorithm, verdict="prime", certificate={"type": "oracle"},
                   candidate={"k": str(k), "n": n, "p": str(p)})
        start = time.perf_counter()
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert (code, err) == (1, "") and "INVALID" in out
        assert time.perf_counter() - start < 1.0

    def test_scan_exhausted_record_is_malformed(self, tmp_path):
        # both curve routes give up with retries-exhausted: scan-exhausted
        # is no certificate type, and detail is no certificate field
        rec = self.record("7", "3")
        rec["verdict"] = "inconclusive"
        rec["certificate"] = {"type": "scan-exhausted",
                              "detail": "no curve/point pair found for 383"}
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert code == 3 and out == "" and "malformed" in err and "'detail'" in err

    def test_replay_never_searches(self, monkeypatch, tmp_path):
        def boom(*args, **kwargs):
            raise AssertionError("replay ran the search")

        for name in ("_curve_point_candidates", "_curve_route", "_fallback", "auto_test"):
            monkeypatch.setattr(primality, name, boom)
        replayed = 0
        for line in record_lines():
            code, out, _ = self.replay(tmp_path, line)
            assert code == 0 and out.startswith("replay: valid"), line
            replayed += 1
        assert replayed == 94


class TestMersenneCommand:
    def test_range_finds_known_exponents(self):
        code, out, _ = run_cli("mersenne", "3", "31", "--json")
        assert code == 0
        primes = [int(r["candidate"]["k"]) for r in json_lines(out) if r["verdict"] == "prime"]
        assert primes == [3, 5, 7, 13, 17, 19, 31]

    def test_single_composite(self):
        code, out, _ = run_cli("mersenne", "4", "4", "--json")
        assert code == 0
        assert json_lines(out)[0]["verdict"] == "composite"

    def test_compare_flag_records_agreement(self):
        code, out, _ = run_cli("mersenne", "3", "64", "--compare-lucas-lehmer", "--json")
        assert code == 0
        recs = json_lines(out)
        assert len(recs) == 62
        assert all(r["match"] is True for r in recs)

    def test_bad_range(self):
        assert run_cli("mersenne", "2", "5")[0] == 3
        assert run_cli("mersenne", "9", "5")[0] == 3

    def test_beyond_the_int_digit_limit(self, tmp_path):
        # p = 2^14400 - 1 has 4335 digits, past Python's default 4300
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out, _ = run_cli("mersenne", "14400", "14400", "--json")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["verdict"] == "composite"
        assert rec["certificate"] == {"divisor": "3", "stage": "parameter-scan", "type": "factor"}
        assert len(rec["candidate"]["p"]) == 4335
        assert cli._parse_int(rec["candidate"]["p"]) == (1 << 14400) - 1
        assert run_cli("test", "14400", "1", "--json")[:2] == (1, out)
        path = tmp_path / "record.json"
        path.write_text(out)
        code, out, _ = run_cli("test", "--replay", str(path))
        assert code == 0 and out.startswith("replay: valid")
        assert run_cli("mersenne", "14400", "14400")[0] == 0
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit


    def test_arguments_beyond_the_int_digit_limit(self):
        # n = 2^14617 + 1 has 4401 digits; p = 2^14617 n - 1 lies between
        # the gates, and 5 divides it, so the fallback's presieve decides
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        n = (1 << 14617) + 1
        n_text = cli._decimal(n)
        assert len(n_text) == 4401
        code, out, err = run_cli("test", "14617", n_text, "--json")
        assert (code, err) == (1, "")
        rec = json_lines(out)[0]
        assert rec["candidate"]["n"] == n_text
        assert rec["certificate"] == {"divisor": "5", "stage": "sieve", "type": "factor"}
        # --q and the bounds of search and mersenne are read alike
        assert run_cli("test", "14617", n_text, "--q", n_text, "--json")[:2] == (1, out)
        code, search, _ = run_cli("search", "--k", "14617", "--n-min", n_text,
                                  "--n-max", n_text, "--json")
        assert code == 0 and json_lines(search)[0] == rec
        code, _, err = run_cli("mersenne", n_text, "3")
        assert code == 3 and err.startswith("mersenne: need")
        # a word that is no integer keeps argparse's message
        code, _, err = run_cli("test", "2", "x")
        assert code == 3 and "argument n: invalid int value: 'x'" in err
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit

class TestSearchCommand:
    def test_odd_n_only_ascending(self):
        code, out, _ = run_cli("search", "--k", "7", "--n-min", "1", "--n-max", "9", "--json")
        assert code == 0
        recs = json_lines(out)
        assert [int(r["candidate"]["n"]) for r in recs[:-1]] == [1, 3, 5, 7, 9]
        assert "summary" in recs[-1]

    def test_small_candidate_uses_oracle(self):
        code, out, _ = run_cli("search", "--k", "2", "--n-min", "3", "--n-max", "3", "--json")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["candidate"]["p"] == "11"
        assert rec["verdict"] == "prime"

    def test_summary_counts(self):
        _, out, _ = run_cli("search", "--k", "2", "--n-min", "1", "--n-max", "25", "--json")
        recs = json_lines(out)
        summary = recs[-1]["summary"]
        assert sum(summary.values()) == len(recs) - 1
        # p = 4n - 1; the presieve runs to 9, so p = 3 is a sieving prime and stays prime
        by_p = {int(r["candidate"]["p"]): r for r in recs[:-1]}
        primes = [p for p, r in by_p.items() if r["verdict"] == "prime"]
        assert primes == [3, 11, 19, 43, 59, 67, 83] and summary["prime"] == len(primes)
        sieved = {p: r["certificate"] for p, r in by_p.items() if r["algorithm"] == "sieve"}
        assert sieved == {p: {"type": "factor", "divisor": str(d), "stage": "sieve"}
                          for p, d in ((27, 3), (35, 5), (51, 3), (75, 3), (91, 7), (99, 3))}
        assert all(by_p[p]["verdict"] == "composite" for p in sieved)

    def test_worker_count_does_not_change_bytes(self):
        for args in (("search", "--k", "5", "--n-min", "1", "--n-max", "31", "--json"),
                     ("search", "--k", "31", "--n-min", "40001", "--n-max", "40199", "--json")):
            _, seq_out, _ = run_cli(*args, "--workers", "1")
            _, par_out, _ = run_cli(*args, "--workers", "4")
            assert seq_out == par_out
        assert '"algorithm":"sieve"' in seq_out

    def test_bad_arguments(self):
        assert run_cli("search", "--k", "2", "--n-min", "9", "--n-max", "3")[0] == 3
        assert run_cli("search", "--k", "2", "--n-max", "5", "--workers", "0")[0] == 3
        assert run_cli("search", "--k", "1", "--n-max", "5")[0] == 3

    def test_bad_config_is_a_usage_error(self, monkeypatch):
        # the search has no settable config left: --retries is no option
        code, out, err = run_cli("search", "--k", "5", "--n-max", "9", "--retries", "0")
        assert (code, out) == (3, "") and err.startswith("usage: ecriesel search ")
        assert err.endswith("ecriesel search: error: unrecognized arguments: --retries 0\n")
        # the former oracle-bound variable is not read, so junk in it is no error
        expected = run_cli("search", "--k", "5", "--n-max", "9")
        monkeypatch.setenv("ECRIESEL_ORACLE_BOUND", "abc")
        assert run_cli("search", "--k", "5", "--n-max", "9") == expected
        assert expected[0] == 0

    def test_pool_size_is_bounded(self, monkeypatch):
        # a fake pool: no process is started, whatever --workers asks for
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        # cli imports the pool class when it needs one, so patch where it comes from
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        argv = ("search", "--k", "31", "--n-min", "40001", "--n-max", "40199", "--json")
        expected = run_cli(*argv, "--workers", "1")[1]
        unsieved = sum(1 for line in expected.splitlines()[:-1] if '"algorithm":"sieve"' not in line)
        assert 8 < unsieved < 10**6
        for cpus, workers, size in ((8, 10**6, 8), (10**6, 10**6, unsieved), (3, 2, 2)):
            monkeypatch.setattr(cli.os, "cpu_count", lambda cpus=cpus: cpus)
            sizes.clear()
            assert run_cli(*argv, "--workers", str(workers)) == (0, expected, "")
            assert sizes == [size], (cpus, workers)
        for cpus in (None, 1):  # one CPU, or an unknown count: no pool
            monkeypatch.setattr(cli.os, "cpu_count", lambda cpus=cpus: cpus)
            sizes.clear()
            assert run_cli(*argv, "--workers", "64") == (0, expected, "")
            assert sizes == []
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        # one candidate past the presieve: no pool either
        one = ("search", "--k", "7", "--n-min", "3", "--n-max", "3", "--json")
        assert run_cli(*one, "--workers", "64") == run_cli(*one, "--workers", "1")
        assert sizes == []


class TestVerifyCommand:
    def test_clean_report(self):
        code, out, _ = run_cli("verify", "--p-max", "100")
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == []
        assert report["curves_checked"] > 100

    def test_exit_codes_for_bad_usage(self):
        assert run_cli("verify", "--p-max", "1")[0] == 3
        assert run_cli("verify", "--p-max", "nope")[0] == 3
        assert run_cli("verify", "--p-max", str(10**7))[0] == 3


class TestDeterminismAndEnv:
    def test_repeated_json_runs_identical(self):
        outs = {run_cli("test", "2", "2633", "--json")[1] for _ in range(3)}
        assert len(outs) == 1

    def test_timings_flag_adds_elapsed(self):
        _, out, _ = run_cli("test", "5", "1", "--json", "--timings")
        assert "elapsed_ms" in json_lines(out)[0]
        _, out, _ = run_cli("test", "5", "1", "--json")
        assert "elapsed_ms" not in json_lines(out)[0]

    @pytest.mark.parametrize("argv", [
        ("test", "2", "7625597484987", "--json"),
        ("test", "2", "1000000000039", "--json"),
        ("search", "--k", "2", "--n-min", "7625597484987", "--n-max", "7625597484987",
         "--json"),
    ], ids=["test-fallback", "test-factor-check", "search"])
    @pytest.mark.parametrize("via", ["option", "env"])
    def test_oracle_bound_above_the_exact_oracle_limit(self, monkeypatch, argv, via):
        # there is no oracle bound to set: --oracle-bound is an unknown
        # option, and the former environment variable is not read
        bound = "100000000000000000000"
        if via == "option":
            code, out, err = run_cli(*argv, "--oracle-bound", bound)
            assert (code, out) == (3, "") and "Traceback" not in err
            assert f"ecriesel {argv[0]}: error: unrecognized arguments: --oracle-bound" in err
            return
        expected = run_cli(*argv)
        monkeypatch.setenv("ECRIESEL_ORACLE_BOUND", bound)
        assert run_cli(*argv) == expected
        # both p are composite: 4 * 3^27 - 1 = 157 * 194282738471, and 5 divides
        # 4 * 1000000000039 - 1; search completes with exit 0
        assert expected[0] == (1 if argv[0] == "test" else 0)

    def test_oracle_bound_env(self, monkeypatch):
        # p = 39 fails both gates and is composite, whatever the variable says
        expected = run_cli("test", "3", "5", "--json")
        assert expected[0] == 1 and json_lines(expected[1])[0]["algorithm"] == "trial-division"
        for value in ("10", "abc"):
            monkeypatch.setenv("ECRIESEL_ORACLE_BOUND", value)
            assert run_cli("test", "3", "5", "--json") == expected


class TestOneParserPerProcess:
    """main() reuses one parser, and all its output goes to out and err."""

    @staticmethod
    def fresh_process(argv, stdin_text, env_bound):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("ECRIESEL_ORACLE_BOUND", None)
        if env_bound is not None:
            env["ECRIESEL_ORACLE_BOUND"] = env_bound
        done = subprocess.run([sys.executable, "-m", "ecriesel", *argv], input=stdin_text,
                              capture_output=True, text=True, env=env, timeout=120)
        return done.returncode, done.stdout

    def test_interleaved_calls_match_fresh_processes(self, monkeypatch):
        record = run_cli("test", "7", "3", "--json")[1]
        forged = json.loads(record)
        forged["verdict"] = "composite"
        calls = [
            (("test", "7", "3", "--json"), None, None),
            (("test", "--replay", "-"), record, None),
            (("test", "3", "5", "--json"), None, "10"),  # the variable is not read: composite
            (("mersenne", "3", "13", "--json"), None, None),
            (("test", "3", "5", "--json"), None, None),
            (("test", "--bogus"), None, None),
            (("test", "--bogus"), None, None),  # an error is never kept: usage again
            (("search", "--k", "7", "--n-max", "15", "--json"), None, "10"),
            (("test", "--replay", "-"), record, None),
            (("test", "--replay", "-"), json.dumps(forged), None),  # the kept parse, new stdin
            (("verify", "--p-max", "50"), None, None),
            (("search", "--k", "1", "--n-max", "5"), None, None),
            (("--version",), None, None),
            (("--version",), None, None),
            (("test", "2", "2633", "--json"), None, "10"),
            (("test", "--replay", "-"), record, None),
        ]
        builds = cli._build_parser.cache_info().misses
        for argv, stdin_text, env_bound in calls:
            if env_bound is None:
                monkeypatch.delenv("ECRIESEL_ORACLE_BOUND", raising=False)
            else:
                monkeypatch.setenv("ECRIESEL_ORACLE_BOUND", env_bound)
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text or ""))
            code, out, err = run_cli(*argv)
            assert (code, out) == self.fresh_process(argv, stdin_text, env_bound), argv
            if argv == ("test", "--bogus"):
                assert err.startswith("usage: ecriesel test "), err
            if env_bound is not None:  # the same output without the variable
                monkeypatch.delenv("ECRIESEL_ORACLE_BOUND")
                assert run_cli(*argv)[:2] == (code, out), argv
        assert cli._build_parser.cache_info().misses == builds  # no parser rebuilt

    def test_a_command_cannot_change_the_next_calls_arguments(self, monkeypatch):
        argv = ("test", "2", "105", "--q", "3", "--q", "5")
        seen = []

        def mutating(args, out, err):
            seen.append((args.k, args.n, list(args.q)))
            args.q.append(7)
            args.k = 0
            return 0

        cli._parse.cache_clear()
        monkeypatch.setitem(cli._command_parsers()["test"]._defaults, "func", mutating)
        try:
            assert run_cli(*argv) == run_cli(*argv) == (0, "", "")
            assert cli._parse.cache_info().hits == 1  # the second call reused the parse
        finally:
            cli._parse.cache_clear()  # the kept Namespace names the patched command
        assert seen == [(2, 105, [3, 5])] * 2

    def test_parser_output_goes_to_the_given_streams(self, capsys):
        for argv in (("test", "--bogus"), ("no-such-command",), ("mersenne", "3"),
                     ("verify", "--p-max", "nope")):
            code, out, err = run_cli(*argv)
            assert code == 3 and out == "" and err.startswith("usage: ecriesel"), argv
        code, out, err = run_cli("--version")
        assert code == 0 and out == f"ecriesel {cli.__version__}\n" and err == ""
        code, out, err = run_cli("test", "--help")
        assert code == 0 and out.startswith("usage: ecriesel test") and err == ""
        assert capsys.readouterr() == ("", "")


class TestDirectCommandParse:
    """A call that names a command is parsed once, by that command's parser;
    the top-level parser takes no argv, -h, --version and unknown commands."""

    ARGVS = [
        ("test", "7", "3"),
        ("test", "7", "3", "--json", "--timings"),
        ("test", "--json", "7", "3"),
        ("test", "2", "105", "--q", "3", "--q", "5", "--q", "7", "--json"),
        ("test", "2", "250127", "--q1", "389", "--q2", "643"),
        ("test", "2", "105", "--q2", "7", "--q", "3", "--q1", "5"),
        ("test", "--replay", "-"),
        ("test", "--replay=record.jsonl", "--json"),
        ("test", "3", "5", "--q2", "5", "--timings"),
        ("test", "--", "7", "3"),
        ("mersenne", "3", "13"),
        ("mersenne", "3", "13", "--json", "--compare-lucas-lehmer", "--timings"),
        ("search", "--k", "7", "--n-max", "15"),
        ("search", "--n-max", "40999", "--k", "31", "--n-min", "40001", "--json",
         "--workers", "2"),
        ("verify",),
    ]

    @staticmethod
    def count_parses(monkeypatch):
        """The prog of every parser that parse_known_args runs, in call order."""
        progs = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            progs.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        return progs

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_matches_the_top_level_parse(self, argv):
        top = vars(cli._build_parser().parse_args(list(argv)))
        assert top.pop("command") == argv[0]
        direct = vars(cli._command_parsers()[argv[0]].parse_args(list(argv[1:])))
        assert direct == top

    def test_replay_is_parsed_once(self, monkeypatch):
        record = run_cli("test", "7", "3", "--json")[1]
        builds = cli._build_parser.cache_info().misses
        progs = self.count_parses(monkeypatch)
        monkeypatch.setattr(sys, "stdin", io.StringIO(record))
        assert run_cli("test", "--replay", "-")[0] == 0
        assert progs == ["ecriesel test"]
        assert cli._build_parser.cache_info().misses == builds

    def test_main_without_argv_reads_sys_argv(self, monkeypatch, capsys):
        expected = run_cli("test", "7", "3", "--json")
        cli._parse.cache_clear()
        progs = self.count_parses(monkeypatch)
        monkeypatch.setattr(sys, "argv", ["ecriesel", "test", "7", "3", "--json"])
        code = main(None)
        assert (code, *capsys.readouterr()) == expected
        assert progs == ["ecriesel test"]
        # the same argv again reuses the kept parse
        assert (main(None), *capsys.readouterr()) == expected
        assert progs == ["ecriesel test"]

    def test_other_argvs_go_to_the_top_level_parser(self, monkeypatch):
        parser = cli._build_parser()
        usage = parser.format_usage()
        progs = self.count_parses(monkeypatch)
        assert run_cli() == (3, "", usage + "ecriesel: error: the following arguments "
                                            "are required: command\n")
        assert run_cli("-h") == (0, parser.format_help(), "")
        assert run_cli("--version") == (0, f"ecriesel {cli.__version__}\n", "")
        code, out, err = run_cli("no-such-command")
        assert (code, out) == (3, "") and err.startswith(usage)
        assert err[len(usage):].startswith(
            "ecriesel: error: argument command: invalid choice: 'no-such-command'")
        assert progs == ["ecriesel"] * 4

    def test_unknown_option_is_reported_by_the_command(self):
        code, out, err = run_cli("test", "--bogus")
        assert (code, out) == (3, "")
        assert err.startswith("usage: ecriesel test ")
        assert err.endswith("ecriesel test: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv", [
        ("test", "7", "3", "--seed", "1"),
        ("test", "7", "3", "--retries", "0"),
        ("search", "--k", "5", "--n-max", "9", "--seed", "1"),
        ("search", "--k", "5", "--n-max", "9", "--retries", "0"),
    ], ids=" ".join)
    def test_search_options_are_gone(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "") and "Traceback" not in err
        assert err.endswith(f"ecriesel {argv[0]}: error: unrecognized arguments: "
                            f"{' '.join(argv[-2:])}\n")

    UNREAD_SETTINGS = [
        (("search", "--k", "5", "--n-max", "9", "--timings"),
         "ecriesel search: error: unrecognized arguments: --timings\n"),
        (("verify", "--p-max", "50", "--seed", "3"),
         "ecriesel verify: error: unrecognized arguments: --seed 3\n"),
        (("test", "--replay", "-", "7", "3"),
         "test: --replay reads the candidate from its record and takes "
         "no k, n, --q, --json or --timings\n"),
    ]

    @pytest.mark.parametrize("argv, message", UNREAD_SETTINGS,
                             ids=[" ".join(argv) for argv, _ in UNREAD_SETTINGS])
    def test_unread_settings_are_refused(self, monkeypatch, argv, message):
        # search lines never carry a timing, verify samples one fixed stream,
        # and replay takes its candidate from the record
        monkeypatch.setattr(sys, "stdin", io.StringIO(run_cli("test", "7", "3", "--json")[1]))
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "") and "Traceback" not in err
        assert err.endswith(message)

    def test_positionals_after_an_option(self, monkeypatch):
        expected = run_cli("test", "7", "3", "--json")
        assert run_cli("test", "7", "--json", "3") == expected
        progs = self.count_parses(monkeypatch)
        assert run_cli("test", "--json", "7", "3") == expected
        assert progs == ["ecriesel test"]  # no word left over, so no second parse
        code, out, err = run_cli("test", "7", "3", "4")
        assert (code, out) == (3, "") and err.startswith("usage: ecriesel test ")
        assert err.endswith("ecriesel test: error: unrecognized arguments: 4\n")


class TestMersenneOptions:
    """mersenne takes the output options only, and no command takes the
    former search options."""

    @pytest.mark.parametrize("option", [("--retries", "0"), ("--seed", "3"),
                                        ("--oracle-bound", "5")])
    def test_config_option_is_a_usage_error(self, option):
        code, out, err = run_cli("mersenne", "3", "5", *option)
        assert (code, out) == (3, "") and err.startswith("usage: ecriesel")
        assert f"unrecognized arguments: {' '.join(option)}" in err

    def test_output_options_stay(self):
        code, out, _ = run_cli("mersenne", "3", "5", "--json", "--timings")
        assert code == 0 and all("elapsed_ms" in r for r in json_lines(out))


class TestClosedPipe:
    """A reader that stops early ends the run quietly, with exit 141."""

    class ClosedStream(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    @pytest.mark.parametrize("argv", [
        ("mersenne", "3", "9", "--json"),
        ("search", "--k", "31", "--n-min", "40001", "--n-max", "40199", "--json"),
        ("search", "--k", "7", "--n-max", "99"),
        ("test", "7", "3", "--json"),
        ("verify", "--p-max", "50"),
    ])
    def test_in_process(self, argv):
        err = io.StringIO()
        assert main(list(argv), out=self.ClosedStream(), err=err) == cli.EXIT_CLOSED_PIPE
        assert err.getvalue() == ""

    @staticmethod
    def read_one_line(*argv):
        """Start python with argv, read one line of stdout, then close it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen([sys.executable, *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=120), first, err

    @pytest.mark.parametrize("argv", [
        ("mersenne", "3", "400", "--json"),  # about 150 KB of records
        ("search", "--k", "31", "--n-min", "1", "--n-max", "400001", "--json",
         "--workers", "2"),
    ])
    def test_process_reading_one_line(self, argv):
        code, first, err = self.read_one_line("-m", "ecriesel", *argv)
        assert (code, err) == (141, b"")
        assert json.loads(first)["candidate"]["n"] == "1"

    def test_final_flush_goes_to_devnull(self):
        # what is still buffered on stdout at exit must not raise again
        script = ("import sys; from ecriesel.cli import main; "
                  "code = main(['mersenne', '3', '400', '--json']); "
                  "sys.stdout.write('buffered'); sys.exit(code)")
        assert self.read_one_line("-c", script)[::2] == (141, b"")
