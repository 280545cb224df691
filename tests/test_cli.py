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
from ecriesel.cli import REPLAY_MAX_P_BITS, main
from ecriesel.numtheory import MAX_P_BITS, gate_small_n

from test_golden import GOLDEN, record_lines

SRC = str(Path(__file__).resolve().parents[1] / "src")

# n = 609403 * 461886431: p = 2^48 n - 1 is prime, lies above psi_13, where
# the exact oracle stops, and n has no prime factor below 2^16, so with no
# factors given no corner and no oracle decides it
UNDECIDED_K = "48"
UNDECIDED_N = "281474976710693"
UNDECIDED_P = str((int(UNDECIDED_N) << 48) - 1)
# p = 2^5 n - 1 = 3851 * 76831835389, a base-3 strong pseudoprime (both
# factors divide 3^35 - 1), and n's part above 2^16 is composite: no corner
# takes it, and the fallback's Miller-Rabin finds the least witness base 2
PSEUDOPRIME_KN = ("5", "9246231190095")
# n = 3^53: p = 4n - 1 lies above psi_13 too, and base 3 witnesses it
WITNESSED_N = str(3**53)
DISPATCH_CERTIFICATE = {"type": "gate-failure"}


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
        assert rec["candidate"] == {"k": "5", "n": "1"}

    def test_small_n_route(self):
        code, out, _ = run_cli("test", "7", "3", "--json")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["verdict"] == "prime"
        assert rec["algorithm"] == "small-n"
        assert rec["candidate"] == {"k": "7", "n": "3"}

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
        code, _, _ = run_cli("test", UNDECIDED_K, UNDECIDED_N)
        assert code == 3
        # composite above psi_13: the witness decides, exit 1
        assert run_cli("test", "2", WITNESSED_N)[0] == 1

    def test_usage_errors(self):
        assert run_cli("test", "5")[0] == 3  # missing n
        assert run_cli("test", "1", "3")[0] == 3  # k too small
        assert run_cli("test", "2", "4")[0] == 3  # even n
        assert run_cli("test", "2", "9", "--q1", "3")[0] == 3  # lonely hint
        assert run_cli("no-such-command")[0] == 3

    def test_human_output_mentions_divisor(self):
        # p = 1772611 = 31 * 211 * 271 is a base-3 strong pseudoprime whose
        # large-n walk meets 31
        code, out, _ = run_cli("test", "2", "443153")
        assert code == 1
        assert "[large-n] divisor=31" in out
        code, out, _ = run_cli("test", "8", "7")  # p = 1791 = 3^2 * 199
        assert code == 1
        assert "[sieve] divisor=3" in out

    def test_big_integers_are_decimal_strings(self):
        code, out, _ = run_cli("test", "89", "19", "--json")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["candidate"] == {"k": "89", "n": "19"}
        cert = rec["certificate"]
        # small-n scans no point, and replay derives its start x0
        assert cert == {"type": "sequence", "outcome": "final-zero"}

    def test_json_records_parse_standalone(self):
        _, out, _ = run_cli("test", "2", "2633", "--json")
        for line in out.splitlines():
            assert json.loads(line)["schema"].endswith("/11")


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

    def test_composite_factor_is_not_applicable(self, monkeypatch):
        # n itself is no prime and p is above psi_13: the record is the
        # dispatch gate failure, with the factors given, and it replays valid
        code, out, err = run_cli("test", UNDECIDED_K, UNDECIDED_N, "--q", UNDECIDED_N, "--json")
        assert (code, err) == (3, "")
        assert out == (
            f'{{"algorithm":"auto","candidate":{{"k":"48","n":"{UNDECIDED_N}"}},'
            f'"certificate":{{"factors":["{UNDECIDED_N}"],"type":"gate-failure"}},"iterations":1,'
            '"schema":"ecriesel.run-record/11","tool_version":"0.1.0","verdict":"not-applicable"}\n')
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert run_cli("test", "--replay", "-")[0] == 0

    @pytest.mark.parametrize("argv, line", [
        (("5", "3"), "k=5 n=3 p=95: composite [small-n] divisor=5"),  # factor
        (("9", "1"), "k=9 n=1 p=511: composite [small-n] divisor=7"),  # gcd-hit
        (("2", "7"), "k=2 n=7 p=27: composite [trial-division] divisor=3"),  # oracle
        (("2", "3"), "k=2 n=3 p=11: prime [trial-division]"),
        (("2", "10395"), "k=2 n=10395 p=41579: prime [miller-rabin]"),
        (("2", "7625597484987"), "k=2 n=7625597484987 p=30502389939947: composite [miller-rabin]"),
        (("2", WITNESSED_N), f"k=2 n={WITNESSED_N} p={4 * 3**53 - 1}: not-applicable [auto]"),
    ])
    def test_human_line(self, monkeypatch, routes_decide_composites, argv, line):
        # the line of each route's and the fallback's verdicts, reached with
        # the presieve, the witness test and every corner but small-n out of
        # the way (the mixed corner decides the last four as they stand)
        monkeypatch.setattr(primality, "_corner",
                            lambda c: ((), True) if gate_small_n(c) else None)
        ticks = iter((2.0, 2.0 + 1 / 3))
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
        assert run_cli("test", *argv)[1] == line + " (333.33 ms)\n"

    @pytest.mark.parametrize("argv, line", [
        (("5", "3"), "k=5 n=3 p=95: composite [sieve] divisor=5"),
        (("9", "1"), "k=9 n=1 p=511: composite [sieve] divisor=7"),
        (("2", "7"), "k=2 n=7 p=27: composite [sieve] divisor=3"),
        (("2", "7625597484987"), "k=2 n=7625597484987 p=30502389939947: composite [miller-rabin]"),
        (("2", WITNESSED_N), f"k=2 n={WITNESSED_N} p={4 * 3**53 - 1}: composite [miller-rabin]"),
        (("6", "11"), "k=6 n=11 p=703: composite [small-n]"),
        (("2", "473"), "k=2 n=473 p=1891: composite [small-n]"),  # mixed
        (("2", "19383245667680019896796855"),
         "k=2 n=19383245667680019896796855 p=77532982670720079587187419: prime [small-n]"),
        (PSEUDOPRIME_KN, "k=5 n=9246231190095 p=295879398083039: composite [miller-rabin]"),
        ((UNDECIDED_K, UNDECIDED_N),
         f"k=48 n={UNDECIDED_N} p={UNDECIDED_P}: not-applicable [auto]"),
    ])
    def test_human_line_as_decided(self, monkeypatch, argv, line):
        # the presieve and the witness decide most composites; a base-3
        # strong pseudoprime reaches a route or the fallback
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


class TestReplayManyRecords:
    """One `test --replay` call answers every record line of its input."""

    LINES = (Path(__file__).parent / "data" / "search_k31_40001_40999.jsonl").read_text().splitlines()

    @staticmethod
    def replay(tmp_path, lines):
        path = tmp_path / "records.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return run_cli("test", "--replay", str(path))

    def test_a_search_replays_in_one_call(self, tmp_path):
        *records, summary = self.LINES
        code, out, err = self.replay(tmp_path, self.LINES)
        assert (code, err) == (0, "")
        answers = out.splitlines()
        assert len(answers) == len(records) + 1 == 501
        assert all(a.startswith("replay: valid (") for a in answers)
        assert answers[-1] == ("replay: valid (summary: composite=469 inconclusive=0 "
                               "not-applicable=0 prime=31)")
        # each answer is what the record replays to alone
        for line, answer in zip(records[::50], answers[::50]):
            assert self.replay(tmp_path, [line]) == (0, answer + "\n", "")

    def test_a_forged_record_is_the_one_invalid_line(self, tmp_path):
        lines = list(self.LINES)
        middle = len(lines) // 2
        forged = json.loads(lines[middle])
        assert forged["certificate"] == {"divisor": "13", "type": "factor"}
        forged["certificate"]["divisor"] = "11"  # p's least prime factor is 13
        lines[middle] = json.dumps(forged)
        code, out, err = self.replay(tmp_path, lines)
        assert (code, err) == (1, "")
        answers = out.splitlines()
        assert len(answers) == 501
        assert [i for i, a in enumerate(answers) if "INVALID" in a] == [middle]
        # a flipped verdict is INVALID, and the summary no longer counts the
        # verdicts the records claim
        forged["verdict"] = "prime"
        lines[middle] = json.dumps(forged)
        code, out, err = self.replay(tmp_path, lines)
        assert (code, err) == (1, "")
        answers = out.splitlines()
        assert [i for i, a in enumerate(answers) if "INVALID" in a] == [middle, 500]

    def test_a_malformed_line_is_named(self, tmp_path):
        lines = list(self.LINES)
        lines[10] = lines[10].replace('"iterations":1', '"iterations":0')
        lines[20] = "{not json"
        code, out, err = self.replay(tmp_path, lines)
        assert code == 3
        assert err == ("replay: malformed record at line 11: iterations must be a JSON "
                       "integer >= 1: 0\n"
                       "replay: malformed record at line 21: Expecting property name enclosed "
                       "in double quotes: line 1 column 2 (char 1)\n")
        # every other line is answered, and the summary no longer agrees
        answers = out.splitlines()
        assert len(answers) == 499 and "INVALID" in answers[-1]
        assert all(a.startswith("replay: valid") for a in answers[:-1])
        # the first record line is named too when others follow it
        code, out, err = self.replay(tmp_path, ["", "{not json", self.LINES[0]])
        assert code == 3 and err.startswith("replay: malformed record at line 2: ")
        assert out.startswith("replay: valid")

    def test_a_tampered_summary_is_invalid(self, tmp_path):
        *records, summary = self.LINES
        counts = json.loads(summary)["summary"]
        assert counts == {"composite": 469, "inconclusive": 0, "not-applicable": 0,
                          "prime": 31}
        tampered = json.dumps({"summary": {**counts, "composite": 468, "prime": 32}})
        code, out, err = self.replay(tmp_path, [*records, tampered])
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == (
            "replay: INVALID (summary: composite=468 inconclusive=0 not-applicable=0 prime=32; "
            "records: composite=469 inconclusive=0 not-applicable=0 prime=31)")
        # a summary counts the records since the previous one
        code, out, _ = self.replay(tmp_path, [*records, summary, *records, summary])
        assert code == 0 and out.count("(summary: composite=469 ") == 2
        code, out, _ = self.replay(tmp_path, [*records, *records, summary])
        assert code == 1 and out.splitlines()[-1].startswith("replay: INVALID (summary: ")
        # a summary that counts something else, or with no record before it,
        # is malformed (alone, as before, it is no record)
        for bad in ({"composite": 469, "prime": 31}, {**counts, "prime": -1},
                    {**counts, "prime": 31.0}, [469, 0, 0, 31]):
            code, _, err = self.replay(tmp_path, [*records, json.dumps({"summary": bad})])
            assert code == 3 and err.startswith("replay: malformed record at line 501: summary: ")
        assert self.replay(tmp_path, [summary]) == (
            3, "", f"replay: malformed record: not an {cli.SCHEMA} record\n")
        code, out, err = self.replay(tmp_path, [summary, *records[:2]])
        assert (code, out.count("replay: valid")) == (3, 2)
        assert err == f"replay: malformed record at line 1: not an {cli.SCHEMA} record\n"

    def test_stdin_is_read_line_by_line(self, monkeypatch):
        # the answer to a line is written before the next line is read
        answers = []

        class Lines(io.StringIO):
            def __next__(self):
                answers.append(out.getvalue().count("\n"))
                return super().__next__()

        out = io.StringIO()
        monkeypatch.setattr(sys, "stdin", Lines("\n".join(self.LINES[:3]) + "\n"))
        assert main(["test", "--replay", "-"], out=out, err=io.StringIO()) == 0
        assert answers == [0, 1, 2, 3]


class TestStrictReplayInput:
    """Replay reads each certificate field by name, one record per line."""

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
        # str.isdigit takes the Arabic-Indic 5, the fullwidth 5 and a
        # superscript 2, and int("\uff15") is 5: only ASCII digits with no
        # leading zero are read
        for x in ("\u0665", "05", "+5", " 5", "5.0", "\uff15", "\u00b2", "", "00", "03"):
            for field in ("candidate.k", "candidate.n", "certificate.divisor",
                          "certificate.witness", "certificate.least_factor",
                          "certificate.factors"):
                rec = self.record("7", "3")
                outer, key = field.split(".")
                rec[outer][key] = ["5", x] if key == "factors" else x
                code, out, err = self.replay(tmp_path, json.dumps(rec))
                assert (code, out) == (3, ""), (field, x)
                assert err == (f"replay: malformed record: {field}: "
                               f"not a canonical decimal string: {x!r}\n"), (field, x)

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

    def test_run_record_5_is_no_longer_read(self, tmp_path):
        # the /5 record of the same call walked another curve from x = -1:
        # the same message as /2 to /4
        rec = self.record("7", "3")
        rec["schema"] = "ecriesel.run-record/5"
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", "replay: malformed record: schema: ecriesel.run-record/5 is no longer read; "
                   "decide the candidate again\n")

    def test_run_record_7_is_no_longer_read(self, tmp_path):
        # a /7 give-up recorded no factors given with --q, and a /7
        # not-applicable stood for primes the mixed corner now decides:
        # the same message as /2 to /6
        rec = self.record(UNDECIDED_K, UNDECIDED_N)
        rec["schema"] = "ecriesel.run-record/7"
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", "replay: malformed record: schema: ecriesel.run-record/7 is no longer read; "
                   "decide the candidate again\n")

    def test_run_record_8_is_no_longer_read(self, tmp_path):
        # a /8 record could name the failing step of a chain, which /9
        # records do not hold: the schema is named before the field
        rec = self.record("7", "3")
        rec["schema"] = "ecriesel.run-record/8"
        rec["certificate"]["step"] = "1"
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", "replay: malformed record: schema: ecriesel.run-record/8 is no longer read; "
                   "decide the candidate again\n")

    def test_run_record_9_is_no_longer_read(self, tmp_path):
        # a /9 record named p beside k and n, which /10 records leave out:
        # the schema is named before the candidate
        rec = self.record("7", "3")
        rec["schema"] = "ecriesel.run-record/9"
        rec["candidate"]["p"] = "383"
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", "replay: malformed record: schema: ecriesel.run-record/9 is no longer read; "
                   "decide the candidate again\n")

    def test_run_record_10_is_no_longer_read(self, tmp_path):
        # a /10 factor record named the stage its divisor surfaced at, which
        # /11 records leave out: the schema is named before the field
        rec = self.record("2", "7")
        assert rec["certificate"] == {"divisor": "3", "type": "factor"}
        rec["schema"] = "ecriesel.run-record/10"
        rec["certificate"]["stage"] = "sieve"
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", "replay: malformed record: schema: ecriesel.run-record/10 is no longer read; "
                   "decide the candidate again\n")

    @pytest.mark.parametrize("argv", [("7", "3"), ("7", "61")], ids=["prime", "composite"])
    def test_run_record_6_is_no_longer_read(self, tmp_path, argv):
        # a /6 record ran no witness test: a composite carried a curve
        # certificate; the same message as /2 to /5, prime or not
        rec = self.record(*argv)
        rec["schema"] = "ecriesel.run-record/6"
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", "replay: malformed record: schema: ecriesel.run-record/6 is no longer read; "
                   "decide the candidate again\n")

    def test_one_answer_per_record_line(self, tmp_path):
        good = json.dumps(self.record("7", "3"))
        bad = self.record("7", "3")
        bad["verdict"] = "composite"
        valid = "replay: valid (prime via small-n for p=383)\n"
        invalid = "replay: INVALID (composite via small-n for p=383)\n"
        assert self.replay(tmp_path, good + "\n" + json.dumps(bad) + "\n") == (
            1, valid + invalid, "")
        assert self.replay(tmp_path, good + "\n" + good) == (0, valid * 2, "")
        assert self.replay(tmp_path, "\n" + good + "\n\n") == (0, valid, "")
        assert self.replay(tmp_path, "") == (3, "", "replay: malformed record: no record line\n")
        assert self.replay(tmp_path, " \n\n") == (
            3, "", "replay: malformed record: no record line\n")

    def test_duplicate_key_is_malformed(self, tmp_path):
        # a reader that keeps the first of two keys reads composite here,
        # json.loads the prime that replay checks
        line = run_cli("test", "7", "3", "--json")[1]
        forged = '{"verdict":"composite",' + line[1:]
        assert json.loads(forged) == json.loads(line)
        assert self.replay(tmp_path, forged) == (
            3, "", "replay: malformed record: duplicate key 'verdict'\n")
        forged = line.replace('{"k":"7",', '{"k":"7","k":"8",')
        assert self.replay(tmp_path, forged) == (
            3, "", "replay: malformed record: duplicate key 'k'\n")

    CAP = f"2^k * n - 1 would have more than MAX_P_BITS = {MAX_P_BITS} bits"
    LIMIT = (f"candidate: 2^k * n - 1 would have more than REPLAY_MAX_P_BITS = "
             f"{REPLAY_MAX_P_BITS} bits, the most replay checks")

    @pytest.mark.parametrize("k, n, message", [
        (10**20, "21", CAP), (10**12, "21", CAP), (MAX_P_BITS, "1", CAP),
        (REPLAY_MAX_P_BITS, "1", LIMIT), (REPLAY_MAX_P_BITS - 3, "9", LIMIT),
        (100003, "1", LIMIT),
    ], ids=["huge", "10^12", "cap-plus-one", "limit-plus-one", "limit-plus-one-n-9", "100003"])
    def test_k_past_the_cap(self, tmp_path, k, n, message):
        # a 200-byte witness record: above MAX_P_BITS 2^k * n - 1 is never
        # formed, and above REPLAY_MAX_P_BITS neither the presieve nor the
        # strong test runs on it, so a forged k costs no more than the
        # record's own text
        rec = self.record("2", WITNESSED_N)
        assert rec["certificate"] == {"type": "oracle", "witness": "3"}
        rec["candidate"] = {"k": str(k), "n": n}
        start = time.perf_counter()
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (3, "", f"replay: malformed record: {message}\n")

    def test_at_the_replay_limit(self, tmp_path):
        # p = 9 * 2^16380 - 1 has REPLAY_MAX_P_BITS bits and no prime up to
        # 13 divides it, so replay runs the presieve and the base-3 strong
        # test on all of it: the same forged record, at the largest p
        # replay checks, ends (in about 2 s on a 2-vCPU VM)
        k = REPLAY_MAX_P_BITS - 4
        assert k + (9).bit_length() == REPLAY_MAX_P_BITS
        assert all(((9 << k) - 1) % q for q in (3, 5, 7, 11, 13))
        rec = self.record("2", WITNESSED_N)
        rec["candidate"] = {"k": str(k), "n": "9"}
        start = time.perf_counter()
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert time.perf_counter() - start < 60.0
        assert (code, err) == (0, "")
        assert out.startswith("replay: valid (composite via miller-rabin for p=")

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
        # a stage is no certificate field since run-record/11: malformed
        "factor-with-stage": (("large-n", "factor"),
                              lambda r: r["certificate"].update(stage="scalar-multiplication"), 3),
        "factor-with-witness": (("sieve", "factor"),
                                lambda r: r["certificate"].update(witness="3"), 1),
        # m and x0 are no certificate fields since run-record/3: malformed
        "factor-with-m": (("sieve", "factor"), lambda r: r["certificate"].update(m="3"), 3),
        "sieve-at-parameter-scan": (("sieve", "factor"),
                                    lambda r: r["certificate"].update(stage="parameter-scan"), 3),
        "factor-long-algorithm": (("large-n", "factor"), lambda r: r.update(algorithm="9" * 50), 1),
        "factor-null-algorithm": (("sieve", "factor"), lambda r: r.update(algorithm=None), 3),
        "tool-version-list": (("sieve", "factor"), lambda r: r.update(tool_version=[1]), 3),
        # a step is no certificate field since run-record/9: malformed
        "order-with-step": (("large-n", "order"), lambda r: r["certificate"].update(step="5"), 3),
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
        "verdict-int": (("large-n", "factor"), lambda r: r.update(verdict=5), 3),
        "verdict-null": (("sieve", "factor"), lambda r: r.update(verdict=None), 3),
        "verdict-list": (("large-n", "order"), lambda r: r.update(verdict=["prime"]), 3),
        "verdict-object": (("large-n", "factor"), lambda r: r.update(verdict={"a": 1}), 3),
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

    @pytest.mark.parametrize("source, field, value", [
        (("sieve", "factor"), "stage", "sieve"),
        (("large-n", "factor"), "stage", "scalar-multiplication"),
        (("auto", "gate-failure"), "gate", "dispatch"),
        (("auto", "gate-failure"), "reason", "no applicable route"),
    ])
    def test_run_record_10_field_is_unknown(self, tmp_path, source, field, value):
        # run-record/10 carried these: a factor's stage, which replay never
        # needed, and the dispatch give-up's constant gate and reason
        rec = self.golden(*source)
        assert self.replay(tmp_path, json.dumps(rec))[0] == 0
        rec["certificate"][field] = value
        assert self.replay(tmp_path, json.dumps(rec)) == (
            3, "", f"replay: malformed record: unknown certificate field '{field}'\n")

    @pytest.mark.parametrize("field", ["verdict", "algorithm", "tool_version",
                                       "certificate.type", "certificate.witness",
                                       "candidate.k"])
    def test_malformed_field_is_named(self, tmp_path, field):
        rec = self.record("2", "7625597484987")
        assert rec["certificate"] == {"type": "oracle", "witness": "3"}
        *outer, key = field.split(".")
        (rec[outer[0]] if outer else rec)[key] = 5
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert (code, out) == (3, "")
        assert err.startswith(f"replay: malformed record: {field}: ") and err.endswith(": 5\n")

    @pytest.mark.parametrize("forge, message", [
        (lambda c: "7", "candidate: not a JSON object"),
        (lambda c: [c["k"], c["n"]], "candidate: not a JSON object"),
        # replay forms p from k and n, and a record holds none
        (lambda c: {**c, "p": "383"}, "unknown candidate field 'p'"),
        (lambda c: {"n": c["n"]}, "candidate.k: missing"),
        (lambda c: {"k": c["k"]}, "candidate.n: missing"),
        (lambda c: {**c, "x": "1"}, "unknown candidate field 'x'"),
    ], ids=["string", "list", "with-p", "no-k", "no-n", "extra-x"])
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
        ("not-applicable", "mersenne", {"type": "gate-failure"}, 1),
        ("inconclusive", "sieve", {"type": "gate-failure"}, 1),
        ("not-applicable", "auto", {"type": "retries-exhausted"}, 1),
        ("inconclusive", "small-n", {"type": "retries-exhausted"}, 999),
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
        (("6", "11"), 7),
    ], ids=["small-n-999", "small-n-2", "large-n-21", "sieve-5", "small-n-factor-7"])
    def test_forged_decided_iterations(self, tmp_path, argv, iterations):
        rec = self.golden("sieve", "factor") if argv is None else self.record(*argv)
        if argv == ("6", "11"):
            # p = 703 = 19 * 37, a base-3 strong pseudoprime on the small-n
            # corner, which never declines: a factor at attempt 1 is a proof
            rec["certificate"] = {"divisor": "19", "type": "factor"}
        assert self.replay(tmp_path, json.dumps(rec))[0] == 0
        rec["iterations"] = iterations
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert (code, err) == (1, "") and out.startswith("replay: INVALID")

    # PSEUDOPRIME_KN: the fallback's Miller-Rabin, whose least witness base is
    # 2; 157 is neither that witness nor a factor of p
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
        rec = self.record(*PSEUDOPRIME_KN)
        assert rec["algorithm"] == "miller-rabin"
        assert rec["certificate"] == {"type": "oracle", "witness": "2"}
        assert self.replay(tmp_path, json.dumps(rec))[0] == 0
        forge(rec)
        code, out, err = self.replay(tmp_path, json.dumps(rec))
        assert code == 1 and "INVALID" in out and err == ""

    @pytest.mark.parametrize("k, n", [(48, UNDECIDED_N), (3999, "3")], ids=["psi13", "4000-bit"])
    @pytest.mark.parametrize("algorithm", ["miller-rabin", "trial-division"])
    def test_oracle_record_above_psi13(self, tmp_path, k, n, algorithm):
        # the exact oracle knows nothing at or above psi_13, so nothing replays
        # there and nothing long is computed: no trial division, no Miller-Rabin
        rec = self.record("7", "3")
        rec.update(algorithm=algorithm, verdict="prime", certificate={"type": "oracle"},
                   candidate={"k": str(k), "n": n})
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

        for name in ("_curve_point_candidates", "_curve_route", "_fallback", "auto_test",
                     "decide_unsieved"):
            monkeypatch.setattr(primality, name, boom)
        replayed = 0
        for line in record_lines():
            code, out, _ = self.replay(tmp_path, line)
            assert code == 0 and out.startswith("replay: valid"), line
            replayed += 1
        assert replayed == 107


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
        # p = 2^14400 - 1 has 4335 digits, past Python's default 4300: the
        # record holds k and n only, the human line and replay's print p
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        p_text = cli._decimal((1 << 14400) - 1)
        assert len(p_text) == 4335
        code, out, _ = run_cli("mersenne", "14400", "14400", "--json")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["verdict"] == "composite" and rec["candidate"] == {"k": "14400", "n": "1"}
        assert rec["certificate"] == {"divisor": "3", "type": "factor"}
        assert run_cli("test", "14400", "1", "--json")[:2] == (1, out)
        path = tmp_path / "record.json"
        path.write_text(out)
        code, out, _ = run_cli("test", "--replay", str(path))
        assert (code, out) == (0, f"replay: valid (composite via sieve for p={p_text})\n")
        code, out, _ = run_cli("mersenne", "14400", "14400")
        assert code == 0 and out.startswith(f"k=14400 n=1 p={p_text}: composite [sieve]")
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
        assert rec["certificate"] == {"divisor": "5", "type": "factor"}
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
        assert rec["candidate"] == {"k": "2", "n": "3"}  # p = 11
        assert rec["verdict"] == "prime"

    def test_summary_counts(self):
        _, out, _ = run_cli("search", "--k", "2", "--n-min", "1", "--n-max", "25", "--json")
        recs = json_lines(out)
        summary = recs[-1]["summary"]
        assert sum(summary.values()) == len(recs) - 1
        # p = 4n - 1; the presieve runs to 9, so p = 3 is a sieving prime and stays prime
        by_p = {4 * int(r["candidate"]["n"]) - 1: r for r in recs[:-1]}
        primes = [p for p, r in by_p.items() if r["verdict"] == "prime"]
        assert primes == [3, 11, 19, 43, 59, 67, 83] and summary["prime"] == len(primes)
        sieved = {p: r["certificate"] for p, r in by_p.items() if r["algorithm"] == "sieve"}
        assert sieved == {p: {"type": "factor", "divisor": str(d)}
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


class TestSizeCap:
    """A candidate whose k + bits(n) passes MAX_P_BITS is a usage error of
    every command, found before 2^k * n - 1 is formed: exit 3, one line."""

    CAP_MESSAGE = f"2^k * n - 1 would have more than MAX_P_BITS = {MAX_P_BITS} bits"

    @pytest.mark.parametrize("argv", [
        ("test", str(MAX_P_BITS), "1"),
        ("test", str(MAX_P_BITS - 1), "3", "--json"),
        ("test", str(10**12), "3"),
        ("mersenne", "3", str(MAX_P_BITS), "--json"),
        ("mersenne", str(MAX_P_BITS), str(MAX_P_BITS)),
        ("search", "--k", str(MAX_P_BITS), "--n-max", "1", "--json"),
        # the largest n of the range counts: n-max 2 stands for n = 3
        ("search", "--k", str(MAX_P_BITS - 1), "--n-min", "1", "--n-max", "2"),
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_one_bit_past_the_cap(self, argv):
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"{argv[0]}: {self.CAP_MESSAGE}\n"

    def test_search_below_the_cap_is_not_refused(self):
        # k at the cap less n's bits: the check passes, and only then does
        # the range go on to its usual checks (none here: it is empty)
        code, out, err = run_cli("search", "--k", str(MAX_P_BITS - 2), "--n-min", "2",
                                 "--n-max", "2", "--json")
        assert (code, err) == (0, "") and json_lines(out)[0]["summary"]["prime"] == 0


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
        # PSEUDOPRIME_KN meets no corner, passes the presieve and base 3, and
        # is composite by the oracle, whatever the variable says
        expected = run_cli("test", *PSEUDOPRIME_KN, "--json")
        assert expected[0] == 1 and json_lines(expected[1])[0]["algorithm"] == "miller-rabin"
        for value in ("10", "abc"):
            monkeypatch.setenv("ECRIESEL_ORACLE_BOUND", value)
            assert run_cli("test", *PSEUDOPRIME_KN, "--json") == expected


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
