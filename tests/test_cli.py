import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecriesel import cli
from ecriesel.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestTestCommand:
    def test_mersenne_route(self):
        code, out, _ = run_cli("test", "5", "1", "--json")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["verdict"] == "prime"
        assert rec["algorithm"] == "mersenne"
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
        code, _, _ = run_cli("test", "2", "10395")
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
        assert isinstance(cert["m"], str) and isinstance(cert["x0"], str)
        assert all(isinstance(x, str) for x in cert["base_point"])

    def test_json_records_parse_standalone(self):
        _, out, _ = run_cli("test", "2", "2633", "--json")
        for line in out.splitlines():
            assert json.loads(line)["schema"].endswith("/2")


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
        # p = 383 is prime; the record claims 3 * Q = infinity
        rec = self.record("7", "3")
        rec["verdict"] = "composite"
        rec["certificate"] = {"type": "vanished-multiple", "m": "178", "base_point": ["5", "1"]}
        code, out, _ = self.replay(tmp_path, json.dumps(rec))
        assert code == 1 and "INVALID" in out
        for multiplier in ("0", "384"):
            rec["certificate"]["multiplier"] = multiplier
            assert self.replay(tmp_path, json.dumps(rec))[0] == 3

    def test_non_canonical_decimals(self, tmp_path):
        for m in ("\u0661\u0667\u0668", "0178", "+178", " 178", "178.0"):
            rec = self.record("7", "3")
            rec["certificate"]["m"] = m
            code, _, err = self.replay(tmp_path, json.dumps(rec))
            assert code == 3 and "malformed" in err, m
        rec = self.record("7", "3")
        rec["candidate"]["n"] = "03"
        assert self.replay(tmp_path, json.dumps(rec))[0] == 3

    def test_field_types(self, tmp_path):
        for field, value in (("m", 178), ("base_point", "5"), ("outcome", ["final-zero"])):
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

    def test_one_record_per_input(self, tmp_path):
        good = json.dumps(self.record("7", "3"))
        bad = self.record("7", "3")
        bad["verdict"] = "composite"
        assert self.replay(tmp_path, good + "\n" + json.dumps(bad) + "\n")[0] == 3
        assert self.replay(tmp_path, good + "\n" + good)[0] == 3
        assert self.replay(tmp_path, "\n" + good + "\n\n")[0] == 0
        assert self.replay(tmp_path, "")[0] == 3

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
        assert rec["verdict"] == "composite" and rec["certificate"]["outcome"] == "gcd-hit"
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
        code, out, err = run_cli("search", "--k", "5", "--n-max", "9", "--retries", "0")
        assert (code, out) == (3, "") and err.startswith("search: ") and "retry_cap" in err
        monkeypatch.setenv("ECRIESEL_ORACLE_BOUND", "abc")
        code, out, err = run_cli("search", "--k", "5", "--n-max", "9")
        assert (code, out) == (3, "") and err.startswith("search: ") and "'abc'" in err

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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
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

    def test_oracle_bound_env(self, monkeypatch):
        monkeypatch.setenv("ECRIESEL_ORACLE_BOUND", "10")
        code, out, _ = run_cli("test", "3", "5", "--json")  # p = 39, gate fails
        assert code == 3
        assert json_lines(out)[0]["verdict"] == "not-applicable"
        monkeypatch.delenv("ECRIESEL_ORACLE_BOUND")
        code, _, _ = run_cli("test", "3", "5", "--json")
        assert code == 1


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
            (("test", "3", "5", "--json"), None, "10"),  # oracle bound: not-applicable
            (("mersenne", "3", "13", "--json"), None, None),
            (("test", "3", "5", "--json"), None, None),  # default bound: composite
            (("test", "--bogus"), None, None),
            (("search", "--k", "7", "--n-max", "15", "--json"), None, "10"),
            (("test", "--replay", "-"), json.dumps(forged), None),
            (("verify", "--p-max", "50"), None, None),
            (("search", "--k", "1", "--n-max", "5"), None, None),
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
            code, out, _ = run_cli(*argv)
            assert (code, out) == self.fresh_process(argv, stdin_text, env_bound), argv
        assert cli._build_parser.cache_info().misses == builds  # no parser rebuilt

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
