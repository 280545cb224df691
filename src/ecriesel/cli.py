"""Command-line surface: single tests, Mersenne scans, range searches,
group-structure verification, and certificate replay.

Machine output is JSON lines, one self-contained object per record, with
every certificate integer and the candidate's n and p rendered as decimal
strings (they outgrow every fixed-width consumer).  Records are
deterministic byte for byte under the default config; wall-clock timing is
therefore only emitted on request (--timings) or in human-readable mode.

Exit codes for `test`: 0 prime, 1 composite, 2 inconclusive,
3 not-applicable or usage error.  Batch commands exit 0 on completion,
1 on an internal mismatch or violation, 3 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, partial

from . import __version__
from .numtheory import FormCandidate, lucas_lehmer, presieve
from .oracle import verify_theorems
from .primality import (
    COMPOSITE,
    DEFAULT_CONFIG,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    PRIME,
    SearchConfig,
    Verdict,
    auto_test,
    replay_verdict,
    test_mersenne,
)

SCHEMA = "ecriesel.run-record/2"

EXIT_BY_VERDICT = {PRIME: 0, COMPOSITE: 1, INCONCLUSIVE: 2, NOT_APPLICABLE: 3}

ORACLE_BOUND_ENV = "ECRIESEL_ORACLE_BOUND"


def _past_digit_limit(convert, value):
    """convert(value), where convert is int or str, also when the value is
    longer than Python's int<->str digit limit (4300 digits by default).

    Only the conversion that the limit refuses is retried, with the limit
    lifted; the caller's setting is restored afterwards.
    """
    try:
        return convert(value)
    except ValueError:
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is None:
            raise
        saved = sys.get_int_max_str_digits()
        set_limit(0)
        try:
            return convert(value)
        finally:
            set_limit(saved)


def _stringify(value):
    """Render every int inside a certificate as a decimal string."""
    if isinstance(value, int):
        return _past_digit_limit(str, value)
    if isinstance(value, list):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return value


_DECIMAL = re.compile(r"0|[1-9][0-9]*")


def _parse_int(text) -> int:
    """A canonical ASCII decimal string, as _stringify writes it."""
    if not isinstance(text, str) or not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a canonical decimal string: {text!r}")
    return _past_digit_limit(int, text)


def _parse_int_list(values) -> list[int]:
    if not isinstance(values, list):
        raise ValueError(f"not a list: {values!r}")
    return [_parse_int(v) for v in values]


def _parse_text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"not a string: {value!r}")
    return value


# How replay reads each certificate field; any other key is malformed.
CERTIFICATE_FIELDS = {
    **dict.fromkeys(
        ("m", "x0", "step", "divisor", "residue", "least_factor", "attempts"), _parse_int
    ),
    **dict.fromkeys(("base_point", "factors"), _parse_int_list),
    **dict.fromkeys(("type", "outcome", "stage", "gate", "reason", "detail"), _parse_text),
}


def build_record(c: FormCandidate, verdict: Verdict, elapsed_ms: float | None = None) -> dict:
    record = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "candidate": {
            "k": _past_digit_limit(str, c.k),
            "n": _past_digit_limit(str, c.n),
            "p": _past_digit_limit(str, c.p),
        },
        "algorithm": verdict.algorithm,
        "verdict": verdict.status,
        "iterations": verdict.iterations,
        "certificate": _stringify(verdict.certificate),
    }
    if elapsed_ms is not None:
        record["elapsed_ms"] = elapsed_ms
    return record


def record_to_inputs(record: dict) -> tuple[FormCandidate, Verdict]:
    """Rebuild the candidate and verdict held in a JSON run record.

    Raises ValueError on a record of another schema, a certificate key
    outside CERTIFICATE_FIELDS, an integer that is not a canonical decimal
    string, or an iterations count that is not a JSON integer >= 1.
    """
    if not isinstance(record, dict) or record.get("schema") != SCHEMA:
        raise ValueError(f"not an {SCHEMA} record")
    cand = record["candidate"]
    c = FormCandidate(k=_parse_int(cand["k"]), n=_parse_int(cand["n"]))
    if c.p != _parse_int(cand["p"]):
        raise ValueError("record p does not match 2^k * n - 1")
    fields = record["certificate"]
    if not isinstance(fields, dict):
        raise ValueError("certificate must be a JSON object")
    cert = {}
    for key, value in fields.items():
        if key not in CERTIFICATE_FIELDS:
            raise ValueError(f"unknown certificate field {key!r}")
        cert[key] = CERTIFICATE_FIELDS[key](value)
    iterations = record["iterations"]
    if type(iterations) is not int or iterations < 1:
        raise ValueError(f"iterations must be a JSON integer >= 1: {iterations!r}")
    verdict = Verdict(
        status=record["verdict"],
        algorithm=record["algorithm"],
        certificate=cert,
        iterations=iterations,
    )
    return c, verdict


def _emit_json(record: dict, out) -> None:
    out.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def _emit(record: dict, as_json: bool, out) -> None:
    """Write one run record: a JSON line, or the human-readable line."""
    if as_json:
        _emit_json(record, out)
    else:
        _emit_human(record, out)


def _emit_human(record: dict, out) -> None:
    cand = record["candidate"]
    out.write(
        f"k={cand['k']} n={cand['n']} p={cand['p']}: "
        f"{record['verdict']} [{record['algorithm']}]"
    )
    cert = record["certificate"]
    if cert.get("divisor"):
        out.write(f" divisor={cert['divisor']}")
    if cert.get("type") == "oracle" and record["verdict"] == COMPOSITE:
        out.write(f" divisor={cert['least_factor']}")
    if "elapsed_ms" in record:
        out.write(f" ({record['elapsed_ms']:.2f} ms)")
    out.write("\n")


def _config_from_args(args) -> SearchConfig:
    bound = args.oracle_bound
    if bound is None:
        bound = int(os.environ.get(ORACLE_BOUND_ENV, DEFAULT_CONFIG.oracle_bound))
    return SearchConfig(
        seed=args.seed,
        retry_cap=args.retries,
        oracle_bound=bound,
    )


def _run_one(c: FormCandidate, cfg: SearchConfig, want_timing: bool) -> dict:
    start = time.perf_counter()
    verdict = auto_test(c, cfg)
    elapsed = (time.perf_counter() - start) * 1000.0
    return build_record(c, verdict, elapsed if want_timing else None)


def _cmd_test(args, out, err) -> int:
    if args.replay is not None:
        return _cmd_replay(args, out, err)
    if args.k is None or args.n is None:
        err.write("test: k and n are required unless --replay is given\n")
        return 3
    if (args.q1 is None) != (args.q2 is None):
        err.write("test: --q1 and --q2 must be given together\n")
        return 3
    factors = (args.q1, args.q2) if args.q1 is not None else None
    try:
        c = FormCandidate(k=args.k, n=args.n, n_factors=factors)
        cfg = _config_from_args(args)
        record = _run_one(c, cfg, want_timing=args.timings or not args.json)
    except ValueError as exc:
        err.write(f"test: {exc}\n")
        return 3
    _emit(record, args.json, out)
    return EXIT_BY_VERDICT[record["verdict"]]


def _cmd_replay(args, out, err) -> int:
    source = args.replay
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) != 1:
            raise ValueError(f"expected one record line, found {len(lines)}")
        c, verdict = record_to_inputs(json.loads(lines[0]))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the decoder can follow
        err.write(f"replay: malformed record: {exc}\n")
        return 3
    ok = replay_verdict(c, verdict)
    out.write(f"replay: {'valid' if ok else 'INVALID'} "
              f"({verdict.status} via {verdict.algorithm} for p={_stringify(c.p)})\n")
    return 0 if ok else 1


def _cmd_mersenne(args, out, err) -> int:
    if not 3 <= args.k_min <= args.k_max:
        err.write("mersenne: need 3 <= k_min <= k_max\n")
        return 3
    mismatches = 0
    for k in range(args.k_min, args.k_max + 1):
        c = FormCandidate(k=k, n=1)
        start = time.perf_counter()
        verdict = test_mersenne(k)
        elapsed = (time.perf_counter() - start) * 1000.0
        record = build_record(c, verdict, elapsed if (args.timings or not args.json) else None)
        if args.compare_lucas_lehmer:
            classical = PRIME if lucas_lehmer(k) else COMPOSITE
            record["lucas_lehmer"] = classical
            record["match"] = classical == verdict.status
            mismatches += 0 if record["match"] else 1
        _emit(record, args.json, out)
    if mismatches:
        err.write(f"mersenne: {mismatches} disagreement(s) with the classical test\n")
        return 1
    return 0


def _search_candidate(n: int, k: int, cfg: SearchConfig) -> dict:
    return _run_one(FormCandidate(k=k, n=n), cfg, want_timing=False)


def _sieve_record(n: int, k: int, divisor: int) -> dict:
    cert = {"type": "factor", "divisor": divisor, "stage": "sieve"}
    return build_record(FormCandidate(k=k, n=n), Verdict(COMPOSITE, "sieve", cert))


def _cmd_search(args, out, err) -> int:
    if args.k < 2 or args.n_min < 1 or args.n_min > args.n_max or args.workers < 1:
        err.write("search: need k >= 2, 1 <= n-min <= n-max and workers >= 1\n")
        return 3
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        err.write(f"search: {exc}\n")
        return 3
    ns = range(args.n_min | 1, args.n_max + 1, 2)
    # A small prime factor settles n here; only the rest reach the curve routes.
    sieved = presieve(args.k, ns)
    unsieved = [n for n in ns if n not in sieved]
    counts = {PRIME: 0, COMPOSITE: 0, INCONCLUSIVE: 0, NOT_APPLICABLE: 0}
    worker = partial(_search_candidate, k=args.k, cfg=cfg)

    def emit_all(tested) -> None:
        # map() preserves input order, so emission stays ascending in n
        for n in ns:
            record = _sieve_record(n, args.k, sieved[n]) if n in sieved else next(tested)
            counts[record["verdict"]] += 1
            _emit(record, args.json, out)

    # a fork-started pool starts all its workers at the first submit, so
    # never ask for more than there are candidates or CPUs
    workers = min(args.workers, len(unsieved), os.cpu_count() or 1)
    if workers <= 1:
        emit_all(map(worker, unsieved))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            emit_all(pool.map(worker, unsieved, chunksize=16))
    summary = {"summary": {v: counts[v] for v in sorted(counts)}}
    if args.json:
        _emit_json(summary, out)
    else:
        out.write(
            "summary: "
            + " ".join(f"{v}={counts[v]}" for v in sorted(counts))
            + "\n"
        )
    return 0


def _cmd_verify(args, out, err) -> int:
    if args.p_max < 3:
        err.write("verify: --p-max must be at least 3\n")
        return 3
    try:
        report = verify_theorems(args.p_max, seed=args.seed or 0)
    except ValueError as exc:
        err.write(f"verify: {exc}\n")
        return 3
    out.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    return 0 if not report["violations"] else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main call.

    It holds no per-call state: every default is a constant, the
    environment is read in _config_from_args, and parse_args returns a
    fresh Namespace.
    """
    parser = argparse.ArgumentParser(
        prog="ecriesel",
        description="Elliptic-curve primality tests for integers 2^k * n - 1",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--retries", type=int, default=DEFAULT_CONFIG.retry_cap,
                        help="retry cap for the large-n point searches")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed for randomized scans (default: deterministic)")
        sp.add_argument("--oracle-bound", type=int, default=None,
                        help=f"trial-division fallback bound (env {ORACLE_BOUND_ENV})")
        sp.add_argument("--json", action="store_true", help="emit JSON lines")
        sp.add_argument("--timings", action="store_true",
                        help="include elapsed_ms in JSON output (breaks byte-level determinism)")

    t = sub.add_parser("test", help="test one candidate 2^k * n - 1")
    t.add_argument("k", type=int, nargs="?")
    t.add_argument("n", type=int, nargs="?")
    t.add_argument("--q1", type=int, default=None, help="first prime factor of n, if known")
    t.add_argument("--q2", type=int, default=None, help="second prime factor of n, if known")
    t.add_argument("--replay", metavar="RECORD", default=None,
                   help="re-validate a run record (path or - for stdin) instead of testing")
    common(t)
    t.set_defaults(func=_cmd_test)

    m = sub.add_parser("mersenne", help="scan Mersenne exponents k_min..k_max")
    m.add_argument("k_min", type=int)
    m.add_argument("k_max", type=int)
    m.add_argument("--compare-lucas-lehmer", action="store_true",
                   help="also run the classical test and record agreement")
    common(m)
    m.set_defaults(func=_cmd_mersenne)

    s = sub.add_parser("search", help="test every odd n in a range for fixed k")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--n-min", type=int, default=1)
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--workers", type=int, default=1)
    common(s)
    s.set_defaults(func=_cmd_search)

    v = sub.add_parser("verify", help="brute-force check of the group-structure facts")
    v.add_argument("--p-max", type=int, default=500)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    """Run one command; all output, argparse's usage errors and --version
    included, goes to out and err (default: the process's streams)."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return 3 if exc.code not in (0, None) else 0
    return args.func(args, out, err)


if __name__ == "__main__":
    raise SystemExit(main())
