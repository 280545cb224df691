"""Command-line surface: single tests, Mersenne scans, range searches,
group-structure verification, and certificate replay.

Machine output is JSON lines, one self-contained object per record, with
every certificate integer and the candidate's n and p rendered as decimal
strings (they outgrow every fixed-width consumer).  Records are
deterministic byte for byte; wall-clock timing is therefore only emitted
by test and mersenne, on request (--timings) or in human-readable mode.

The schema is ecriesel.run-record/5.  Certificates hold no m (replay
finds it by a few Jacobi symbols) and no point: small-n starts from
x = -1, and large-n from x = -a, a its record's iterations.  Replay reads
no other schema, and names a run-record/2, /3 or /4 record as no longer
read.

Each JSON line is written field by field in sorted-key order
(_record_line); only a certificate goes through the JSON encoder, which is
built once.  A presieved search candidate's line is written from k, n and
its divisor alone.  build_record gives the same record as a dict, the
reference the tests compare every line against (no command calls it;
perfbench/tracing.py wraps it by name); the human-readable line is written
from the Verdict itself.

main parses each call once, and a call that repeats the previous call's
argv not at all: _parse keeps the last successful parse, and each call
gets its own copy of its Namespace.  A parse that exits (a usage error,
--help, --version) is never kept, so its output is written on every call.
When argv[0] names a command, that command's own parser, taken from the
one cached build, reads the rest of argv, and reports an unrecognized
argument as `ecriesel test: error: ...`.  Only a call with words left over
is parsed again, intermixed, so that positionals after an option
(`test 7 --json 3`) still land.  The top-level parser reads only an empty
argv, -h, --version and an unknown command.

Exit codes for `test`: 0 prime, 1 composite, 2 inconclusive,
3 not-applicable or usage error.  Batch commands exit 0 on completion,
1 on an internal mismatch or violation, 3 on usage errors.  Every command
exits 141 (128 + SIGPIPE, as a shell reports a filter killed by a closed
pipe) when the reader of stdout goes away, and writes nothing to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, lru_cache, partial

from . import __version__
from .numtheory import FormCandidate, lucas_lehmer, presieve
from .oracle import verify_theorems
from .primality import (
    COMPOSITE,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    PRIME,
    Verdict,
    auto_test,
    factor_witness,
    replay_verdict,
    sieve_verdict,
    test_mersenne,
)

SCHEMA = "ecriesel.run-record/5"

EXIT_BY_VERDICT = {PRIME: 0, COMPOSITE: 1, INCONCLUSIVE: 2, NOT_APPLICABLE: 3}

# No longer read: the exact oracle has no bound to set.  perfbench/run.py
# still clears it by this name.
ORACLE_BOUND_ENV = "ECRIESEL_ORACLE_BOUND"

EXIT_CLOSED_PIPE = 141

# One encoder for every JSON line, bound at import: json.dumps builds a new
# encoder per call, and no json attribute is looked up per record.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


def _int_argument(text: str) -> int:
    """A command-line integer, also past Python's int<->str digit limit."""
    return _past_digit_limit(int, text)


# argparse names the type in its error: "invalid int value: 'x'"
_int_argument.__name__ = "int"


def _decimal(value: int) -> str:
    return _past_digit_limit(str, value)


def _stringify(value):
    """Render every int inside a certificate as a decimal string."""
    if isinstance(value, int):
        return _decimal(value)
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
    **dict.fromkeys(("step", "divisor", "least_factor", "witness", "attempts"), _parse_int),
    "factors": _parse_int_list,
    **dict.fromkeys(("type", "outcome", "stage", "gate", "reason"), _parse_text),
}


# No command calls it: the tests' reference, and perfbench/tracing.py wraps it.
def build_record(c: FormCandidate, verdict: Verdict, elapsed_ms: float | None = None) -> dict:
    record = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "candidate": {"k": _decimal(c.k), "n": _decimal(c.n), "p": _decimal(c.p)},
        "algorithm": verdict.algorithm,
        "verdict": verdict.status,
        "iterations": verdict.iterations,
        "certificate": _stringify(verdict.certificate),
    }
    if elapsed_ms is not None:
        record["elapsed_ms"] = elapsed_ms
    return record


def _read(field: str, parse, value):
    """parse(value), with the record field's name in the error it raises."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def record_to_inputs(record: dict) -> tuple[FormCandidate, Verdict]:
    """Rebuild the candidate and verdict held in a JSON run record.

    Raises ValueError on a record of another schema (a run-record/2, /3 or
    /4 record is named as no longer read), a missing top-level key, a verdict,
    algorithm or tool_version that is not a string, a candidate that is not
    an object with exactly the keys k, n and p, a certificate key outside
    CERTIFICATE_FIELDS, an integer that is not a canonical decimal string, a
    k above the bit length of the record's p, or an iterations count that
    is not a JSON integer >= 1.  A malformed field is named in the message.
    """
    schema = record.get("schema") if isinstance(record, dict) else None
    if schema in ("ecriesel.run-record/2", "ecriesel.run-record/3", "ecriesel.run-record/4"):
        raise ValueError(f"schema: {schema} is no longer read; decide the candidate again")
    if schema != SCHEMA:
        raise ValueError(f"not an {SCHEMA} record")
    for key in ("tool_version", "candidate", "certificate", "iterations", "verdict", "algorithm"):
        if key not in record:
            raise ValueError(f"{key}: missing")
    _read("tool_version", _parse_text, record["tool_version"])
    cand = record["candidate"]
    if not isinstance(cand, dict):
        raise ValueError("candidate: not a JSON object")
    if cand.keys() != set("knp"):
        key = min(cand.keys() ^ set("knp"))
        raise ValueError(f"candidate.{key}: missing" if key not in cand
                         else f"unknown candidate field {key!r}")
    k, n, p = (_read(f"candidate.{key}", _parse_int, cand[key]) for key in "knp")
    # p = 2^k * n - 1 has at least k bits, so this bounds the cost of forming c.p
    if k > p.bit_length():
        raise ValueError("record k exceeds the bit length of its p")
    c = FormCandidate(k=k, n=n)
    if c.p != p:
        raise ValueError("record p does not match 2^k * n - 1")
    fields = record["certificate"]
    if not isinstance(fields, dict):
        raise ValueError("certificate must be a JSON object")
    cert = {}
    for key, value in fields.items():
        if key not in CERTIFICATE_FIELDS:
            raise ValueError(f"unknown certificate field {key!r}")
        cert[key] = _read(f"certificate.{key}", CERTIFICATE_FIELDS[key], value)
    iterations = record["iterations"]
    if type(iterations) is not int or iterations < 1:
        raise ValueError(f"iterations must be a JSON integer >= 1: {iterations!r}")
    verdict = Verdict(
        status=_read("verdict", _parse_text, record["verdict"]),
        algorithm=_read("algorithm", _parse_text, record["algorithm"]),
        certificate=cert,
        iterations=iterations,
    )
    return c, verdict


_RECORD_TAIL = f'"schema":"{SCHEMA}","tool_version":"{__version__}","verdict":'


def _record_line(k: str, n: str, p: str, algorithm: str, status: str, iterations: int,
                 certificate: str, elapsed_ms: float | None = None,
                 lucas_lehmer: str | None = None) -> str:
    """The JSON line of one run record, the only writer of record lines.

    Byte for byte json.dumps(record, sort_keys=True, separators=(",", ":"))
    plus a newline, where record is build_record's dict, with lucas_lehmer
    and match added when the classical verdict is given.  k, n and p are
    decimal strings and certificate is the certificate's JSON; algorithm,
    status and lucas_lehmer are the package's own names, which JSON writes
    unescaped.
    """
    line = (f'{{"algorithm":"{algorithm}","candidate":{{"k":"{k}","n":"{n}","p":"{p}"}},'
            f'"certificate":{certificate},')
    if elapsed_ms is not None:
        line += f'"elapsed_ms":{elapsed_ms!r},'
    line += f'"iterations":{iterations},'
    if lucas_lehmer is not None:
        match = "true" if lucas_lehmer == status else "false"
        line += f'"lucas_lehmer":"{lucas_lehmer}","match":{match},'
    return f'{line}{_RECORD_TAIL}"{status}"}}\n'


def _emit(out, as_json: bool, c: FormCandidate, verdict: Verdict,
          elapsed_ms: float | None = None, lucas_lehmer: str | None = None) -> None:
    """Write one run record: its JSON line, or the human-readable line."""
    if as_json:
        out.write(_record_line(_decimal(c.k), _decimal(c.n), _decimal(c.p), verdict.algorithm,
                               verdict.status, verdict.iterations,
                               _ENCODE(_stringify(verdict.certificate)), elapsed_ms,
                               lucas_lehmer))
        return
    witness = factor_witness(verdict)
    out.write(f"k={_decimal(c.k)} n={_decimal(c.n)} p={_decimal(c.p)}: "
              f"{verdict.status} [{verdict.algorithm}]"
              + (f" divisor={_decimal(witness)}" if witness is not None else "")
              + (f" ({elapsed_ms:.2f} ms)" if elapsed_ms is not None else "") + "\n")


def _timed(decide, *args) -> tuple[Verdict, float]:
    """decide(*args) and its wall time in milliseconds."""
    start = time.perf_counter()
    verdict = decide(*args)
    return verdict, (time.perf_counter() - start) * 1000.0


def _cmd_test(args, out, err) -> int:
    if args.replay is not None:
        if args.k is not None or args.n is not None or args.q or args.json or args.timings:
            err.write("test: --replay reads the candidate from its record and takes "
                      "no k, n, --q, --json or --timings\n")
            return 3
        return _cmd_replay(args, out, err)
    if args.k is None or args.n is None:
        err.write("test: k and n are required unless --replay is given\n")
        return 3
    try:
        c = FormCandidate(k=args.k, n=args.n, n_factors=tuple(args.q) if args.q else None)
    except ValueError as exc:
        err.write(f"test: {exc}\n")
        return 3
    verdict, elapsed = _timed(auto_test, c)
    _emit(out, args.json, c, verdict, elapsed if args.timings or not args.json else None)
    return EXIT_BY_VERDICT[verdict.status]


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
              f"({verdict.status} via {verdict.algorithm} for p={_decimal(c.p)})\n")
    return 0 if ok else 1


def _cmd_mersenne(args, out, err) -> int:
    if not 3 <= args.k_min <= args.k_max:
        err.write("mersenne: need 3 <= k_min <= k_max\n")
        return 3
    mismatches = 0
    for k in range(args.k_min, args.k_max + 1):
        verdict, elapsed = _timed(test_mersenne, k)
        classical = None
        if args.compare_lucas_lehmer:
            classical = PRIME if lucas_lehmer(k) else COMPOSITE
            mismatches += classical != verdict.status
        _emit(out, args.json, FormCandidate(k=k, n=1), verdict,
              elapsed if args.timings or not args.json else None, classical)
    if mismatches:
        err.write(f"mersenne: {mismatches} disagreement(s) with the classical test\n")
        return 1
    return 0


def _search_candidate(n: int, k: int) -> Verdict:
    return auto_test(FormCandidate(k=k, n=n))


def _sieve_line(k_text: str, k: int, n: int, divisor: int) -> str:
    """The JSON line of n's sieve_verdict, written from k, n and the divisor alone."""
    return _record_line(k_text, _decimal(n), _decimal((n << k) - 1), "sieve", COMPOSITE, 1,
                        f'{{"divisor":"{_decimal(divisor)}","stage":"sieve","type":"factor"}}')


def _cmd_search(args, out, err) -> int:
    if args.k < 2 or args.n_min < 1 or args.n_min > args.n_max or args.workers < 1:
        err.write("search: need k >= 2, 1 <= n-min <= n-max and workers >= 1\n")
        return 3
    ns = range(args.n_min | 1, args.n_max + 1, 2)
    # A small prime factor settles n here; only the rest reach the curve routes.
    sieved = presieve(args.k, ns)
    unsieved = [n for n in ns if n not in sieved]
    counts = {PRIME: 0, COMPOSITE: 0, INCONCLUSIVE: 0, NOT_APPLICABLE: 0}
    worker = partial(_search_candidate, k=args.k)
    k_text = _decimal(args.k)

    def emit_all(tested) -> None:
        # map() preserves input order, so emission stays ascending in n
        for n in ns:
            divisor = sieved.get(n)
            if divisor is not None and args.json:
                out.write(_sieve_line(k_text, args.k, n, divisor))
                counts[COMPOSITE] += 1
                continue
            verdict = next(tested) if divisor is None else sieve_verdict(divisor)
            counts[verdict.status] += 1
            _emit(out, args.json, FormCandidate(k=args.k, n=n), verdict)

    # a fork-started pool starts all its workers at the first submit, so
    # never ask for more than there are candidates or CPUs
    workers = min(args.workers, len(unsieved), os.cpu_count() or 1)
    if workers <= 1:
        emit_all(map(worker, unsieved))
    else:
        # imported here: only a pooled search pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                emit_all(pool.map(worker, unsieved, chunksize=16))
            except BaseException:
                # a closed stdout or an interrupt: drop the chunks not yet started
                pool.shutdown(cancel_futures=True)
                raise
    if args.json:
        out.write(_ENCODE({"summary": counts}) + "\n")
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
        report = verify_theorems(args.p_max)
    except ValueError as exc:
        err.write(f"verify: {exc}\n")
        return 3
    out.write(_ENCODE(report) + "\n")
    return 0 if not report["violations"] else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main call.

    It holds no per-call state: every default is a constant, no option
    reads the environment, and parse_args returns a fresh Namespace.
    """
    parser = argparse.ArgumentParser(
        prog="ecriesel",
        description="Elliptic-curve primality tests for integers 2^k * n - 1",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def output_options(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON lines")
        sp.add_argument("--timings", action="store_true",
                        help="include elapsed_ms in JSON output (breaks byte-level determinism)")

    t = sub.add_parser("test", help="test one candidate 2^k * n - 1")
    t.add_argument("k", type=_int_argument, nargs="?")
    t.add_argument("n", type=_int_argument, nargs="?")
    t.add_argument("--q", "--q1", "--q2", dest="q", type=_int_argument, action="append",
                   help="a prime factor of n, once per factor in any order, if known "
                        "(--q1 and --q2 are other spellings)")
    t.add_argument("--replay", metavar="RECORD", default=None,
                   help="re-validate a run record (path or - for stdin) instead of testing; "
                        "takes no other argument")
    output_options(t)
    t.set_defaults(func=_cmd_test)

    m = sub.add_parser("mersenne", help="scan Mersenne exponents k_min..k_max")
    m.add_argument("k_min", type=_int_argument)
    m.add_argument("k_max", type=_int_argument)
    m.add_argument("--compare-lucas-lehmer", action="store_true",
                   help="also run the classical test and record agreement")
    output_options(m)
    m.set_defaults(func=_cmd_mersenne)

    s = sub.add_parser("search", help="test every odd n in a range for fixed k")
    s.add_argument("--k", type=_int_argument, required=True)
    s.add_argument("--n-min", type=_int_argument, default=1)
    s.add_argument("--n-max", type=_int_argument, required=True)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--json", action="store_true", help="emit JSON lines")
    s.set_defaults(func=_cmd_search)

    v = sub.add_parser("verify", help="brute-force check of the group-structure facts")
    v.add_argument("--p-max", type=int, default=500)
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    """Run one command; all output, argparse's usage errors and --version
    included, goes to out and err (default: the process's streams)."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        status = _run(argv, out, err)
        out.flush()
    except BrokenPipeError:
        # The reader of out went away (`... | head`): stop quietly.  Point the
        # process's stdout at os.devnull, so the interpreter's final flush of
        # what is still buffered cannot raise again.
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return EXIT_CLOSED_PIPE
    return status


@cache
def _command_parsers() -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser by name, taken from the one _build_parser build."""
    return next(action.choices for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


@lru_cache(maxsize=1)
def _parse(argv: tuple) -> argparse.Namespace:
    """The Namespace of argv, kept for a call that repeats the last argv.

    A named command is parsed by its own parser alone: the top-level parser
    would only hand the same words on to it, a second parse per call.  A
    parse that raises SystemExit (a usage error, --help, --version) is not
    kept, so its output is written again on every call.
    """
    command = _command_parsers().get(argv[0]) if argv else None
    if command is None:
        return _build_parser().parse_args(argv)
    args, rest = command.parse_known_args(argv[1:])
    return command.parse_intermixed_args(argv[1:]) if rest else args


def _run(argv, out, err) -> int:
    argv = tuple(sys.argv[1:] if argv is None else argv)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            kept = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return 3 if exc.code not in (0, None) else 0
    # A fresh Namespace, and fresh lists (--q), so that no call sees what an
    # earlier one did to its arguments.
    args = argparse.Namespace()
    vars(args).update({key: list(value) if isinstance(value, list) else value
                       for key, value in vars(kept).items()})
    return args.func(args, out, err)


if __name__ == "__main__":
    raise SystemExit(main())
