"""The mixed corner of the order criterion, s = 2^k F with F a proven part of n.

Between the small-n gate (s = 2^k) and the large-n gate (s = n) lie the
p with n near 2^k.  There the chain from x(n Q) proves the 2-part of s,
and each distinct q | F needs (n/q) D finite, D = 2^k Q; F is the
factors given with --q, else n's prime factors below 2^16, with n's
cofactor when those alone fail the gate and it is a probable prime.  A
mixed record is algorithm small-n with the factors in its certificate
and iterations the start index.  The gap windows from n = 2^k + 1 are
checked against sympy here, and at k = 64 in test_witness.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from ecriesel import cli, primality
from ecriesel.numtheory import PSI_13, FormCandidate, gate_large_n, gate_small_n
from ecriesel.primality import (
    COMPOSITE,
    NOT_APPLICABLE,
    PRIME,
    Verdict,
    _corner,
    _curve_route,
    _evaluate,
    auto_test,
    replay_verdict,
)

sympy = pytest.importorskip("sympy")

DISPATCH = primality._DISPATCH
PSI_12 = 318665857834031151167461
# n = 609403 * 461886431 and p = 2^48 n - 1 is prime: neither prime of n
# lies below 2^16, so the mixed corner needs them given
SPLIT = FormCandidate(k=48, n=609403 * 461886431, n_factors=(609403, 461886431))
ORDER_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "order_pool.json"


def replay(record: str) -> tuple[int, str]:
    """(exit code, stdout) of `test --replay -` on one record line."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(record)
    try:
        return cli.main(["test", "--replay", "-"], out=out, err=io.StringIO()), out.getvalue()
    finally:
        sys.stdin = stdin


def decide_record(*argv: str) -> tuple[int, str]:
    """(exit code, JSON line) of `test argv --json`."""
    out = io.StringIO()
    return cli.main(["test", *argv, "--json"], out=out, err=io.StringIO()), out.getvalue()


# the three primes left, n - 2^k: each n has no prime factor below 2^16
# and is no prime itself
@pytest.mark.parametrize("k, count, primes, left", [
    (48, 2000, 57, [37]),
    (80, 2000, 32, [1351, 2671]),
    (128, 1000, 10, []),
])
def test_gap_window_against_sympy(k, count, primes, left):
    # neither corner gate holds and p > psi_13: every composite is
    # decided, and the mixed corner proves every prime but those left
    seen, undecided = 0, []
    for i in range(count):
        c = FormCandidate(k=k, n=(1 << k) + 1 + 2 * i)
        assert c.p >= PSI_13 and not gate_small_n(c) and not gate_large_n(c)
        v = auto_test(c)
        assert replay_verdict(c, v), c.n
        if not sympy.isprime(c.p):
            assert v.status == COMPOSITE, c.n
            continue
        seen += 1
        if v.status == NOT_APPLICABLE:
            assert v == DISPATCH and min(sympy.factorint(c.n)) > 1 << 16
            undecided.append(c.n - (1 << k))
        else:
            assert (v.status, v.algorithm, v.certificate["outcome"]) == (
                PRIME, "small-n", "final-zero"), c.n
            assert v.certificate["factors"] and v.iterations <= 9
    assert (seen, undecided) == (primes, left)


def test_sweep_of_the_evaluator_against_sympy(routes_decide_composites):
    # 2 <= k < 40 and odd n < 4000 where neither corner gate holds, with the
    # presieve and the witness test out of the way, so that composites
    # reach the mixed corner.  M_2 and M_3 meet no corner; the other 1088
    # run the evaluator, no composite is called prime, and all 186 primes
    # are proven
    counts = {"candidates": 0, "primes": 0, "no corner": 0}
    for k in range(2, 40):
        for n in range(1, 4000, 2):
            c = FormCandidate(k=k, n=n)
            if gate_small_n(c) or gate_large_n(c):
                continue
            corner = _corner(c)
            if corner is None:
                counts["no corner"] += 1
                assert n == 1
                continue
            factors, chain = corner
            assert chain and factors
            v = _curve_route(c, factors, chain)
            prime = sympy.isprime(c.p)
            assert v.status == (PRIME if prime else COMPOSITE), c
            assert replay_verdict(c, v), c
            counts["candidates"] += 1
            counts["primes"] += prime
    assert counts == {"candidates": 1088, "primes": 186, "no corner": 2}


def test_split_n_needs_its_factors():
    # with n's primes given, s = 2^k n = p + 1; without them, dispatch
    # gives up, and both records replay valid
    v = auto_test(SPLIT)
    assert v == Verdict(PRIME, "small-n", {
        "outcome": "final-zero", "factors": [609403, 461886431]})
    assert replay_verdict(SPLIT, v)
    bare = FormCandidate(SPLIT.k, SPLIT.n)
    assert auto_test(bare) == DISPATCH and replay_verdict(bare, DISPATCH)
    # one prime alone is a smaller F whose s still passes the gate: a valid
    # proof, though auto_test never writes it
    assert replay_verdict(bare, v._replace(certificate={**v.certificate, "factors": [609403]}))


def mixed(kn, factors, iterations=1, outcome="final-zero", status=PRIME):
    return FormCandidate(*kn), Verdict(status, "small-n", {
        "outcome": outcome, "factors": factors}, iterations)


def test_forged_mixed_records():
    # the records auto_test writes replay valid, and each forgery INVALID
    valid = [
        mixed((2, 10395), [3, 3, 3, 5, 7, 11], 4),
        mixed(SPLIT, [609403, 461886431]),
        mixed((2, 19383245667680019896796855), [3, 5, 24799, 52107600219578799943], 3),
    ]
    for c, v in valid:
        assert auto_test(c) == v and replay_verdict(c, v), c
    forged = [
        # a factor that does not divide n
        mixed((48, SPLIT.n), [609405, 461886431]),
        mixed((2, 10395), [3, 3, 3, 5, 7, 13], 4),
        # a composite "prime" factor: 9, and psi_12, on whose s the
        # evaluator itself would prove p = 2^11 psi_12 - 1 prime
        mixed((2, 10395), [9, 3, 5, 7, 11], 4),
        mixed((11, PSI_12), [PSI_12]),
        # factors dropped until s fails the gate
        mixed((2, 10395), [3], 4),
        mixed((2, 19383245667680019896796855), [3, 5, 24799], 3),
        # an extra copy of a factor
        mixed((2, 10395), [3, 3, 3, 5, 7, 11, 11], 4),
        mixed((48, SPLIT.n), [609403, 609403, 461886431]),
        # iterations naming a start that declines
        *(mixed((2, 10395), [3, 3, 3, 5, 7, 11], a) for a in (1, 2, 3)),
        *(mixed((2, 19383245667680019896796855), [3, 5, 24799, 52107600219578799943], a)
          for a in (1, 2)),
        # a chain outcome the chain does not give
        mixed((48, SPLIT.n), [609403, 461886431], outcome="final-nonzero", status=COMPOSITE),
    ]
    c, v = forged[3]
    assert _evaluate(c, 1, [PSI_12], True) == v and sympy.isprime(c.p)
    for c, v in forged:
        assert not replay_verdict(c, v), (c, v)


def test_every_test_record_replays():
    # with and without --q, prime, composite, given up: exit 0 on replay
    calls = [
        ("48", str(SPLIT.n)),
        ("48", str(SPLIT.n), "--q", "609403", "--q", "461886431"),
        ("48", str(SPLIT.n), "--q", str(SPLIT.n)),
        ("64", "18446744073709551777"),
        ("64", "18446744073709551777", "--q", "18446744073709551777"),
        ("2", "10395"),
        ("2", "10395", "--q", "3", "--q", "3", "--q", "3", "--q", "5", "--q", "7", "--q", "11"),
        ("2", "473"),
        ("2", "473", "--q", "11", "--q", "43"),
        ("5", "9246231190095"),
        ("11", str(PSI_12)),
    ]
    for argv in calls:
        code, line = decide_record(*argv)
        assert code in (0, 1, 3), argv
        code, out = replay(line)
        assert code == 0 and out.startswith("replay: valid"), argv


def test_dispatch_records_the_factors_given():
    # a composite --q: no corner applies, and the give-up names the
    # factors given, which replay checks as deciding does
    code, line = decide_record("64", "18446744073709551777", "--q", "18446744073709551777")
    record = json.loads(line)
    assert code == 3 and record["certificate"]["factors"] == ["18446744073709551777"]
    assert replay(line)[0] == 0
    # without the factors the record stands for no --q, where the mixed
    # corner takes n's primes 3 and 7309 below 2^16
    del record["certificate"]["factors"]
    assert replay(json.dumps(record))[0] == 1
    assert decide_record("64", "18446744073709551777")[0] == 0


def test_give_up_is_invalid_where_a_corner_applies():
    # the order pool's prime p = 2^512 q - 1 is large-n's: a forged
    # not-applicable replays INVALID, as auto_test decides it
    q = json.loads(ORDER_POOL.read_text(encoding="utf-8"))["candidates"][0]["q"]
    code, line = decide_record("512", q)
    assert code == 0 and '"algorithm":"large-n"' in line
    record = json.loads(line)
    record.update(algorithm="auto", verdict="not-applicable", iterations=1,
                  certificate=cli._stringify(DISPATCH.certificate))
    assert replay(json.dumps(record))[0] == 1
    # and so on a mixed prime, where only the mixed corner applies
    assert not replay_verdict(FormCandidate(2, 10395), DISPATCH)
    assert not replay_verdict(FormCandidate(2, 19383245667680019896796855), DISPATCH)
