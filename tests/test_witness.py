"""The presieve and one strong test to base 3 before any curve walk.

auto_test runs the one-candidate presieve, then one strong test of p to
WITNESS_BASE = 3, then the curve routes, then the fallback.  A witness
ends p composite with the oracle's certificate {"type": "oracle",
"witness": 3}; replay checks it with one presieve and the same strong
test, and walks nothing.  On p = c * 2^k - 1 of a fold shape
(numtheory.fold_shape: M_k with k >= 100, or 768 bits or more with
bits(c) <= k + 16) that test is one pow(3, c, p) and k - 1 folded
squarings, elsewhere one modular power.  Base-3 strong pseudoprimes still
reach the routes' composite outcomes, found by a search over p = 3
(mod 4) below 2 * 10^7.
"""

import io

import pytest

from ecriesel import cli, ecring, numtheory, primality
from ecriesel.numtheory import PSI_13, FormCandidate, miller_rabin, sieve_primes
from ecriesel.primality import (
    COMPOSITE,
    PRIME,
    Verdict,
    _curve_route,
    _evaluate,
    auto_test,
    decide_unsieved,
    replay_verdict,
    sieve_verdict,
)
from ecriesel.primality import test_mersenne as mersenne_test

WITNESS = Verdict(COMPOSITE, "miller-rabin", {"type": "oracle", "witness": 3})
PRIME_EXPONENTS = set(sieve_primes(400))


def order(outcome):
    """A large-n order certificate for prime n, which goes unwritten."""
    return {"type": "order", "outcome": outcome}


# (k, n, n's factors or None, the verdict auto_test writes): base-3 strong
# pseudoprimes p = 2^k n - 1 that pass the presieve, one per outcome that
# such a p is known to reach
PSEUDOPRIMES = [
    # small-n, final-nonzero: 703 = 19 * 37 and 2795519 = 683 * 4093
    (6, 11, None, Verdict(COMPOSITE, "small-n", {"type": "sequence", "outcome": "final-nonzero"})),
    (11, 1365, None, Verdict(COMPOSITE, "small-n",
                             {"type": "sequence", "outcome": "final-nonzero"})),
    # large-n, final-nonzero: 16531 = 61 * 271 and 97567 = 43 * 2269
    (2, 4133, None, Verdict(COMPOSITE, "large-n", order("final-nonzero"))),
    (5, 3049, None, Verdict(COMPOSITE, "large-n", order("final-nonzero"))),
    # large-n, the walk of D meets 31: 1772611 = 31 * 211 * 271, and
    # 1891 = 31 * 61 with n = 11 * 43 given
    (2, 443153, None, Verdict(COMPOSITE, "large-n", {
        "type": "factor", "divisor": 31})),
    (2, 473, (11, 43), Verdict(COMPOSITE, "large-n", {
        "type": "factor", "divisor": 31})),
    # the mixed corner, final-nonzero: 1891 with n = 11 * 43 and
    # 12403 = 79 * 157 with n = 7 * 443, found by trial division of n
    (2, 473, None, Verdict(COMPOSITE, "small-n", {
        "type": "sequence", "outcome": "final-nonzero", "factors": [11, 43]})),
    (2, 3101, None, Verdict(COMPOSITE, "small-n", {
        "type": "sequence", "outcome": "final-nonzero", "factors": [7, 443]})),
    # no corner: 3851 * 76831835389 = 2^5 * 9246231190095 - 1, whose n has
    # a composite part above 2^16, by the oracle's Miller-Rabin, whose least
    # witness is 2.  No p <= 10^4 past the witness meets no corner, so the
    # oracle's trial division decides none.
    (5, 9246231190095, None, Verdict(COMPOSITE, "miller-rabin", {"type": "oracle", "witness": 2})),
]


@pytest.mark.parametrize("k, n, factors, verdict", PSEUDOPRIMES,
                         ids=lambda v: str(v) if isinstance(v, int) else None)
def test_pseudoprimes_reach_the_routes(k, n, factors, verdict):
    c = FormCandidate(k=k, n=n, n_factors=factors)
    assert primality._sieve_divisor(c) is None and miller_rabin(c.p, (3,))
    assert auto_test(c) == verdict
    assert replay_verdict(c, verdict)
    assert not replay_verdict(c, WITNESS)


# Candidates the tests once decided on a curve route, and what auto_test
# writes for them now.  The curve outcome of each is tested through the
# evaluator (or with the presieve and the witness test out of the way)
# where the candidate is used.
NOW_DECIDED_EARLIER = [
    ((9, 1), sieve_verdict(7)),  # was small-n gcd-hit, 511 = 7 * 73
    ((7, 61), WITNESS),  # was small-n final-nonzero, 7807 = 37 * 211
    ((11, 1), WITNESS),  # M_11 = 2047 = 23 * 89, a base-2 strong pseudoprime
    ((8, 7), sieve_verdict(3)),  # was small-n parameter-scan
    ((7, 19), sieve_verdict(11)),  # was small-n parameter-scan, 17 = 4^2 + 1
    ((4, 1), sieve_verdict(3)),  # was small-n parameter-scan, 5 | M_4
    ((14400, 1), sieve_verdict(3)),  # was small-n parameter-scan, 5 | M_14400
    ((6, 13), sieve_verdict(3)),  # was small-n early-infinity, 831 = 3 * 277
    ((18, 18225), sieve_verdict(13)),  # was small-n gcd-hit at doubling 1
    ((2, 101), sieve_verdict(13)),  # was large-n factor 31, 403 = 13 * 31
    ((2, 257), sieve_verdict(13)),  # was large-n final-nonzero, 1027 = 13 * 79
    ((2, 2531), WITNESS),  # was large-n final-nonzero, 10123 = 53 * 191
    ((16, 1048583), sieve_verdict(7)),  # was large-n factor 49
    ((2, 1000003), sieve_verdict(3)),  # was large-n, p = 4000011
    ((2, 3**27), WITNESS),  # was the oracle's witness 2, 157 * 194282738471
    ((2, 3**53), WITNESS),  # was not-applicable above psi_13
    ((3, 29431243), WITNESS),  # was large-n final-nonzero with (37, 877, 907)
]


@pytest.mark.parametrize("kn, verdict", NOW_DECIDED_EARLIER, ids=lambda v: (
    "{}-{}".format(*v) if isinstance(v, tuple) and len(v) == 2 else None))
def test_composites_end_before_the_walk(monkeypatch, kn, verdict):
    def boom(*args, **kwargs):
        raise AssertionError("a curve walk ran")

    monkeypatch.setattr(primality, "double_x_only_chain", boom)
    monkeypatch.setattr(primality, "chain_outcome", boom)
    c = FormCandidate(*kn)
    assert auto_test(c) == verdict
    assert replay_verdict(c, verdict)


def test_the_order_of_the_stages(monkeypatch):
    # the presieve first (no strong test on a p it settles), then the one
    # strong test through the module's miller_rabin, then the routes
    calls = []
    strong = primality.miller_rabin

    def recorded(n, bases=(2,)):
        calls.append((n, tuple(bases)))
        return strong(n, bases)

    monkeypatch.setattr(primality, "miller_rabin", recorded)
    assert auto_test(FormCandidate(k=2, n=7)) == sieve_verdict(3)
    assert calls == []
    c = FormCandidate(k=7, n=61)
    assert auto_test(c) == WITNESS and calls == [(c.p, (3,))]
    calls.clear()
    c = FormCandidate(k=7, n=3)  # p = 383, prime
    assert auto_test(c).algorithm == "small-n" and calls == [(383, (3,))]
    calls.clear()
    c = FormCandidate(k=2, n=2633)  # p = 10531, prime: then n's own check
    assert auto_test(c).algorithm == "large-n" and calls[0] == (c.p, (3,))


def test_base_2_witnesses_no_mersenne_composite():
    # for a prime k, 2^k = 1 mod M_k and k divides (M_k - 1) / 2, so base 2
    # passes every M_k; the witness base is 3, which witnesses every
    # composite M_k past the presieve up to k = 400
    for k in range(3, 401):
        c = FormCandidate(k=k, n=1)
        if k in PRIME_EXPONENTS:
            assert miller_rabin(c.p, (2,)), k
        v = mersenne_test(k)
        assert v.algorithm in ("sieve", "miller-rabin", "small-n", "trial-division"), k
        assert (v.status == PRIME) == (v.algorithm != "sieve" and miller_rabin(c.p, (3,))), k


def test_window_at_k64_against_sympy():
    # the 2000 odd n from 2^64 + 1: neither corner gate holds and p > psi_13.
    # Every composite is decided (1233 by the presieve, 729 by the witness),
    # and the mixed corner proves the 38 primes
    sympy = pytest.importorskip("sympy")
    seen = {}
    for i in range(2000):
        c = FormCandidate(k=64, n=(1 << 64) + 1 + 2 * i)
        assert c.p >= PSI_13
        v = auto_test(c)
        prime = sympy.isprime(c.p)
        assert v.status == (PRIME if prime else COMPOSITE), c.n
        assert replay_verdict(c, v)
        seen[v.algorithm] = seen.get(v.algorithm, 0) + 1
    assert seen == {"sieve": 1233, "miller-rabin": 729, "small-n": 38}


def test_search_sieves_each_candidate_once(monkeypatch):
    # search sieves its whole range once and leaves the rest to
    # decide_unsieved, which runs no sieve of its own, and its records are
    # auto_test's
    runs = []
    sieve = numtheory.sieve_divisors
    for module in (primality, cli):
        monkeypatch.setattr(module, "sieve_divisors",
                            lambda k, ns, module=module: runs.append(module) or sieve(k, ns))
    argv = ["search", "--k", "31", "--n-min", "40001", "--n-max", "40999", "--json"]
    assert cli.main(argv, out=io.StringIO(), err=io.StringIO()) == 0
    assert runs == [cli]
    for n in (40025, 40095, 40999):
        c = FormCandidate(k=31, n=n)
        if primality._sieve_divisor(c) is None:
            assert decide_unsieved(c) == auto_test(c)
    # n = 1 at a prime k >= MERSENNE_TRIAL_MIN_K as well, where the sieve
    # trial-factors M_k (search's range sieve does so, before decide_unsieved)
    assert numtheory.MERSENNE_TRIAL_MIN_K <= 67
    for k in (67, 71, 73, 1277, 1279, 1459):
        c = FormCandidate(k=k, n=1)
        divisor = primality._sieve_divisor(c)
        assert (divisor is None) == (k not in (73, 1459)), k
        if divisor is None:
            assert decide_unsieved(c) == auto_test(c)
        else:
            assert auto_test(c) == sieve_verdict(divisor)


def test_witness_replay_walks_nothing(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("replay walked a curve")

    for name in ("double_x_only_chain", "chain_outcome", "_evaluate"):
        monkeypatch.setattr(primality, name, boom)
    monkeypatch.setattr(ecring, "_x_only_ladder", boom)
    for kn in ((7, 61), (11, 1), (2, 3**53), (1279 - 2, 1)):
        assert replay_verdict(FormCandidate(*kn), WITNESS), kn


def test_the_witness_runs_on_the_folds(monkeypatch):
    # on a p of a fold shape the strong test to base 3 takes one
    # pow(3, c, p) and k - 1 folded squarings, deciding and replaying; a
    # fall back to the textbook pow(3, (p - 1) / 2, p) would keep every
    # verdict, and only this test would see it
    calls = []

    def recorded(base, exp, mod=None):
        calls.append((base, exp, mod))
        return pow(base, exp, mod)

    monkeypatch.setattr(numtheory, "pow", recorded, raising=False)
    c = FormCandidate(1279, 1)
    v = mersenne_test(1279)
    assert v.status == PRIME and replay_verdict(c, v)  # a prime replays no witness
    assert [call for call in calls if call[::2] == (3, c.p)] == [(3, 1, c.p)]
    calls.clear()
    c = FormCandidate(3000, 5)
    assert auto_test(c) == WITNESS and replay_verdict(c, WITNESS)
    assert [call for call in calls if call[::2] == (3, c.p)] == [(3, 5, c.p)] * 2


@pytest.mark.parametrize("kn, verdict", [
    ((7, 3), WITNESS),  # p = 383 is prime: 3 is no witness
    ((6, 11), WITNESS),  # p = 703, a base-3 strong pseudoprime
    ((4, 3**27), WITNESS),  # p = 16 * 3^27 - 1: 11 divides it, the presieve's
    ((2, 7), WITNESS),  # p = 27: 3 witnesses it, but the presieve finds 3
    ((2, 1), WITNESS),  # p = 3: base 3 lies outside [2, p - 2]
    ((2, 3**53), WITNESS._replace(certificate={"type": "oracle", "witness": 2})),
    ((2, 3**53), WITNESS._replace(certificate={"type": "oracle", "witness": 4 * 3**53 - 2})),
    ((2, 3**53), WITNESS._replace(certificate={"type": "oracle", "witness": 1})),
    ((2, 3**53), WITNESS._replace(certificate={"type": "oracle", "witness": 3, "divisor": 5})),
    ((2, 3**53), WITNESS._replace(iterations=2)),
    ((2, 3**53), WITNESS._replace(status=PRIME)),
    ((2, 3**53), WITNESS._replace(algorithm="trial-division")),
], ids=["prime", "pseudoprime", "presieve-11", "presieve-3", "base-above-p", "witness-2",
        "witness-p-1", "witness-1", "extra-key", "iterations", "prime-status", "trial-division"])
def test_forged_witness_record(kn, verdict):
    assert not replay_verdict(FormCandidate(*kn), verdict)


def test_route_and_undecided_records_need_no_witness():
    # a record that auto_test writes after the witness test is INVALID for a
    # p that 3 witnesses: a curve composite, a fallback verdict, a give-up
    c = FormCandidate(k=7, n=61)  # p = 7807 = 37 * 211
    v = _evaluate(c, 1, (), True)
    assert v.certificate == {"type": "sequence", "outcome": "final-nonzero"}
    assert not replay_verdict(c, v)
    c = FormCandidate(k=2, n=2531)  # p = 10123 = 53 * 191
    v = _curve_route(c, (c.n,), False)
    assert v.certificate["type"] == "order" and not replay_verdict(c, v)
    v = Verdict(COMPOSITE, "miller-rabin", {"type": "oracle", "witness": 2})
    assert primality._oracle_verdict(c.p) == v and not replay_verdict(c, v)
    c = FormCandidate(k=2, n=3**53)
    assert not replay_verdict(c, primality._DISPATCH)
    c = FormCandidate(k=2, n=19 * 137, n_factors=(19, 137))  # p = 10411 = 29 * 359
    give_up = Verdict("inconclusive", "large-n", {
        "type": "retries-exhausted", "factors": [19, 137]})
    assert not replay_verdict(c, give_up)
