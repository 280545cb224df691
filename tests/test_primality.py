import json
import random
from itertools import islice
from math import prod

import pytest

from ecriesel import ecring, numtheory, primality
from ecriesel.ecring import FactorFound, Point
from ecriesel.numtheory import (
    ORACLE_BASES,
    PSI_13,
    FormCandidate,
    gate_large_n,
    gate_small_n,
    is_prime_oracle,
    jacobi,
    lucas_lehmer,
    miller_rabin,
    trial_division,
)
from ecriesel.sequence import FINAL_NONZERO, FINAL_ZERO
from ecriesel.primality import (
    COMPOSITE,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    PRIME,
    Verdict,
    _curve_point_candidates,
    auto_test,
    curve_coefficient,
    factor_witness,
    replay_verdict,
)

# aliased so pytest does not collect the library's test_* entry point
from ecriesel.primality import test_mersenne as mersenne_test

# two-prime fixtures: smallest gate-passing instances of p = 4*q1*q2 - 1,
# and the smallest at or above 10^6, all selected by trial division
TWO_PRIME_SMALL_PRIME = FormCandidate(k=2, n=33, n_factors=(3, 11))  # p = 131
TWO_PRIME_SMALL_COMPOSITE = FormCandidate(k=2, n=39, n_factors=(3, 13))  # p = 155
TWO_PRIME_BIG_PRIME = FormCandidate(k=2, n=250127, n_factors=(389, 643))  # p = 1000507
TWO_PRIME_BIG_COMPOSITE = FormCandidate(k=2, n=250003, n_factors=(13, 19231))  # p = 1000011
# three-prime fixtures whose verdicts rest on an order certificate
THREE_PRIME_PRIME = FormCandidate(k=3, n=3 * 23 * 199, n_factors=(3, 23, 199))  # p = 109847
THREE_PRIME_COMPOSITE = FormCandidate(k=3, n=3 * 29 * 157, n_factors=(3, 29, 157))  # p = 109271
# n = 3^53 is composite and p = 4n - 1 lies above psi_13: nothing decides it
UNDECIDED = FormCandidate(k=2, n=3**53)
DISPATCH = Verdict(NOT_APPLICABLE, "auto", {
    "type": "gate-failure", "gate": "dispatch",
    "reason": "no applicable route: gates fail or n needs an unavailable factorization"})
# psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on the first 12
# primes (Sorenson-Webster 2017); psi_13 passes it on the first 13
PSI_12 = 318665857834031151167461


class TestConstructCurvePoint:
    """The first (m, Q) pair of the curve/point scan."""

    def test_deterministic_scan_at_31(self):
        m, q = next(_curve_point_candidates(31))
        assert (m, q) == (6, Point(3, 3))
        assert jacobi(m, 31) == -1
        assert jacobi(q.x, 31) == -1
        assert (q.y * q.y - q.x**3 + m * q.x) % 31 == 0

    def test_scan_trips_over_shared_factor(self):
        with pytest.raises(FactorFound) as info:
            next(_curve_point_candidates(15))
        assert info.value.divisor == 3

    def test_scan_pairs_are_valid(self):
        pairs = list(islice(_curve_point_candidates(10531), primality.RETRY_CAP))
        assert len(pairs) == primality.RETRY_CAP
        # one x, the least non-residue; y ascends
        assert {q.x for _, q in pairs} == {2}
        assert [q.y for _, q in pairs] == sorted({q.y for _, q in pairs})
        for m, q in pairs:
            assert jacobi(m, 10531) == -1
            assert jacobi(q.x, 10531) == -1
            assert (q.y * q.y - q.x**3 + m * q.x) % 10531 == 0
            assert curve_coefficient(10531, q) == m


class TestSmallN:
    def test_prime_383(self):
        c = FormCandidate(k=7, n=3)
        v = auto_test(c)
        assert v.status == PRIME
        assert v.algorithm == "small-n"
        assert v.certificate["type"] == "sequence"
        assert replay_verdict(c, v)

    def test_composite_1791(self):
        c = FormCandidate(k=8, n=7)  # 1791 = 3^2 * 199
        v = auto_test(c)
        assert v.status == COMPOSITE
        w = factor_witness(v)
        assert w is not None and 1 < w < c.p and c.p % w == 0
        assert replay_verdict(c, v)

    def test_gate_failure_falls_back_to_oracle(self):
        c = FormCandidate(k=3, n=5)  # p = 39 fails the gate
        v = auto_test(c)
        assert v.status == COMPOSITE
        assert v.algorithm == "trial-division"
        assert v.certificate["least_factor"] == 3

    def test_agrees_with_oracle_on_gate_passing_range(self):
        for k in range(4, 10):
            for n in range(1, 32, 2):
                c = FormCandidate(k=k, n=n)
                if not (c.p > 6 and gate_small_n(c)):
                    continue
                # the small-n route itself, also on the Mersenne candidates n = 1
                v = primality._small_n_verdict(c)
                truth = PRIME if trial_division(c.p) == c.p else COMPOSITE
                assert v.status == truth, (k, n, c.p)
                assert replay_verdict(c, v)

    def test_scan_limit_does_not_reach_small_n(self, monkeypatch):
        # (2/383) = +1, and a one-value scan budget once left small-n
        # inconclusive here; small-n scans no point, so it decides
        c = FormCandidate(k=7, n=3)
        assert jacobi(2, c.p) == 1
        monkeypatch.setattr(primality, "SCAN_LIMIT", 1)
        v = auto_test(c)
        assert (v.status, v.algorithm) == (PRIME, "small-n")
        assert replay_verdict(c, v)


class TestMersenne:
    def test_known_verdicts(self):
        assert mersenne_test(5).status == PRIME
        assert mersenne_test(4).status == COMPOSITE
        assert mersenne_test(7).status == PRIME
        assert lucas_lehmer(7) is True
        assert trial_division(127) == 127

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            mersenne_test(2)

    def test_certificates_replay(self):
        for k in range(3, 40):
            c = FormCandidate(k=k, n=1)
            v = mersenne_test(k)
            assert replay_verdict(c, v), k
            assert v.status == (PRIME if lucas_lehmer(k) else COMPOSITE)


class TestLargePrimeN:
    def test_prime_10531(self):
        c = FormCandidate(k=2, n=2633)
        v = auto_test(c)
        assert v.status == PRIME
        assert v.algorithm == "large-n"
        assert v.certificate["factors"] == [2633]
        assert replay_verdict(c, v)

    def test_composite_10011(self):
        c = FormCandidate(k=2, n=2503)
        v = auto_test(c)
        assert v.status == COMPOSITE
        assert replay_verdict(c, v)

    def test_gate_failure_falls_back(self):
        c = FormCandidate(k=2, n=5)  # p = 19
        v = auto_test(c)
        assert v.status == PRIME
        assert v.algorithm == "trial-division"

    def test_rejects_composite_n(self):
        # the large-n gate holds, but n = 3^53 is no prime factor
        assert gate_large_n(UNDECIDED)
        v = auto_test(UNDECIDED)
        assert v == DISPATCH
        assert replay_verdict(UNDECIDED, v)
        # below psi_13 the fallback decides: p = 10003 = 7 * 1429
        c = FormCandidate(k=2, n=2501)  # 2501 = 41 * 61
        v = auto_test(c)
        assert v == Verdict(COMPOSITE, "miller-rabin", {"type": "oracle", "witness": 2})
        assert replay_verdict(c, v)

    def test_exhausted_scan_is_inconclusive(self, monkeypatch):
        # at p = 131 the attempts x(Q) = -1 .. -5 decline, so a scan of x
        # capped at five runs dry, with the factors given recorded
        c = TWO_PRIME_SMALL_PRIME
        monkeypatch.setattr(primality, "RETRY_CAP", 5)
        v = auto_test(c)
        assert v == Verdict(INCONCLUSIVE, "large-n", {
            "type": "retries-exhausted", "attempts": 5, "factors": [3, 11]}, 5)
        assert replay_verdict(c, v)


class TestTwoPrimeN:
    def test_smallest_gate_passing_instances(self):
        v = auto_test(TWO_PRIME_SMALL_PRIME)
        assert v.status == PRIME
        assert trial_division(TWO_PRIME_SMALL_PRIME.p) == 131
        assert replay_verdict(TWO_PRIME_SMALL_PRIME, v)

        v = auto_test(TWO_PRIME_SMALL_COMPOSITE)
        assert v.status == COMPOSITE
        assert trial_division(TWO_PRIME_SMALL_COMPOSITE.p) == 5
        assert replay_verdict(TWO_PRIME_SMALL_COMPOSITE, v)

    def test_million_scale_instances(self):
        v = auto_test(TWO_PRIME_BIG_PRIME)
        assert v.status == PRIME
        assert trial_division(TWO_PRIME_BIG_PRIME.p) == TWO_PRIME_BIG_PRIME.p
        assert replay_verdict(TWO_PRIME_BIG_PRIME, v)

        v = auto_test(TWO_PRIME_BIG_COMPOSITE)
        assert v.status == COMPOSITE
        assert trial_division(TWO_PRIME_BIG_COMPOSITE.p) < TWO_PRIME_BIG_COMPOSITE.p
        assert replay_verdict(TWO_PRIME_BIG_COMPOSITE, v)

    def test_gate_failing_tiny_candidate(self):
        c = FormCandidate(k=2, n=9, n_factors=(3, 3))  # p = 35
        v = auto_test(c)
        assert v.status == COMPOSITE and v.algorithm == "trial-division"
        # n = 2^90 + 1 and 2^90 + 3 with their prime factors, p above psi_13:
        # neither gate holds, so the factors go unused
        c = FormCandidate(k=90, n=(1 << 90) + 1, n_factors=(
            5, 5, 13, 37, 41, 61, 109, 181, 1321, 54001, 29247661))
        assert c.p >= PSI_13 and not gate_small_n(c) and not gate_large_n(c)
        v = auto_test(c)
        assert v == DISPATCH and replay_verdict(c, v)
        # 3 divides 2^90 * (2^90 + 3) - 1, which the fallback's presieve finds
        c = FormCandidate(k=90, n=(1 << 90) + 3,
                          n_factors=(193, 1879, 22546069333, 151406556577))
        assert not gate_small_n(c) and not gate_large_n(c)
        v = auto_test(c)
        assert v.algorithm == "sieve" and factor_witness(v) == 3 and replay_verdict(c, v)

    def test_requires_supplied_factors(self):
        # p = 131 and 179 are prime: the oracle decides them, and above
        # psi_13 the non-prime factor makes the route inapplicable
        for c in (FormCandidate(k=2, n=33), FormCandidate(k=2, n=45, n_factors=(3, 15))):
            v = auto_test(c)
            assert v.status == PRIME and v.algorithm == "trial-division"
            assert replay_verdict(c, v)
        for c in (UNDECIDED, FormCandidate(k=2, n=3**53, n_factors=(27, 3**50))):
            v = auto_test(c)
            assert v == DISPATCH
            assert replay_verdict(c, v)

    def test_full_multiple_reuses_the_last_check(self, monkeypatch):
        # q * ((n/q) * D) is n * D, so no ladder runs by n for either verdict:
        # one ladder per distinct q (none for n/q = 1), then one by the last q
        scalars = []
        original = ecring._x_only_ladder

        def recording(s, *rest):
            scalars.append(s)
            return original(s, *rest)

        monkeypatch.setattr(ecring, "_x_only_ladder", recording)
        for c, status in ((TWO_PRIME_BIG_PRIME, PRIME), (THREE_PRIME_PRIME, PRIME),
                          (THREE_PRIME_COMPOSITE, COMPOSITE),
                          (FormCandidate(k=2, n=2633), PRIME),
                          (FormCandidate(k=4, n=121, n_factors=(11, 11)), None)):
            scalars.clear()
            v = auto_test(c)
            qs = list(dict.fromkeys(c.n_factors or (c.n,)))
            want = [c.n // q for q in qs if q != c.n] + [qs[-1]]
            if status is None:
                # p = 1935: (3/p) = 0 is a factor before any walk
                assert v.certificate["stage"] == "parameter-scan" and scalars == []
                continue
            assert (v.status, v.certificate["type"]) == (status, "order")
            assert scalars == want and c.n not in scalars[:-1]
            scalars.clear()
            assert replay_verdict(c, v)
            assert scalars == want

    # Composite p with order certificates on which, with the Jacobian walk,
    # q * ((n/q) * D) met a divisor (41, 157) that the walk of n * D did not.
    ORDER_NOT_FACTOR = (
        FormCandidate(k=3, n=5851351, n_factors=(11, 521, 1021)),
        FormCandidate(k=3, n=231341443, n_factors=(241, 409, 2347)),
    )

    @pytest.mark.parametrize("probable_prime", [False, True], ids=["as-is", "forced-prp"])
    def test_composite_order_certificates_keep_replaying(self, monkeypatch, probable_prime):
        # the order route runs no Miller-Rabin on p: with the base-2 test
        # forced to pass, each composite p still ends final-nonzero
        if probable_prime:
            monkeypatch.setattr(primality, "miller_rabin", lambda n, bases=(): True)
        for c in self.ORDER_NOT_FACTOR:
            v = auto_test(c)
            cert = {"type": "order", "outcome": FINAL_NONZERO, "factors": list(c.n_factors)}
            assert v == Verdict(COMPOSITE, "large-n", cert)
            assert primality._order_verdict(c, 1, c.n_factors) == v
            assert replay_verdict(c, v)
            assert not replay_verdict(c, v._replace(status=PRIME, certificate={
                **cert, "outcome": FINAL_ZERO}))

    @pytest.mark.parametrize("p_prime", [True, False], ids=["p-prime", "p-composite"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_multi_prime_n_agrees_with_sympy(self, r, p_prime):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"{r}/{p_prime}")
        decided = 0
        for _ in range(200):
            qs = sorted(sympy.nextprime(rng.randrange(2**8, 2**20)) for _ in range(r))
            c = FormCandidate(k=rng.randrange(2, 9), n=prod(qs), n_factors=tuple(qs))
            if sympy.isprime(c.p) != p_prime or not gate_large_n(c):
                continue
            v = auto_test(c)
            assert v.algorithm == "large-n"
            if v.status == INCONCLUSIVE:
                assert v.certificate["type"] == "retries-exhausted"
                continue
            assert v.status == (PRIME if p_prime else COMPOSITE)
            assert replay_verdict(c, v)
            decided += 1
            if decided == 8:
                break
        assert decided == 8

    def test_repeated_prime_factor(self):
        c = FormCandidate(k=4, n=121, n_factors=(11, 11))  # p = 1935 = 3 * 645
        v = auto_test(c)
        truth = PRIME if trial_division(c.p) == c.p else COMPOSITE
        assert v.status == truth
        assert replay_verdict(c, v)


class TestAutoTest:
    def test_routes_mersenne(self):
        # M_k is small-n's n = 1 corner
        c = FormCandidate(k=13, n=1)
        v = auto_test(c)
        assert v.algorithm == "small-n" and v.status == PRIME
        assert lucas_lehmer(13)

    def test_routes_small_n(self):
        v = auto_test(FormCandidate(k=7, n=3))
        assert v.algorithm == "small-n" and v.status == PRIME

    def test_routes_large_prime(self):
        c = FormCandidate(k=2, n=2633)
        assert not gate_small_n(c) and gate_large_n(c)
        v = auto_test(c)
        assert v.algorithm == "large-n" and v.status == PRIME

    def test_routes_two_prime_with_supplied_factors(self):
        v = auto_test(TWO_PRIME_BIG_PRIME)
        assert v.algorithm == "large-n" and v.status == PRIME

    def test_routes_any_prime_factorization(self):
        c = FormCandidate(k=2, n=105, n_factors=(3, 5, 7))  # p = 419, prime
        v = auto_test(c)
        assert v.algorithm == "large-n" and v.status == PRIME
        assert v.certificate["factors"] == [3, 5, 7]
        assert trial_division(c.p) == c.p
        assert replay_verdict(c, v)

        c = FormCandidate(k=2, n=231, n_factors=(3, 7, 11))  # p = 923 = 13 * 71
        v = auto_test(c)
        assert v.algorithm == "large-n" and v.status == COMPOSITE
        assert trial_division(c.p) == 13
        assert replay_verdict(c, v)

    def test_small_p_oracle_fallback(self):
        v = auto_test(FormCandidate(k=2, n=1))  # p = 3
        assert v.status == PRIME and v.algorithm == "trial-division"

    def test_unroutable_candidate_is_not_applicable(self):
        v = auto_test(UNDECIDED)
        assert v.status == NOT_APPLICABLE
        assert v.certificate["type"] == "gate-failure" and v.certificate["gate"] == "dispatch"
        # n = 3^3 * 5 * 7 * 11 with no factorization hint, p = 41579 below psi_13
        c = FormCandidate(k=2, n=10395)
        v = auto_test(c)
        assert v == Verdict(PRIME, "miller-rabin", {"type": "oracle"})
        assert replay_verdict(c, v)

    def test_unroutable_candidate_runs_the_fallback_once(self, monkeypatch):
        # the large-n gate holds but n is no prime: the fallback runs the
        # oracle and the presieve once
        calls = []

        def counted(name):
            inner = getattr(primality, name)
            monkeypatch.setattr(primality, name,
                                lambda *args: calls.append(name) or inner(*args))

        counted("presieve")
        counted("_oracle_verdict")
        v = auto_test(UNDECIDED)
        assert sorted(calls) == ["_oracle_verdict", "presieve"]
        assert v == DISPATCH

    def test_verdict_statuses_cover_exit_codes(self):
        assert {PRIME, COMPOSITE, INCONCLUSIVE, NOT_APPLICABLE} == {
            "prime",
            "composite",
            "inconclusive",
            "not-applicable",
        }


class TestDeterminismAndConfig:
    def test_identical_runs_identical_certificates(self):
        for c in (FormCandidate(k=7, n=3), FormCandidate(k=2, n=2633), TWO_PRIME_SMALL_PRIME):
            a = auto_test(c)
            b = auto_test(c)
            assert a == b
            assert json.dumps(a.certificate, sort_keys=True) == json.dumps(
                b.certificate, sort_keys=True
            )

    def test_retry_cap_bounds_the_pairs_tried(self, monkeypatch):
        # p = 131: x(Q) = -1 .. -5 decline and x(Q) = -6 decides
        c = TWO_PRIME_SMALL_PRIME
        for a in range(1, 6):
            assert primality._order_verdict(c, a, c.n_factors) is None, a
        assert auto_test(c).iterations == 6
        monkeypatch.setattr(primality, "RETRY_CAP", 6)
        assert auto_test(c).iterations == 6
        monkeypatch.setattr(primality, "RETRY_CAP", 1)
        v = auto_test(c)
        assert v == Verdict(INCONCLUSIVE, "large-n", {"type": "retries-exhausted",
                                                       "attempts": 1, "factors": [3, 11]})
        assert replay_verdict(c, v)


class TestReplayRejectsTampering:
    def test_flipped_sequence_value(self):
        # one certificate per outcome, so each outcome field is present in one
        cases = [
            FormCandidate(k=7, n=3),  # final-zero
            FormCandidate(k=9, n=1),  # gcd-hit: step, divisor
            FormCandidate(k=7, n=37),  # final-nonzero
            FormCandidate(k=11, n=1),  # Mersenne, final-nonzero
        ]
        for c in cases:
            v = auto_test(c)
            assert v.certificate["type"] == "sequence" and replay_verdict(c, v)
            # x0 and residue are derived on replay, so the certificate carries neither
            for field in ("x0", "outcome", "step", "divisor", "residue"):
                cert = dict(v.certificate)
                if field == "outcome":
                    cert[field] = FINAL_ZERO if cert[field] != FINAL_ZERO else FINAL_NONZERO
                elif field in cert:
                    cert[field] = (cert[field] + 1) % c.p
                else:
                    cert[field] = 1  # a field the outcome does not carry
                assert not replay_verdict(c, Verdict(v.status, v.algorithm, cert)), (c, field)

    def test_flipped_status(self):
        c = FormCandidate(k=7, n=3)
        v = auto_test(c)
        assert not replay_verdict(c, Verdict(COMPOSITE, v.algorithm, v.certificate))

    def test_bogus_factor_witness(self):
        c = FormCandidate(k=8, n=7)
        cert = {"type": "factor", "divisor": 7, "stage": "parameter-scan"}
        assert not replay_verdict(c, Verdict(COMPOSITE, "small-n", cert))  # 7 does not divide 1791
        cert = {"type": "factor", "divisor": 3, "stage": "parameter-scan"}
        assert replay_verdict(c, Verdict(COMPOSITE, "small-n", cert))

    def test_wrong_candidate(self):
        c = FormCandidate(k=2, n=2633)
        v = auto_test(c)
        other = FormCandidate(k=2, n=2503)
        assert not replay_verdict(other, v)

    def test_tampered_order_point(self):
        # the record's point is x(Q) = -iterations; a forged outcome, a
        # point that declines or decides otherwise, forged factors and a
        # field no order certificate holds all fail
        cases = [
            FormCandidate(k=2, n=2633),
            TWO_PRIME_BIG_PRIME,
            FormCandidate(k=2, n=105, n_factors=(3, 5, 7)),
            TWO_PRIME_SMALL_PRIME,
            THREE_PRIME_COMPOSITE,
        ]
        for c in cases:
            v = auto_test(c)
            assert v.certificate["type"] == "order" and replay_verdict(c, v)
            flipped = FINAL_NONZERO if v.status == PRIME else FINAL_ZERO
            factors = v.certificate["factors"]
            forgeries = [
                {"outcome": flipped},
                {"base_point": [2, 2]},
                {"m": primality._least_nonresidue(c.p)},
                {"factors": [c.n]} if len(factors) > 1 else {"factors": [1, c.n]},
                {"factors": factors[1:]},
                {"factors": factors + [1]},
            ]
            for change in forgeries:
                cert = {**v.certificate, **change}
                assert not replay_verdict(c, v._replace(certificate=cert)), (c, change)
            assert not replay_verdict(c, v._replace(status=(COMPOSITE if v.status == PRIME
                                                            else PRIME)))
        # p = 131 declines x(Q) = -1 .. -5: no record may name them
        v = auto_test(TWO_PRIME_SMALL_PRIME)
        for a in range(1, 6):
            assert not replay_verdict(TWO_PRIME_SMALL_PRIME, v._replace(iterations=a)), a

    def test_any_point_with_both_symbols_certifies_a_prime(self):
        # p = 10531 is prime: every x(Q) = -a that does not decline proves
        # it, so a record naming another a than the route's replays valid
        c = FormCandidate(k=2, n=2633)
        v = auto_test(c)
        assert v.iterations == 1
        decided = [a for a in range(1, primality.RETRY_CAP + 1)
                   if primality._order_verdict(c, a, [c.n]) is not None]
        assert len(decided) > 15
        for a in decided:
            assert replay_verdict(c, v._replace(iterations=a)), a

    @pytest.mark.parametrize("c, algorithm", [
        (FormCandidate(k=2, n=2503), "large-n"),  # p = 10011 = 3 * 47 * 71
        (TWO_PRIME_BIG_COMPOSITE, "large-n"),
        (THREE_PRIME_COMPOSITE, "large-n"),
        (FormCandidate(k=8, n=7), "small-n"),  # p = 1791 = 3^2 * 199
        (FormCandidate(k=7, n=37), "small-n"),  # p = 4735 = 5 * 947
    ], ids=lambda v: str(getattr(v, "p", v)))
    def test_prime_claim_on_a_composite_fails_with_any_point(self, c, algorithm):
        # every x(Q) = -a a large-n record can name; small-n has one point
        if algorithm == "large-n":
            cert = {"type": "order", "outcome": FINAL_ZERO, "factors": list(c.n_factors or (c.n,))}
            attempts = range(1, primality.RETRY_CAP + 1)
        else:
            cert = {"type": "sequence", "outcome": FINAL_ZERO}
            attempts = (1,)
        for a in attempts:
            assert not replay_verdict(c, Verdict(PRIME, algorithm, cert, a)), a
            assert not replay_verdict(c, Verdict(PRIME, algorithm, {**cert, "base_point": [2, a]}, a))

    def test_vanished_multiple_multiplies_by_n(self):
        # p = 383 is prime, so 3 * Q is finite whatever the record claims
        c = FormCandidate(k=7, n=3)
        cert = {"type": "vanished-multiple", "base_point": [5, 1]}
        assert not replay_verdict(c, Verdict(COMPOSITE, "small-n", cert))
        for multiplier in (0, 384):
            forged = {**cert, "multiplier": multiplier}
            assert not replay_verdict(c, Verdict(COMPOSITE, "small-n", forged))

    def test_not_applicable_is_the_fallback_verdict(self):
        assert replay_verdict(UNDECIDED, DISPATCH)
        cert = DISPATCH.certificate
        forgeries = [
            (UNDECIDED, DISPATCH._replace(iterations=2)),
            (UNDECIDED, DISPATCH._replace(algorithm="large-n")),
            (UNDECIDED, DISPATCH._replace(certificate={**cert, "gate": "large-n"})),
            (UNDECIDED, DISPATCH._replace(certificate={**cert, "reason": "anything"})),
            (UNDECIDED, DISPATCH._replace(certificate={**cert, "attempts": 1})),
            (FormCandidate(k=2, n=10395), DISPATCH),  # p below psi_13: the oracle decides
            (FormCandidate(k=2, n=3**54), DISPATCH),  # 5 divides p: the presieve finds it
            (FormCandidate(k=90, n=3), DISPATCH),  # the small-n gate holds
            (FormCandidate(k=89, n=1), DISPATCH),  # Mersenne, and the small-n gate holds
        ]
        for c, v in forgeries:
            assert not replay_verdict(c, v), (c, v)

    def test_inconclusive_is_a_curve_route_giving_up(self):
        # the frozen large-n record: the one scanned pair decided nothing
        c = FormCandidate(k=4, n=167)
        v = Verdict(INCONCLUSIVE, "large-n", {"type": "retries-exhausted", "attempts": 1})
        assert replay_verdict(c, v)
        cap = primality.RETRY_CAP
        for attempts in (0, cap):
            cert = {"type": "retries-exhausted", "attempts": attempts}
            assert replay_verdict(c, v._replace(certificate=cert, iterations=max(attempts, 1)))
        forgeries = [
            (c, v._replace(algorithm="small-n")),  # the small-n gate fails
            (c, v._replace(algorithm="auto")),
            (c, v._replace(iterations=2)),
            (c, v._replace(certificate={"type": "retries-exhausted", "attempts": cap + 1},
                           iterations=cap + 1)),
            (c, v._replace(certificate={"type": "retries-exhausted", "attempts": -1})),
            (c, v._replace(certificate={"type": "retries-exhausted"})),
            (c, v._replace(certificate={**v.certificate, "gate": "large-n"})),
            (c, v._replace(certificate=DISPATCH.certificate)),
            (FormCandidate(k=7, n=3), v),  # the large-n gate fails
        ]
        for c, forged in forgeries:
            assert not replay_verdict(c, forged), (c, forged)

    def test_large_n_give_up_checks_the_factors(self, monkeypatch):
        # n = 3^53 is composite, so auto_test never takes large-n for it,
        # and a give-up without factors stands for n itself
        c = FormCandidate(k=2, n=3**53)
        assert gate_large_n(c) and auto_test(c).algorithm == "auto"
        forged = Verdict(INCONCLUSIVE, "large-n",
                         {"type": "retries-exhausted", "attempts": 20}, 20)
        assert not replay_verdict(c, forged)
        # factors given with the candidate are recorded, and replay checks
        # their product and primality: with no attempt allowed, the route
        # gives up on p = 10411 at once
        c = FormCandidate(k=2, n=19 * 137, n_factors=(19, 137))
        monkeypatch.setattr(primality, "RETRY_CAP", 0)
        v = auto_test(c)
        assert v == Verdict(INCONCLUSIVE, "large-n", {
            "type": "retries-exhausted", "attempts": 0, "factors": [19, 137]})
        assert replay_verdict(c, v)
        for factors in ([19 * 137], [19, 137, 1], [19, 139], [19]):
            forged = v._replace(certificate={**v.certificate, "factors": factors})
            assert not replay_verdict(c, forged), factors
        cert = {"type": "retries-exhausted", "attempts": 0}
        assert not replay_verdict(c, v._replace(certificate=cert))
        small = v._replace(algorithm="small-n", certificate={**cert, "factors": [19, 137]})
        assert not replay_verdict(FormCandidate(k=12, n=19 * 137), small)

    def test_decided_iterations_are_a_decide_paths(self):
        # every route but large-n decides on its first attempt; large-n's
        # evaluator can decline one, so it may take up to RETRY_CAP
        c = FormCandidate(k=7, n=3)
        v = auto_test(c)
        assert replay_verdict(c, v)
        for iterations in (0, 2, 999):
            assert not replay_verdict(c, v._replace(iterations=iterations)), iterations
        c = TWO_PRIME_SMALL_PRIME  # p = 131: the sixth attempt decides
        v = auto_test(c)
        assert (v.algorithm, v.iterations) == ("large-n", 6) and replay_verdict(c, v)
        assert replay_verdict(c, v._replace(iterations=primality.RETRY_CAP))
        assert not replay_verdict(c, v._replace(iterations=primality.RETRY_CAP + 1))
        assert not replay_verdict(c, v._replace(iterations=0))
        c = FormCandidate(k=13, n=1)
        assert replay_verdict(c, mersenne_test(13))
        assert not replay_verdict(c, mersenne_test(13)._replace(iterations=7))
        c = FormCandidate(k=2, n=3**54)  # 5 divides p, above psi_13
        v = auto_test(c)
        assert v.algorithm == "sieve" and replay_verdict(c, v)
        assert not replay_verdict(c, v._replace(iterations=5))

    def test_oracle_certificate_must_match_recomputation(self):
        c = FormCandidate(k=3, n=5)
        cert = {"type": "oracle", "least_factor": 39}
        assert not replay_verdict(c, Verdict(PRIME, "trial-division", cert))
        cert = {"type": "oracle", "least_factor": 3}
        assert replay_verdict(c, Verdict(COMPOSITE, "trial-division", cert))
        # p <= 10^4 is trial division's, p above it Miller-Rabin's
        assert not replay_verdict(c, Verdict(COMPOSITE, "miller-rabin",
                                             {"type": "oracle", "witness": 2}))
        c = FormCandidate(k=2, n=2501)  # p = 10003 = 7 * 1429
        assert not replay_verdict(c, Verdict(COMPOSITE, "trial-division", {
            "type": "oracle", "least_factor": 7}))
        for witness in (2, 3, None):
            cert = {"type": "oracle", "witness": witness} if witness else {"type": "oracle"}
            assert replay_verdict(c, Verdict(COMPOSITE, "miller-rabin", cert)) == (witness == 2)


class TestExactOracleBoundary:
    """is_prime_oracle is exact below psi_13 and knows nothing above it."""

    def test_psi_12_is_composite(self):
        assert miller_rabin(PSI_12)  # passes the 12 default bases
        assert is_prime_oracle(PSI_12) is False
        assert primality._probable_prime(PSI_12) is False

    def test_psi_13_is_unknown(self):
        assert miller_rabin(PSI_13, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
        assert is_prime_oracle(PSI_13) is None
        assert is_prime_oracle(PSI_13 - 2) is not None

    def test_edges(self):
        assert [is_prime_oracle(n) for n in (-7, 0, 1, 2, 3, 4)] == [
            False, False, False, True, True, False]
        assert is_prime_oracle(10**4 + 7) is True and is_prime_oracle(10**4 + 2) is False
        assert is_prime_oracle(10**12 + 39) is True and is_prime_oracle(10**12 + 41) is False

    def test_oracle_verdict_runs_one_pass(self, monkeypatch):
        # p = 8 * 401878969 - 1 = 151 * 751 * 28351 is a strong pseudoprime to
        # bases 2, 3, 5 and 7, so 11 is its least witness: one pass tries five
        # bases, where a second pass to find the witness would try ten
        rounds = []
        monkeypatch.setattr(numtheory, "pow", lambda b, e, n: rounds.append(b) or pow(b, e, n),
                            raising=False)
        p = 3215031751
        assert p == FormCandidate(k=3, n=401878969).p and 10**4 < p < PSI_13
        assert primality._oracle_verdict(p) == Verdict(
            COMPOSITE, "miller-rabin", {"type": "oracle", "witness": 11})
        assert rounds == [2, 3, 5, 7, 11]
        rounds.clear()
        assert primality._oracle_verdict(10**12 + 39).status == PRIME
        assert rounds == list(ORACLE_BASES)

    def test_psi_12_factor_builds_no_order_certificate(self):
        # p = 8 * psi_12 - 1 lies below psi_13, so it is decided exactly
        c = FormCandidate(k=3, n=PSI_12)
        assert c.p < PSI_13
        v = auto_test(c)
        assert v == Verdict(COMPOSITE, "miller-rabin", {"type": "oracle", "witness": 2})
        assert replay_verdict(c, v)
        # the order certificate that 12-base Miller-Rabin let through
        order = {"type": "order", "outcome": FINAL_NONZERO, "factors": [PSI_12]}
        assert not replay_verdict(c, Verdict(COMPOSITE, "large-n", order))

    @pytest.mark.parametrize("k", [4, 6])
    def test_psi_12_factor_above_psi_13(self, k):
        # no route runs on the composite factor, and the fallback's presieve
        # finds that 3 divides p
        c = FormCandidate(k=k, n=PSI_12)
        assert c.p >= PSI_13 and c.p % 3 == 0
        v = auto_test(c)
        assert v == Verdict(COMPOSITE, "sieve", {"type": "factor", "divisor": 3,
                                                 "stage": "sieve"})
        assert factor_witness(v) == 3
        assert replay_verdict(c, v)


class TestFactorWitnessExtraction:
    def test_from_factor_certificate(self):
        v = Verdict(COMPOSITE, "small-n", {"type": "factor", "divisor": 3, "stage": "x"})
        assert factor_witness(v) == 3

    def test_from_gcd_hit_sequence(self):
        c = FormCandidate(k=9, n=1)  # p = 511 = 7 * 73; the chain meets a factor
        v = auto_test(c)
        assert v.status == COMPOSITE and v.certificate["outcome"] == "gcd-hit"
        assert factor_witness(v) in (7, 73)

    def test_prime_has_no_witness(self):
        v = mersenne_test(5)
        assert factor_witness(v) is None
