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
    _curve_route,
    _fallback,
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
# p = 4 * 3 * 79 - 1 = 947 is prime, and x(Q) = -2 .. -5 decline
DECLINING = FormCandidate(k=2, n=237, n_factors=(3, 79))
# three-prime fixtures whose verdicts rest on an order certificate
THREE_PRIME_PRIME = FormCandidate(k=3, n=3 * 23 * 199, n_factors=(3, 23, 199))  # p = 109847
THREE_PRIME_COMPOSITE = FormCandidate(k=3, n=3 * 29 * 157, n_factors=(3, 29, 157))  # p = 109271
# n = 609403 * 461886431 has no prime factor below 2^16, and p = 2^48 n - 1
# is prime above psi_13: with no factors given, no corner and no oracle
# decides it
UNDECIDED = FormCandidate(k=48, n=281474976710693)
# n = 1099511627791 * 4398046511993 and p = 4n - 1 is prime above psi_13:
# the large-n gate holds, but n is no prime, and no corner decides it
LARGE_GATE_UNDECIDED = FormCandidate(k=2, n=1099511627791 * 4398046511993)
# p = 2^5 n - 1 = 3851 * 76831835389 is a base-3 strong pseudoprime, and
# n's part above 2^16 is composite: no corner takes it, the fallback does
PSEUDOPRIME = FormCandidate(k=5, n=9246231190095)
# p = 4 * 3^53 - 1 lies above psi_13 too, but base 3 witnesses it
WITNESSED = FormCandidate(k=2, n=3**53)
DISPATCH = Verdict(NOT_APPLICABLE, "auto", {})
WITNESS = Verdict(COMPOSITE, "miller-rabin", {"witness": 3})
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
        assert v.certificate == {"outcome": FINAL_ZERO}
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
        v = _fallback(c)
        assert v.status == COMPOSITE
        assert v.algorithm == "trial-division"
        assert v.certificate["least_factor"] == 3
        # auto_test's presieve finds 3 first
        assert auto_test(c) == primality.sieve_verdict(3)

    def test_agrees_with_oracle_on_gate_passing_range(self):
        for k in range(4, 10):
            for n in range(1, 32, 2):
                c = FormCandidate(k=k, n=n)
                if not (c.p > 6 and gate_small_n(c)):
                    continue
                # the small-n route itself, also on the Mersenne candidates n = 1
                v = primality._evaluate(c, 1, (), True)
                truth = PRIME if trial_division(c.p) == c.p else COMPOSITE
                assert v.status == truth, (k, n, c.p)
                # replay accepts what auto_test writes, and a composite
                # reaches small-n only past the presieve and the witness
                decided = auto_test(c)
                assert decided.status == truth
                assert replay_verdict(c, v) == (decided == v), (k, n)
                assert replay_verdict(c, decided)

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
        # n is its own one factor: the record leaves it out, replay takes
        # (n,), and a record that names [n] is not what deciding writes
        assert v.certificate == {"outcome": FINAL_ZERO}
        assert replay_verdict(c, v)
        assert not replay_verdict(c, v._replace(certificate={**v.certificate, "factors": [2633]}))

    def test_composite_10011(self):
        c = FormCandidate(k=2, n=2503)
        v = auto_test(c)
        assert v.status == COMPOSITE
        assert replay_verdict(c, v)

    def test_gate_failure_falls_back(self):
        # the large-n gate fails at p = 19: the mixed corner, s = p + 1
        c = FormCandidate(k=2, n=5)
        v = auto_test(c)
        assert v == Verdict(PRIME, "small-n", {"outcome": FINAL_ZERO, "factors": [5]})
        assert replay_verdict(c, v)

    def test_rejects_composite_n(self):
        # the large-n gate holds, but n is no prime factor
        c = LARGE_GATE_UNDECIDED
        assert gate_large_n(c)
        v = auto_test(c)
        assert v == DISPATCH
        assert replay_verdict(c, v)
        # below psi_13 the fallback decides: 2 witnesses the pseudoprime
        c = PSEUDOPRIME
        assert gate_large_n(c)
        v = auto_test(c)
        assert v == Verdict(COMPOSITE, "miller-rabin", {"witness": 2})
        assert replay_verdict(c, v)
        # p = 10003 = 7 * 1429: the fallback's verdict, where the presieve decides
        c = FormCandidate(k=2, n=2501)  # 2501 = 41 * 61
        assert _fallback(c) == Verdict(COMPOSITE, "miller-rabin", {"witness": 2})
        assert auto_test(c) == primality.sieve_verdict(7)

    def test_exhausted_scan_is_inconclusive(self, monkeypatch):
        # at p = 947 the attempts x(Q) = -2 .. -5 decline, so a scan of x
        # capped at four runs dry, with the factors given recorded
        c = DECLINING
        monkeypatch.setattr(primality, "RETRY_CAP", 4)
        v = auto_test(c)
        assert v == Verdict(INCONCLUSIVE, "large-n", {"factors": [3, 79]}, 4)
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
        v = _fallback(c)
        assert v.status == COMPOSITE and v.algorithm == "trial-division"
        assert auto_test(c) == primality.sieve_verdict(5)
        # n = 2^90 + 1 and 2^90 + 3 with their prime factors, p above psi_13:
        # neither corner gate holds, so the mixed corner takes the factors
        c = FormCandidate(k=90, n=(1 << 90) + 1, n_factors=(
            5, 5, 13, 37, 41, 61, 109, 181, 1321, 54001, 29247661))
        assert c.p >= PSI_13 and not gate_small_n(c) and not gate_large_n(c)
        assert primality._corner(c) == (c.n_factors, True)
        assert _fallback(c) == DISPATCH._replace(certificate={
            **DISPATCH.certificate, "factors": list(c.n_factors)})
        # base 3 witnesses this p before any route or fallback
        v = auto_test(c)
        assert v == WITNESS and replay_verdict(c, v)
        assert not replay_verdict(c, DISPATCH)
        # 3 divides 2^90 * (2^90 + 3) - 1, which auto_test's presieve finds
        c = FormCandidate(k=90, n=(1 << 90) + 3,
                          n_factors=(193, 1879, 22546069333, 151406556577))
        assert not gate_small_n(c) and not gate_large_n(c)
        v = auto_test(c)
        assert v.algorithm == "sieve" and factor_witness(v) == 3 and replay_verdict(c, v)

    def test_requires_supplied_factors(self):
        # p = 131 is prime, and the mixed corner proves it from n's small
        # factors; a non-prime factor given makes every corner inapplicable:
        # the oracle decides p = 179, and above psi_13 dispatch gives up,
        # recording the factors given
        c = FormCandidate(k=2, n=33)
        v = auto_test(c)
        assert (v.status, v.algorithm, v.certificate["factors"]) == (PRIME, "small-n", [3, 11])
        assert replay_verdict(c, v)
        c = FormCandidate(k=2, n=45, n_factors=(3, 15))
        v = auto_test(c)
        assert v.status == PRIME and v.algorithm == "trial-division"
        assert replay_verdict(c, v)
        assert auto_test(UNDECIDED) == DISPATCH and replay_verdict(UNDECIDED, DISPATCH)
        c = FormCandidate(UNDECIDED.k, UNDECIDED.n, (UNDECIDED.n,))
        v = auto_test(c)
        assert v == DISPATCH._replace(certificate={**DISPATCH.certificate, "factors": [c.n]})
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
            # the route itself: auto_test's presieve or witness ends the composites
            v = _curve_route(c, c.n_factors or (c.n,), False)
            qs = list(dict.fromkeys(c.n_factors or (c.n,)))
            want = [c.n // q for q in qs if q != c.n] + [qs[-1]]
            if status is None:
                # p = 1935 = 3^2 * 5 * 43: the walk of D fails mod 5 at
                # doubling 1 and mod 3 at doubling 2, so its end Z shares
                # 45 = 3^2 * 5 with p, before any ladder
                assert v.certificate == {"divisor": 45}
                assert scalars == []
                continue
            assert (v.status, v.certificate.keys() - {"factors"}) == (status, {"outcome"})
            assert scalars == want and c.n not in scalars[:-1]
            scalars.clear()
            if status == COMPOSITE:
                # base 3 witnesses p = 109271: replay rejects before any ladder
                assert auto_test(c) == WITNESS
                assert not replay_verdict(c, v) and scalars == []
                continue
            assert auto_test(c) == v
            scalars.clear()
            assert replay_verdict(c, v)
            assert scalars == want

    # Composite p whose walk from x(Q) = -2 meets no divisor of p: their
    # order certificates end final-nonzero at the first attempt.
    ORDER_NOT_FACTOR = (
        FormCandidate(k=3, n=29431243, n_factors=(37, 877, 907)),
        FormCandidate(k=3, n=6135484843, n_factors=(853, 2579, 2789)),
    )

    @pytest.mark.parametrize("probable_prime", [False, True], ids=["as-is", "forced-prp"])
    def test_composite_order_certificates_keep_replaying(self, monkeypatch, probable_prime):
        # the order route runs no Miller-Rabin on p: each composite p ends
        # final-nonzero.  Base 3 witnesses both, so auto_test writes the
        # witness and replay rejects the route's record; with the strong
        # test forced to pass, auto_test takes the route and replay accepts it
        if probable_prime:
            monkeypatch.setattr(primality, "miller_rabin", lambda n, bases=(): True)
        for c in self.ORDER_NOT_FACTOR:
            v = _curve_route(c, c.n_factors, False)
            cert = {"outcome": FINAL_NONZERO, "factors": list(c.n_factors)}
            assert v == Verdict(COMPOSITE, "large-n", cert)
            assert primality._evaluate(c, 1, c.n_factors, False) == v
            assert auto_test(c) == (v if probable_prime else WITNESS)
            assert replay_verdict(c, v) == probable_prime
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
            # the route itself; auto_test ends most composites before it
            v = _curve_route(c, c.n_factors, False)
            assert v.algorithm == "large-n"
            w = auto_test(c)
            assert replay_verdict(c, w)
            if v.status == INCONCLUSIVE:
                assert v.certificate == {"factors": list(c.n_factors)}
                continue
            assert v.status == w.status == (PRIME if p_prime else COMPOSITE)
            assert replay_verdict(c, v) == (w == v)
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
        v = _curve_route(c, c.n_factors, False)
        assert v.algorithm == "large-n" and v.status == COMPOSITE
        assert trial_division(c.p) == 13
        # the presieve finds 13 first, and replay accepts only that
        assert auto_test(c) == primality.sieve_verdict(13)
        assert replay_verdict(c, auto_test(c)) and not replay_verdict(c, v)

    def test_small_p_oracle_fallback(self):
        v = auto_test(FormCandidate(k=2, n=1))  # p = 3
        assert v.status == PRIME and v.algorithm == "trial-division"

    def test_unroutable_candidate_is_not_applicable(self):
        v = auto_test(UNDECIDED)
        assert v.status == NOT_APPLICABLE
        assert v == DISPATCH
        # n = 3^3 * 5 * 7 * 11 with no factorization hint, p = 41579 below
        # psi_13: the mixed corner takes n's small factors before the oracle
        c = FormCandidate(k=2, n=10395)
        v = auto_test(c)
        assert v == Verdict(PRIME, "small-n", {
            "outcome": FINAL_ZERO, "factors": [3, 3, 3, 5, 7, 11]}, 4)
        assert replay_verdict(c, v)
        assert primality._oracle_verdict(c.p) == Verdict(PRIME, "miller-rabin", {})

    def test_unroutable_candidate_runs_the_fallback_once(self, monkeypatch):
        # no corner applies: auto_test runs the sieve once, and the
        # fallback the oracle once
        calls = []

        def counted(name):
            inner = getattr(primality, name)
            monkeypatch.setattr(primality, name,
                                lambda *args: calls.append(name) or inner(*args))

        counted("sieve_divisors")
        counted("_oracle_verdict")
        v = auto_test(UNDECIDED)
        assert sorted(calls) == ["_oracle_verdict", "sieve_divisors"]
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
        # p = 947: x(Q) = -2 .. -5 decline and x(Q) = -6 decides
        c = DECLINING
        for a in range(1, 5):
            assert primality._evaluate(c, a, c.n_factors, False) is None, a
        assert auto_test(c).iterations == 5
        monkeypatch.setattr(primality, "RETRY_CAP", 5)
        assert auto_test(c).iterations == 5
        monkeypatch.setattr(primality, "RETRY_CAP", 1)
        v = auto_test(c)
        assert v == Verdict(INCONCLUSIVE, "large-n", {"factors": [3, 79]})
        assert replay_verdict(c, v)


class TestReplayRejectsTampering:
    def test_flipped_sequence_value(self, routes_decide_composites):
        # one certificate per outcome, so each outcome field is present in one
        cases = [
            FormCandidate(k=7, n=3),  # final-zero
            FormCandidate(k=9, n=1),  # the chain's gcd: the divisor alone
            FormCandidate(k=7, n=61),  # final-nonzero
            FormCandidate(k=11, n=1),  # Mersenne, final-nonzero
        ]
        for c in cases:
            v = auto_test(c)
            assert v.algorithm == "small-n" and replay_verdict(c, v)
            # x0 and residue are derived on replay, so the certificate carries neither
            for field in ("x0", "outcome", "step", "divisor", "residue"):
                cert = dict(v.certificate)
                if field == "outcome":
                    cert[field] = FINAL_ZERO if cert.get(field) != FINAL_ZERO else FINAL_NONZERO
                elif field in cert:
                    cert[field] = (cert[field] + 1) % c.p
                else:
                    cert[field] = 1  # a field the outcome does not carry
                assert not replay_verdict(c, Verdict(v.status, v.algorithm, cert)), (c, field)

    def test_flipped_status(self):
        c = FormCandidate(k=7, n=3)
        v = auto_test(c)
        assert not replay_verdict(c, Verdict(COMPOSITE, v.algorithm, v.certificate))

    def test_bogus_factor_witness(self, routes_decide_composites):
        c = FormCandidate(k=8, n=7)
        cert = {"divisor": 7}
        assert not replay_verdict(c, Verdict(COMPOSITE, "small-n", cert))  # 7 does not divide 1791
        # the chain meets 9 at the first attempt; 3 divides p = 1791 = 3^2 * 199
        # too, but a record is valid only as deciding writes it
        assert auto_test(c) == Verdict(COMPOSITE, "small-n", {"divisor": 9})
        assert replay_verdict(c, Verdict(COMPOSITE, "small-n", {"divisor": 9}))
        cert = {"divisor": 3}
        assert not replay_verdict(c, Verdict(COMPOSITE, "small-n", cert))
        # the run-record/10 certificate, whose stage named where 9 surfaced
        assert not replay_verdict(c, Verdict(COMPOSITE, "small-n", {"divisor": 9, "stage": "sieve"}))

    def test_small_n_factor_is_met_at_the_first_attempt(self):
        # p = 703 = 2^6 * 11 - 1 = 19 * 37 is a base-3 strong pseudoprime
        # where the gate at 2^k holds: the small-n corner never declines,
        # and its chain ends final-nonzero, so a factor record is INVALID at
        # every attempt though 19 divides p
        c = FormCandidate(k=6, n=11)
        assert gate_small_n(c) and miller_rabin(c.p, (3,))
        assert auto_test(c) == Verdict(COMPOSITE, "small-n", {"outcome": FINAL_NONZERO})
        cert = {"divisor": 19}
        for a in (1, 2, 7, primality.RETRY_CAP):
            assert not replay_verdict(c, Verdict(COMPOSITE, "small-n", cert, a)), a
        # nor does deciding reach large-n there, given factors or not
        assert primality._corner(c) == ((), True)
        assert primality._corner(FormCandidate(k=6, n=11, n_factors=(11,))) == ((), True)
        for a in (1, 7, primality.RETRY_CAP):
            assert not replay_verdict(c, Verdict(COMPOSITE, "large-n", cert, a)), a
        # where that gate fails, large-n's attempts can decline, but deciding
        # meets 31 at its first: a record at any other attempt, or on the
        # chain, is INVALID
        c = FormCandidate(k=2, n=443153)  # p = 31 * 211 * 271
        cert = {"divisor": 31}
        assert auto_test(c) == Verdict(COMPOSITE, "large-n", cert)
        assert replay_verdict(c, Verdict(COMPOSITE, "large-n", cert))
        for a in (2, 7, 13):
            assert not replay_verdict(c, Verdict(COMPOSITE, "large-n", cert, a)), a
        for a in (1, 13):
            assert not replay_verdict(c, Verdict(COMPOSITE, "small-n", cert, a)), a

    def test_factor_record_of_a_composite_n(self):
        # p = 2^4 * 72017 - 1 = 43 * 127 * 211 with n = 11 * 6547: deciding
        # takes the mixed corner, whose chain meets 43, and with n's primes
        # given large-n applies, whose walk meets 43.  The record names no
        # factors, so replay takes both calls, at no other attempt
        c = FormCandidate(k=4, n=72017)
        given = FormCandidate(k=4, n=72017, n_factors=(11, 6547))
        chain = Verdict(COMPOSITE, "small-n", {"divisor": 43})
        walk = Verdict(COMPOSITE, "large-n", {"divisor": 43})
        assert auto_test(c) == chain and auto_test(given) == walk
        for v in (chain, walk):
            assert replay_verdict(c, v)
            for a in (2, 7, primality.RETRY_CAP):
                assert not replay_verdict(c, v._replace(iterations=a)), (v, a)
        # with the factors given, replay takes that call alone
        assert replay_verdict(given, walk) and not replay_verdict(given, chain)

    def test_factor_record_of_an_unsplit_n(self, routes_decide_composites):
        # n = 65537 * 65539 has no prime factor up to SIEVE_BOUND, so replay
        # cannot give the primes a --q call walked: where the gate at 2^k
        # fails, the divisor alone is checked
        c = FormCandidate(k=4, n=65537 * 65539)  # p = 43 * 101 * 349 * 45341
        assert not gate_small_n(c)
        for algorithm in ("small-n", "large-n"):
            assert replay_verdict(c, Verdict(COMPOSITE, algorithm, {"divisor": 43}, 9))
        assert not replay_verdict(c, Verdict(COMPOSITE, "large-n", {"divisor": 7}, 9))

    def test_wrong_candidate(self):
        c = FormCandidate(k=2, n=2633)
        v = auto_test(c)
        other = FormCandidate(k=2, n=2503)
        assert not replay_verdict(other, v)

    def test_tampered_order_point(self, routes_decide_composites):
        # the record's point is x(Q) = -(iterations + 1); a forged outcome, a
        # point that declines or decides otherwise, forged factors and a
        # field no order certificate holds all fail
        cases = [
            FormCandidate(k=2, n=2633),
            TWO_PRIME_BIG_PRIME,
            FormCandidate(k=2, n=105, n_factors=(3, 5, 7)),
            DECLINING,
            THREE_PRIME_COMPOSITE,
        ]
        for c in cases:
            v = auto_test(c)
            assert v.algorithm == "large-n" and "outcome" in v.certificate
            assert replay_verdict(c, v)
            flipped = FINAL_NONZERO if v.status == PRIME else FINAL_ZERO
            factors = v.certificate.get("factors", [c.n])
            forgeries = [
                {"outcome": flipped},
                {"base_point": [2, 2]},
                {"m": c.p - 1},
                # n is no prime, or is the one factor, which goes unwritten
                {"factors": [c.n]},
                {"factors": [1, c.n]},
                {"factors": factors[1:]},
                {"factors": factors + [1]},
            ]
            for change in forgeries:
                cert = {**v.certificate, **change}
                assert not replay_verdict(c, v._replace(certificate=cert)), (c, change)
            assert not replay_verdict(c, v._replace(status=(COMPOSITE if v.status == PRIME
                                                            else PRIME)))
        # p = 947 declines x(Q) = -2 .. -5: no record may name them
        v = auto_test(DECLINING)
        for a in range(1, 5):
            assert not replay_verdict(DECLINING, v._replace(iterations=a)), a

    def test_any_point_with_both_symbols_certifies_a_prime(self):
        # p = 10531 is prime: every x(Q) = -(a + 1) that does not decline proves
        # it, so a record naming another a than the route's replays valid
        c = FormCandidate(k=2, n=2633)
        v = auto_test(c)
        assert v.iterations == 1
        decided = [a for a in range(1, primality.RETRY_CAP + 1)
                   if primality._evaluate(c, a, [c.n], False) is not None]
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
        # every x(Q) = -(a + 1) a large-n record can name; small-n has one point
        if algorithm == "large-n":
            cert = {"outcome": FINAL_ZERO}
            if c.n_factors:
                cert["factors"] = list(c.n_factors)
            attempts = range(1, primality.RETRY_CAP + 1)
        else:
            cert = {"outcome": FINAL_ZERO}
            attempts = (1,)
        for a in attempts:
            assert not replay_verdict(c, Verdict(PRIME, algorithm, cert, a)), a
            assert not replay_verdict(c, Verdict(PRIME, algorithm, {**cert, "base_point": [2, a]}, a))

    def test_vanished_multiple_multiplies_by_n(self):
        # p = 383 is prime, so 3 * Q is finite whatever the record claims
        c = FormCandidate(k=7, n=3)
        cert = {"outcome": "vanished-multiple", "base_point": [5, 1]}
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
            (WITNESSED, DISPATCH),  # base 3 witnesses p
            (FormCandidate(k=90, n=3), DISPATCH),  # the small-n gate holds
            (FormCandidate(k=89, n=1), DISPATCH),  # Mersenne, and the small-n gate holds
        ]
        for c, v in forgeries:
            assert not replay_verdict(c, v), (c, v)

    def test_inconclusive_is_a_curve_route_giving_up(self, monkeypatch):
        # p = 2671 = 2^4 * 167 - 1 is a large-n prime that attempt 1
        # decides, so no give-up for it replays valid
        c = FormCandidate(k=4, n=167)
        cap = primality.RETRY_CAP
        v = Verdict(INCONCLUSIVE, "large-n", {}, cap)
        assert primality._evaluate(c, 1, (167,), False).status == PRIME
        assert not replay_verdict(c, v)
        # with every attempt declining, deciding gives up after RETRY_CAP of
        # them, and that record alone replays valid
        monkeypatch.setattr(primality, "_evaluate", lambda *args: None)
        assert auto_test(c) == v and replay_verdict(c, v)
        forgeries = [
            (c, v._replace(certificate={"attempts": 1},
                           iterations=1)),
            (c, v._replace(certificate={"attempts": 0})),
            (c, v._replace(iterations=1)),
            (c, v._replace(algorithm="small-n")),  # the small-n gate fails
            (c, v._replace(algorithm="auto")),
            (c, v._replace(iterations=2)),
            (c, v._replace(certificate={"attempts": cap + 1},
                           iterations=cap + 1)),
            (c, v._replace(certificate={"attempts": -1})),
            # the run-record/9 certificate, which iterations already said
            (c, v._replace(certificate={"attempts": cap})),
            (c, v._replace(certificate={**v.certificate, "gate": "large-n"})),
            (c, DISPATCH),  # the dispatch give-up: its certificate too is empty
            (FormCandidate(k=7, n=3), v),  # the large-n gate fails
        ]
        for c, forged in forgeries:
            assert not replay_verdict(c, forged), (c, forged)

    def test_large_n_give_up_checks_the_factors(self, monkeypatch):
        # LARGE_GATE_UNDECIDED's n is composite, so auto_test never takes
        # large-n for it, and a give-up without factors stands for n itself
        c = LARGE_GATE_UNDECIDED
        assert gate_large_n(c) and auto_test(c).algorithm == "auto"
        forged = Verdict(INCONCLUSIVE, "large-n", {}, 20)
        assert not replay_verdict(c, forged)
        # the small-n corner never declines: no give-up stands for it
        cap = primality.RETRY_CAP
        small = Verdict(INCONCLUSIVE, "small-n", {"factors": [19, 137]}, cap)
        assert not replay_verdict(FormCandidate(k=12, n=19 * 137), small)
        # factors given with the candidate are recorded, and replay checks
        # their product and primality: with every attempt declining, the
        # route gives up on p = 1000507 after RETRY_CAP of them
        c = TWO_PRIME_BIG_PRIME
        monkeypatch.setattr(primality, "_evaluate", lambda *args: None)
        v = auto_test(c)
        assert v == Verdict(INCONCLUSIVE, "large-n", {"factors": [389, 643]}, cap)
        assert replay_verdict(c, v)
        for factors in ([389 * 643], [389, 643, 1], [389, 647], [389]):
            forged = v._replace(certificate={**v.certificate, "factors": factors})
            assert not replay_verdict(c, forged), factors
        cert = {}
        assert not replay_verdict(c, v._replace(certificate=cert))
        # p = 10411 = 29 * 359 is large-n's too with its factors, but base 3
        # witnesses it: auto_test never gives up on it
        c = FormCandidate(k=2, n=19 * 137, n_factors=(19, 137))
        assert auto_test(c) == WITNESS
        assert not replay_verdict(c, v._replace(certificate={**cert, "factors": [19, 137]}))

    def test_decided_iterations_are_a_decide_paths(self):
        # every route but large-n decides on its first attempt; large-n's
        # evaluator can decline one, so it may take up to RETRY_CAP
        c = FormCandidate(k=7, n=3)
        v = auto_test(c)
        assert replay_verdict(c, v)
        for iterations in (0, 2, 999):
            assert not replay_verdict(c, v._replace(iterations=iterations)), iterations
        c = DECLINING  # p = 947: the fifth attempt decides
        v = auto_test(c)
        assert (v.algorithm, v.iterations) == ("large-n", 5) and replay_verdict(c, v)
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
        # p = 1891 = 31 * 61 passes the presieve and is a base-3 strong
        # pseudoprime: the mixed corner decides it, and no p <= 10^4 past the
        # witness reaches the fallback, but the oracle's record is a proof
        c = FormCandidate(k=2, n=473)
        cert = {"least_factor": 1891}
        assert not replay_verdict(c, Verdict(PRIME, "trial-division", cert))
        cert = {"least_factor": 31}
        assert auto_test(c).algorithm == "small-n"
        assert primality._oracle_verdict(c.p) == Verdict(COMPOSITE, "trial-division", cert)
        assert replay_verdict(c, Verdict(COMPOSITE, "trial-division", cert))
        # p <= 10^4 is trial division's, p above it Miller-Rabin's
        assert not replay_verdict(c, Verdict(COMPOSITE, "miller-rabin",
                                             {"witness": 2}))
        # p = 39 = 3 * 13: the presieve decides, so the oracle's record is no
        # longer what auto_test writes
        c = FormCandidate(k=3, n=5)
        cert = {"least_factor": 3}
        assert not replay_verdict(c, Verdict(COMPOSITE, "trial-division", cert))
        c = FormCandidate(k=2, n=3101)  # p = 12403 = 79 * 157
        assert not replay_verdict(c, Verdict(COMPOSITE, "trial-division", {"least_factor": 79}))
        for witness in (2, 3, None):
            cert = {"witness": witness} if witness else {}
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

    def test_psi_13_is_no_prime_factor(self):
        # psi_13 = 1287836182261 * 2575672364521 passes the 12 default
        # bases, on which a factor at or above PSI_13 was once checked; BPSW
        # refuses it
        assert miller_rabin(PSI_13)
        assert primality._probable_prime(PSI_13) is False
        # p = 2^25 psi_13 - 1 is prime: no corner without n's factors, and
        # the large-n record that rested on psi_13 replays INVALID
        c = FormCandidate(k=25, n=PSI_13)
        assert auto_test(c) == DISPATCH and replay_verdict(c, DISPATCH)
        assert not replay_verdict(c, Verdict(PRIME, "large-n", {"outcome": FINAL_ZERO}))
        c = FormCandidate(k=25, n=PSI_13, n_factors=(1287836182261, 2575672364521))
        v = auto_test(c)
        assert v == Verdict(PRIME, "large-n", {
            "outcome": FINAL_ZERO, "factors": [1287836182261, 2575672364521]})
        assert replay_verdict(c, v)

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
            COMPOSITE, "miller-rabin", {"witness": 11})
        assert rounds == [2, 3, 5, 7, 11]
        rounds.clear()
        assert primality._oracle_verdict(10**12 + 39).status == PRIME
        assert rounds == list(ORACLE_BASES)

    def test_psi_12_factor_builds_no_order_certificate(self):
        # p = 8 * psi_12 - 1 lies below psi_13, so it is decided exactly
        c = FormCandidate(k=3, n=PSI_12)
        assert c.p < PSI_13
        v = auto_test(c)
        assert v == WITNESS
        assert replay_verdict(c, v)
        # the exact oracle's least witness is 2
        assert _fallback(c) == Verdict(COMPOSITE, "miller-rabin", {"witness": 2})
        # the order certificate that 12-base Miller-Rabin let through
        order = {"outcome": FINAL_NONZERO, "factors": [PSI_12]}
        assert not replay_verdict(c, Verdict(COMPOSITE, "large-n", order))

    @pytest.mark.parametrize("k", [4, 6])
    def test_psi_12_factor_above_psi_13(self, k):
        # no route runs on the composite factor, and the fallback's presieve
        # finds that 3 divides p
        c = FormCandidate(k=k, n=PSI_12)
        assert c.p >= PSI_13 and c.p % 3 == 0
        v = auto_test(c)
        assert v == Verdict(COMPOSITE, "sieve", {"divisor": 3})
        assert factor_witness(v) == 3
        assert replay_verdict(c, v)


class TestFactorWitnessExtraction:
    def test_from_factor_certificate(self):
        v = Verdict(COMPOSITE, "small-n", {"divisor": 3})
        assert factor_witness(v) == 3

    def test_from_gcd_hit_sequence(self):
        c = FormCandidate(k=9, n=1)  # p = 511 = 7 * 73; the chain meets a factor
        v = primality._evaluate(c, 1, (), True)
        assert v.status == COMPOSITE and v.certificate.keys() == {"divisor"}
        assert factor_witness(v) in (7, 73)
        # auto_test's presieve finds 7 first
        assert factor_witness(auto_test(c)) == 7

    def test_prime_has_no_witness(self):
        v = mersenne_test(5)
        assert factor_witness(v) is None
