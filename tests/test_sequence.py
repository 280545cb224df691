import random

import pytest

from ecriesel.ecring import Curve, FactorFound, scalar_mul
from ecriesel.numtheory import FormCandidate, jacobi, sieve_primes, trial_division
from ecriesel.oracle import enumerate_points, point_order
from ecriesel.primality import COMPOSITE, PRIME, _evaluate
from ecriesel.primality import test_mersenne as mersenne_test
from ecriesel.sequence import (
    EARLY_INFINITY,
    FINAL_NONZERO,
    FINAL_ZERO,
    GCD_HIT,
    mersenne_sequence,
    run_sequence,
)


class TestRunSequence:
    def test_mersenne_31_trace(self):
        outcome, trace = run_sequence(31, 3, 30, 5, four_factor=False)
        assert outcome.kind == FINAL_ZERO
        assert trace.s_values == (2, 2, 9, 4, 0)
        assert trace.x_values == (30, 2, 10, 20, 0)
        assert trace.steps_completed == 5

    def test_mersenne_15_trace(self):
        outcome, trace = run_sequence(15, 3, 14, 4, four_factor=False)
        assert outcome.kind == FINAL_NONZERO
        assert trace.s_values == (2, 2, 8, 2)
        assert trace.x_values == (14, 2, 8, 2)

    def test_two_torsion_start_vanishes_immediately(self):
        outcome, trace = run_sequence(31, 3, 0, 5)
        assert outcome.kind == EARLY_INFINITY
        assert trace.steps_completed == 1
        assert trace.s_values == (0,)

    def test_gcd_hit_carries_proper_divisor(self):
        # x = 5 on modulus 35: S_1 = 5^3 - 3*5 = 110, gcd(110, 35) = 5
        outcome, trace = run_sequence(35, 3, 5, 4, four_factor=False)
        assert outcome.kind == GCD_HIT
        assert trace.steps_completed == 1 and outcome.divisor == 5
        assert 35 % outcome.divisor == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sequence(31, 3, 5, 1)
        with pytest.raises(ValueError):
            run_sequence(30, 3, 5, 4)
        with pytest.raises(ValueError):
            run_sequence(31, 31, 5, 4)

    def test_four_factor_never_changes_classification(self):
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randrange(3, 3000) | 1
            m = rng.randrange(1, n)
            if m % n == 0:
                continue
            x0 = rng.randrange(0, n)
            k = rng.randrange(2, 9)
            with_four, trace_four = run_sequence(n, m, x0, k, four_factor=True)
            without, trace = run_sequence(n, m, x0, k, four_factor=False)
            assert with_four.kind == without.kind
            assert trace_four.steps_completed == trace.steps_completed
            assert with_four.divisor == without.divisor

    def test_denominator_is_scaled_y_square(self):
        # over a prime modulus, S_i (with the 4-factor) = 4 * y^2 of the
        # (i-1)-fold doubling of any curve point lying over x0
        for p in [q for q in sieve_primes(200) if q % 4 == 3]:
            k = ((p + 1) & -(p + 1)).bit_length() - 1
            for m in range(1, p):
                curve = Curve(p, m)
                for pt in enumerate_points(p, m):
                    if pt.is_infinity:
                        continue
                    outcome, trace = run_sequence(p, m, pt.x, k)
                    for i, s in enumerate(trace.s_values, start=1):
                        lifted = scalar_mul(curve, 1 << (i - 1), pt)
                        if lifted.is_infinity:
                            break
                        assert s == 4 * lifted.y * lifted.y % p, (p, m, pt, i)

    def test_final_zero_iff_lift_has_order_two_to_k(self):
        # with m a non-residue, the full-run pattern characterizes points of
        # order exactly 2^k: checked against exhaustive oracle orders
        for p in [q for q in sieve_primes(500) if q % 4 == 3]:
            k = ((p + 1) & -(p + 1)).bit_length() - 1
            m = next(m for m in range(2, p) if jacobi(m, p) == -1)
            for pt in enumerate_points(p, m):
                if pt.is_infinity or pt.y == 0:
                    continue
                outcome, _ = run_sequence(p, m, pt.x, k)
                order = point_order(p, m, pt)
                assert (outcome.kind == FINAL_ZERO) == (order == 1 << k), (p, m, pt)


class TestMersenneSequence:
    def test_known_small_exponents(self):
        outcome, _ = mersenne_sequence(5)
        assert outcome.kind == FINAL_ZERO
        outcome, trace = mersenne_sequence(11)
        assert outcome.kind == FINAL_NONZERO and trace.s_values[-1] == 544
        # start_x(15, 1) meets (5/15) = 0 at u = 2: no chain
        with pytest.raises(FactorFound) as info:
            mersenne_sequence(4)
        assert info.value.divisor == 5

    def test_composite_exponent_is_never_final_zero(self):
        m = (1 << 11) - 1
        assert trial_division(m) != m  # 2047 = 23 * 89
        outcome, _ = mersenne_sequence(11)
        assert outcome.kind != FINAL_ZERO

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            mersenne_sequence(2)

    def test_uses_fixed_parameters(self):
        # E (m = -1) from start_x(127, 1) = 2, with no 4-factor
        _, trace = mersenne_sequence(7)
        assert trace.modulus == 127
        assert trace.m == 126
        assert trace.x_values[0] == 2
        assert not trace.four_factor

    def test_follows_the_decision_to_300(self):
        # the traced chain ends as the small-n route's certificate says: the
        # same final outcome, a failure whose primes the route's one gcd
        # holds, the same start-search factor, or, for M_3 (the oracle's),
        # final-zero for a prime.  test_mersenne decides M_3 and the primes
        # by the same verdict, and every composite M_k at the presieve or on
        # the witness
        failed = {GCD_HIT, EARLY_INFINITY}
        kinds = set()
        for k in range(3, 301):
            v = mersenne_test(k)
            if v.status == COMPOSITE:
                assert v.algorithm in ("sieve", "miller-rabin"), k
                v = _evaluate(FormCandidate(k=k, n=1), 1, (), True)
            cert = v.certificate
            try:
                outcome, _ = mersenne_sequence(k)
            except FactorFound as exc:  # a zero symbol of the start search
                assert cert == {"divisor": exc.divisor}, k
                continue
            if v.algorithm == "small-n" and outcome.kind in failed:
                # the first non-unit S_i's primes divide the walk's end Z,
                # whose proper gcd with p is the record's divisor alone
                p = (1 << k) - 1
                ended = cert.get("outcome", GCD_HIT)
                first, end = outcome.divisor or p, cert.get("divisor", p)
                assert ended in failed and pow(end, first.bit_length(), first) == 0, k
                assert cert == ({"divisor": end} if ended == GCD_HIT else {"outcome": ended}), k
                kinds.add((outcome.kind, ended, first == end))
            elif v.algorithm == "small-n":
                assert cert == {"outcome": outcome.kind}, k
            else:
                assert (outcome.kind == FINAL_ZERO) == (v.status == PRIME), k
        # M_6 = 63: the run stops at S_2, which 9 divides, and the walk's
        # end Z vanishes mod 63; mostly the end gcd holds more primes
        assert kinds == {(GCD_HIT, GCD_HIT, True), (GCD_HIT, GCD_HIT, False),
                         (GCD_HIT, EARLY_INFINITY, False)}
