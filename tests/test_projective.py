"""The deferred-gcd backend against the affine walks it replaces.

double_x_only_chain and the Jacobian scalar_mul must return exactly what
the step-by-step affine code returns.  The chain names a non-unit
doubling's step and divisor itself; scalar_mul hands a non-unit case back
to the affine walk.  These fixtures pin both and the routes built on them.
"""

import pytest

from ecriesel import primality
from ecriesel.ecring import (
    INFINITY,
    ChainFailure,
    Curve,
    FactorFound,
    Point,
    add,
    double,
    double_x_only,
    double_x_only_chain,
    scalar_mul,
)
from ecriesel.numtheory import FormCandidate, lucas_lehmer, mod_inverse
from ecriesel.primality import (
    COMPOSITE,
    PRIME,
    auto_test,
    replay_verdict,
    test_large_n as large_n_test,
    test_mersenne as mersenne_test,
)
from ecriesel.sequence import (
    EARLY_INFINITY,
    FINAL_NONZERO,
    FINAL_ZERO,
    GCD_HIT,
    chain_outcome,
    run_sequence,
)


def affine_multiple(curve, s, pt):
    """Left-to-right affine double-and-add, the reference for scalar_mul."""
    if s == 0 or pt.is_infinity:
        return INFINITY
    acc = pt
    for bit in bin(s)[3:]:
        acc = double(curve, acc)
        if bit == "1":
            acc = add(curve, acc, pt)
    return acc


class TestMersenneSweep:
    def test_chain_outcome_matches_walk_to_600(self):
        kinds = set()
        for k in range(3, 601):
            n = (1 << k) - 1
            walked, _ = run_sequence(n, 3, n - 1, k, four_factor=False)
            assert chain_outcome(n, 3, n - 1, k, four_factor=False) == walked, k
            kinds.add(walked.kind)
        # composite exponents make the chain name its failing step
        assert {GCD_HIT, FINAL_NONZERO, FINAL_ZERO} <= kinds

    def test_verdicts_and_replay_to_300(self):
        for k in range(3, 301):
            v = mersenne_test(k)
            assert v.status == (PRIME if lucas_lehmer(k) else COMPOSITE), k
            assert replay_verdict(FormCandidate(k=k, n=1), v), k


class TestChainFallback:
    def test_early_infinity_found_by_walk(self):
        # x0 = 0 is 2-torsion: S_1 = 0 on y^2 = x^3 - 3x over F_31
        assert double_x_only_chain(Curve(31, 3), 0, 4) == ChainFailure(1, 31)
        out = chain_outcome(31, 3, 0, 5)
        assert out.kind == EARLY_INFINITY and out.step == 1
        assert out == run_sequence(31, 3, 0, 5)[0]

    def test_gcd_hit_found_by_walk(self):
        # S_1 = 5 * (25 - 3) shares the factor 5 with 35
        assert double_x_only_chain(Curve(35, 3), 5, 3) == ChainFailure(1, 5)
        out = chain_outcome(35, 3, 5, 4, four_factor=False)
        assert out == run_sequence(35, 3, 5, 4, four_factor=False)[0]
        assert out.kind == GCD_HIT and (out.step, out.divisor) == (1, 5)

    def test_failed_chain_stops_at_a_checkpoint(self):
        # x0 = 0 makes Z = 0 at doubling 1; all 10^7 doublings would take
        # minutes, so only the gcd after doubling 1 can end this in time
        for n in ((1 << 61) - 1, 1001):  # shift-and-fold, then division
            assert double_x_only_chain(Curve(n, 3), 0, 10**7) == ChainFailure(1, n)

    def test_unit_chain_is_repeated_doubling(self):
        curve = Curve(31, 3)
        x = 30
        for times in range(4):
            assert double_x_only_chain(curve, 30, times) == x
            x = double_x_only(curve, x)

    def test_fold_boundaries(self):
        # x = N - 1 and m = N - 1 put every folded product at its largest
        for j in (3, 4, 5, 7, 13, 61, 127):
            n = (1 << j) - 1
            for m in (1, 3, n - 1):
                for x0 in (n - 1, n - 2, 2):
                    assert chain_outcome(n, m, x0, 9) == run_sequence(n, m, x0, 9)[0]

    def test_replay_recomputes_fallback_outcomes(self):
        # gcd-hit (k = 4: M_4 = 15) and final-nonzero (k = 11) records
        for k in (4, 6, 9, 11):
            v = mersenne_test(k)
            assert v.status == COMPOSITE
            assert replay_verdict(FormCandidate(k=k, n=1), v)


class TestJacobianScalarMul:
    def test_partial_multiple_at_infinity(self):
        # (6, 3) has order 8 on y^2 = x^3 - 3x over F_7
        curve, pt = Curve(7, 3), Point(6, 3)
        for s in range(0, 40):
            assert scalar_mul(curve, s, pt) == affine_multiple(curve, s, pt), s
        assert scalar_mul(curve, 9, pt) == pt
        assert scalar_mul(curve, 16, pt).is_infinity

    def test_factor_found_divisor_matches_affine(self):
        seen = 0
        for n in range(9, 400, 2):
            curve = Curve(n, 3)
            for x in range(1, 8):
                pt = Point(x, x + 1)
                for s in (3, 6, 11, 45, 97):
                    try:
                        want = affine_multiple(curve, s, pt)
                    except FactorFound as exc:
                        seen += 1
                        with pytest.raises(FactorFound) as info:
                            scalar_mul(curve, s, pt)
                        assert info.value.divisor == exc.divisor
                    else:
                        assert scalar_mul(curve, s, pt) == want
        assert seen > 100

    def test_unreduced_point(self):
        curve, raw = Curve(31, 6), Point(3 + 31, 3 - 62)
        for s in range(2, 20):
            assert scalar_mul(curve, s, raw) == affine_multiple(curve, s, Point(3, 3))


class TestModInverse:
    def test_three_way_contract(self):
        for n in (2, 9, 15, 31, 105, 1 << 61):
            for a in list(range(-3, 40)) + [n - 1, n, 3 * n + 1]:
                out = mod_inverse(a, n)
                if out.inverse is not None:
                    assert out.divisor is None and a * out.inverse % n == 1
                elif out.divisor is not None:
                    assert 1 < out.divisor < n and n % out.divisor == 0
                    assert a % out.divisor == 0
                else:
                    assert a % n == 0


class TestCofactorCheckOnce:
    def test_auto_test_checks_each_factor_once(self, monkeypatch):
        calls = []
        original = primality._probable_prime

        def counting(q, cfg):
            calls.append(q)
            return original(q, cfg)

        monkeypatch.setattr(primality, "_probable_prime", counting)
        c = FormCandidate(k=2, n=1000003)  # q > 10^6: Miller-Rabin territory
        v = auto_test(c)
        assert v.algorithm == "large-n" and v.status in (PRIME, COMPOSITE)
        assert calls == [1000003]
        assert replay_verdict(c, v)

    def test_direct_call_still_rejects_composite_factor(self):
        with pytest.raises(ValueError):
            large_n_test(FormCandidate(k=2, n=1000001))  # 101 * 9901
