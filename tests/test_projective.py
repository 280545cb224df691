"""The deferred-gcd backend against the affine walks.

double_x_only_chain's end must be what the step-by-step affine code
gives: the same x while every doubling is a unit, and else a Z whose gcd
with N holds the primes mod which a doubling fails.  scalar_mul is the
affine double-and-add, the reference the x-only ladder
is tested against; these fixtures pin its operation order, its divisors
and the routes built on the chain.
"""

import random
from math import gcd

import pytest

from ecriesel import ecring, primality
from ecriesel.ecring import (
    INFINITY,
    Curve,
    FactorFound,
    Point,
    _x_only_doublings,
    add,
    double,
    double_x_only,
    double_x_only_chain,
    scalar_mul,
)
from ecriesel.numtheory import MERSENNE_FOLD_BITS, FormCandidate, lucas_lehmer, mod_inverse
from ecriesel.primality import (
    COMPOSITE,
    PRIME,
    auto_test,
    replay_verdict,
    test_mersenne as mersenne_test,
)
from ecriesel.sequence import (
    EARLY_INFINITY,
    FINAL_NONZERO,
    FINAL_ZERO,
    GCD_HIT,
    SequenceOutcome,
    chain_outcome,
    run_sequence,
    start_x,
)

from test_chain_walker import agrees_with_affine

# the least j for which the bound proved in the ecring docstring holds
FOLD_MIN_BITS = 16


def affine_multiple(curve, s, pt):
    """Left-to-right affine double-and-add, written out apart from scalar_mul."""
    if s == 0 or pt.is_infinity:
        return INFINITY
    acc = pt
    for bit in bin(s)[3:]:
        acc = double(curve, acc)
        if bit == "1":
            acc = add(curve, acc, pt)
    return acc


def chain_x(n, start, times, s=1):
    """(g, x) for double_x_only_chain's end (X:Z) on E mod n: g = gcd(Z, n),
    and x = X / Z mod n when g = 1, else None."""
    X, Z = double_x_only_chain(n, start, times, s)
    g = gcd(Z, n)
    return g, (X * pow(Z, -1, n) % n if g == 1 else None)


def affine_ops(s):
    """scalar_mul's operations for s: D per bit after the leading one, A after each 1."""
    return bin(s)[3:].replace("1", "DA").replace("0", "D")


def first_failing_op(curve, s, pt):
    """Index of the affine walk's first operation with a non-unit
    denominator, and the partial multiple it starts from."""
    acc = pt
    for i, op in enumerate(affine_ops(s)):
        den = 2 * acc.y if op == "D" else acc.x - pt.x
        if gcd(den, curve.modulus) != 1:
            return i, acc
        acc = double(curve, acc) if op == "D" else add(curve, acc, pt)
    return None, acc


@pytest.fixture
def affine_calls(monkeypatch):
    """The (op, first point) of every double and add that scalar_mul makes,
    leaving out the double that add makes for itself."""
    calls, depth = [], [0]

    def spy(op, fn):
        def wrapped(curve, acc, *rest):
            if depth[0] == 0:
                calls.append((op, acc))
            depth[0] += 1
            try:
                return fn(curve, acc, *rest)
            finally:
                depth[0] -= 1
        return wrapped

    monkeypatch.setattr(ecring, "double", spy("D", double))
    monkeypatch.setattr(ecring, "add", spy("A", add))
    return calls


class TestMersenneSweep:
    def test_chain_outcome_matches_walk_to_600(self):
        # from the route's start, or from 3 where start_x meets a factor;
        # the prime-by-prime affine walk, a full walk with an inversion per
        # doubling, up to k = 300
        kinds = set()
        for k in range(3, 601):
            n = (1 << k) - 1
            try:
                x0 = start_x(n, 1)
            except FactorFound:
                x0 = 3
            kinds.add(agrees_with_affine(n, x0, k, False, per_prime=k <= 300).kind)
        # composite exponents make the chain fail
        assert {GCD_HIT, FINAL_NONZERO, FINAL_ZERO} <= kinds

    def test_verdicts_and_replay_to_300(self):
        for k in range(3, 301):
            v = mersenne_test(k)
            assert v.status == (PRIME if lucas_lehmer(k) else COMPOSITE), k
            assert replay_verdict(FormCandidate(k=k, n=1), v), k


class TestChainFallback:
    def test_early_infinity_found_by_walk(self):
        # x0 = 0 is 2-torsion: S_1 = 0 on E over F_31, and Z stays 0
        for times in (1, 4):
            assert chain_x(31, 0, times) == (31, None)
        out = chain_outcome(31, 0, 5)
        assert out == SequenceOutcome(EARLY_INFINITY)
        walked, trace = run_sequence(31, -1, 0, 5)
        assert out == walked and trace.steps_completed == 1

    def test_gcd_hit_found_by_walk(self):
        # S_1 = 5 * (25 + 1) shares the factor 5 with 35.  Mod 7, x = 5 runs
        # 5 -> 1 -> 0 -> infinity, so 7 joins the end gcd at doubling 3,
        # where the traced walk, stopped at S_1, still holds 5 alone
        assert chain_x(35, 5, 2) == (5, None)
        assert chain_x(35, 5, 3) == (35, None)
        walked, trace = run_sequence(35, -1, 5, 4, four_factor=False)
        assert walked == SequenceOutcome(GCD_HIT, 5) and trace.steps_completed == 1
        assert chain_outcome(35, 5, 3) == walked
        assert chain_outcome(35, 5, 4) == SequenceOutcome(EARLY_INFINITY)

    def test_unit_chain_is_repeated_doubling(self):
        curve = Curve(31, -1)
        x = 4
        for times in range(4):
            assert chain_x(31, 4, times) == (1, x)
            x = double_x_only(curve, x)

    def test_fold_boundaries(self):
        # x = N - 1 and N - 2 put the first folded products at their largest
        for j in (FOLD_MIN_BITS, 17, 31, 61, 127, 521):
            n = (1 << j) - 1
            for x0 in (n - 1, n - 2, 2, 3):
                agrees_with_affine(n, x0, 9)

        # the fold leaves X and Z partly reduced, not equal to the division's
        # X and Z: congruent to them mod N, and from X in [0, N + 64] and Z
        # in [-32, N + 32] (the ranges |X +- Z| is largest at) to X in
        # [0, N + 51] and Z in [-26, N + 26], once j >= FOLD_MIN_BITS
        def step_both(fold_xz, div_xz, n):
            fold_xz = _x_only_doublings(*fold_xz, 1, n, True)
            div_xz = _x_only_doublings(*div_xz, 1, n, False)
            X, Z = fold_xz
            assert (X - div_xz[0]) % n == 0 and (Z - div_xz[1]) % n == 0
            assert 0 <= X <= n + 51 and -26 <= Z <= n + 26
            return fold_xz, div_xz

        for j in range(FOLD_MIN_BITS, 130):
            n = (1 << j) - 1
            for X in (0, 1, n - 1, n, n + 64):
                for Z in (-32, -1, 0, n - 1, n + 32):
                    fold_xz = div_xz = (X, Z)
                    for _ in range(4):
                        fold_xz, div_xz = step_both(fold_xz, div_xz, n)
        # random inputs of those ranges at the smallest fold modulus
        rng = random.Random(16)
        n = (1 << FOLD_MIN_BITS) - 1
        for _ in range(20000):
            xz = (rng.randrange(n + 65), rng.randrange(-32, n + 33))
            step_both(xz, xz, n)

    def test_fold_starts_at_its_proved_modulus(self, monkeypatch):
        # 2^j - 1 below 2^MERSENNE_FOLD_BITS is reduced by division: the
        # fold is proved from FOLD_MIN_BITS on, and pays from the dispatch
        # bound on
        assert MERSENNE_FOLD_BITS >= FOLD_MIN_BITS
        seen = set()

        def spy(X, Z, times, n, fold):
            seen.add((n.bit_length(), fold))
            return _x_only_doublings(X, Z, times, n, fold)

        monkeypatch.setattr(ecring, "_x_only_doublings", spy)
        js = range(2, MERSENNE_FOLD_BITS + 2)
        for j in js:
            double_x_only_chain((1 << j) - 1, 2, 1)
        assert seen == {(j, j >= MERSENNE_FOLD_BITS) for j in js}

    def test_replay_recomputes_fallback_outcomes(self, routes_decide_composites):
        # parameter-scan (k = 4: 5 | M_4 = 15), gcd-hit (k = 6, 9) and
        # final-nonzero (k = 11) records, with the presieve and the witness
        # test out of the way
        for k in (4, 6, 9, 11):
            v = mersenne_test(k)
            assert v.status == COMPOSITE
            assert replay_verdict(FormCandidate(k=k, n=1), v)


class TestJacobianScalarMul:
    """scalar_mul, once a Jacobian walk with an affine tail, is the affine
    walk from its first operation on."""

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

    def test_equal_x_sum_finite_mod_a_factor(self, affine_calls):
        # 209 = 11 * 19: the last op adds P to 4P, which is P mod 11 and -P
        # mod 19, so 5P is (3, 9) mod 11 and infinity mod 19 only.  The
        # affine add reports 11.
        curve, pt = Curve(209, 4), Point(102, 178)
        assert first_failing_op(curve, 5, pt) == (2, Point(102, 145))
        for walk in (scalar_mul, affine_multiple):
            with pytest.raises(FactorFound) as info:
                walk(curve, 5, pt)
            assert info.value.divisor == 11
        assert affine_calls[-1] == ("A", Point(102, 145))

    def test_unreduced_point(self):
        curve, raw = Curve(31, 6), Point(3 + 31, 3 - 62)
        for s in range(2, 20):
            assert scalar_mul(curve, s, raw) == affine_multiple(curve, s, Point(3, 3))

    # (N, m, x, y, s), m = (x^3 - y^2)/x mod N.  N = l * 1000003: the walk
    # meets the divisor l.  Prime N: a partial multiple is infinity and the
    # walk goes on from there.
    FAILING_WALKS = [
        (11 * 1000003, 5500008, 2, 5, 315),
        (13 * 1000003, 6500011, 2, 5, 223),
        (23 * 1000003, 11500026, 2, 5, 375),
        (31 * 1000003, 7750027, 4, 7, 371),
        (1009, 508, 2, 1, 365),
        (10007, 6680, 3, 1, 1669),
        (65537, 39347, 5, 1, 1539),
        (11 * 1000003, 5500008, 2, 5, 8413),
        (13 * 1000003, 6500011, 2, 5, 8011114023),
        (1009, 508, 2, 1, 8919),
        (65537, 39347, 5, 1, 6424964865),
    ]

    def test_failing_walks_pass_checkpoints(self):
        # the first seven fixtures fail at operations 7 to 15, the last four
        # later, at 17 to 50
        failing = [first_failing_op(Curve(n, m), s, Point(x, y))[0]
                   for n, m, x, y, s in self.FAILING_WALKS]
        assert all(7 <= f < 16 for f in failing[:7])
        assert failing[7:] == [17, 50, 17, 48]

    @pytest.mark.parametrize("n, m, x, y, s", FAILING_WALKS)
    def test_affine_tail_starts_at_the_failing_op(self, affine_calls, n, m, x, y, s):
        # the walk makes every operation in order up to the failing one,
        # which starts from the partial multiple before it, and raises
        # there or goes on to the last
        curve, pt = Curve(n, m), Point(x, y)
        assert ecring.on_curve(curve, pt)
        ops = affine_ops(s)
        failing, before = first_failing_op(curve, s, pt)
        assert failing < len(ops) - 1
        try:
            want = affine_multiple(curve, s, pt)
        except FactorFound as exc:
            assert exc.divisor not in (1, n)
            with pytest.raises(FactorFound) as info:
                scalar_mul(curve, s, pt)
            assert info.value.divisor == exc.divisor
            assert [op for op, _ in affine_calls] == list(ops[:failing + 1])
        else:
            assert scalar_mul(curve, s, pt) == want
            assert [op for op, _ in affine_calls] == list(ops)
        assert affine_calls[failing][1] == before


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
    def test_auto_test_checks_each_factor_once(self, monkeypatch, routes_decide_composites):
        # p = 4000011 is composite (3 divides it): the route runs with the
        # presieve and the witness test out of the way
        calls = []
        original = primality._probable_prime

        def counting(q):
            calls.append(q)
            return original(q)

        monkeypatch.setattr(primality, "_probable_prime", counting)
        c = FormCandidate(k=2, n=1000003)  # q > 10^4: Miller-Rabin territory
        v = auto_test(c)
        assert v.algorithm == "large-n" and v.status in (PRIME, COMPOSITE)
        assert calls == [1000003]
        assert replay_verdict(c, v)
