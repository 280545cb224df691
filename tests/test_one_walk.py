"""One walk for the small-n test: s * P and the k - 1 chain doublings.

chain_outcome(n, m, P, k, s) runs the Jacobian ops of s * P and the x-only
doublings under one checkpoint schedule.  It must decide exactly what the
two walks it replaces decide, scalar_mul then chain_outcome from the
multiple's x, and what the affine references decide (affine_multiple, then
run_sequence).  The fixed cases put the first non-unit at an inner
operation of the multiple (FactorFound), at its last operation (the
multiple vanishes), at chain step 1 (the phase boundary) and mid-chain
(GCD_HIT, EARLY_INFINITY), on a product of two primes reduced by `%` and
on a product of three reduced by the Riesel fold.
"""

from functools import cache
from math import prod

import pytest

from ecriesel import ecring
from ecriesel.ecring import (
    INFINITY,
    ChainFailure,
    Curve,
    FactorFound,
    Point,
    _jacobian_ops,
    _riesel_fold,
    _x_only_doublings,
    double_x_only_chain,
    scalar_mul,
)
from ecriesel.numtheory import FormCandidate, jacobi, miller_rabin
from ecriesel.primality import (
    PRIME,
    _curve_point_candidates,
    _small_n_verdict,
    curve_coefficient,
    replay_verdict,
)
from ecriesel.sequence import (
    EARLY_INFINITY,
    FINAL_NONZERO,
    FINAL_ZERO,
    GCD_HIT,
    SequenceOutcome,
    chain_outcome,
    run_sequence,
)
from test_chain_walker import crt, order_2s_abscissa
from test_projective import affine_multiple, affine_ops, first_failing_op
from test_riesel_fold import K, Q18

Q18B = 5 * (1 << 18) - 1  # prime, = -1 mod 2^18 like Q18


@cache
def fold_primes():
    """(Q18, Q18B, r): r prime and Q18 * Q18B * r = c * 2^K - 1, so
    r = -1 mod 2^18 as well."""
    qq = Q18 * Q18B
    c = pow(2, -K, qq)
    while not miller_rabin((c * (1 << K) - 1) // qq):
        c += qq
    return Q18, Q18B, (c * (1 << K) - 1) // qq


def primes_of(name):
    """The prime factors of the modulus reduced by `%` or by the fold."""
    return (Q18, Q18B) if name == "division" else fold_primes()


@cache
def order_2s_point(q, s):
    """(m, x, y): a point of order exactly 2^s on y^2 = x^3 - m x over F_q."""
    m, x = order_2s_abscissa(q, s)
    return m, x, pow((x * x - m) * x % q, (q + 1) // 4, q)


@cache
def odd_order_point(q):
    """(m, x, y): a point of odd order above 1 on y^2 = x^3 - m x over F_q
    (order 5 for Q18B), which no multiple by 3 * 2^a and no doubling
    takes to 2-torsion or infinity."""
    m = next(a for a in range(2, q) if jacobi(a, q) == -1)
    for x in range(2, q):
        rhs = (x * x - m) * x % q
        if jacobi(rhs, q) == 1:
            point = scalar_mul(Curve(q, m), (q + 1) & -(q + 1), Point(x, pow(rhs, (q + 1) // 4, q)))
            if not point.is_infinity:
                return m, point.x, point.y


def walk_case(primes, s, everywhere):
    """(curve, point) mod prod(primes): of order exactly 2^s mod the first
    prime, and mod the others too when everywhere, else of odd order there."""
    ms, xs, ys = [], [], []
    for i, q in enumerate(primes):
        m, x, y = order_2s_point(q, s) if i == 0 or everywhere else odd_order_point(q)
        ms.append((m, q))
        xs.append((x, q))
        ys.append((y, q))
    curve, point = Curve(prod(primes), crt(ms)), Point(crt(xs), crt(ys))
    assert ecring.on_curve(curve, point)
    return curve, point


def two_walks(curve, s, point, k):
    """What the small-n test decided with two walks: None when s * P is
    infinity, else the chain from its x; raises FactorFound."""
    start = scalar_mul(curve, s, point)
    return None if start.is_infinity else chain_outcome(curve.modulus, curve.m, start.x, k)


def affine_walks(curve, s, point, k):
    """The same from the affine references."""
    start = affine_multiple(curve, s, point)
    return None if start.is_infinity else run_sequence(curve.modulus, curve.m, start.x, k)[0]


# (case, multiplier, k, the point's order 2^s everywhere, expected) for s;
# the expected failing op of the multiple is given as an index into its
# ops, or None when the multiple meets no non-unit.
def cases(s, q):
    t = 2 if s < 8 else 5  # a mid-chain step
    return {
        "multiple-factor": (3 << (s + 2), 4, False, ("factor", q), s + 1),
        "multiple-vanishes": (1 << s, 4, True, None, s - 1),
        # 2^s P is infinity, and 2^s P + P goes on to the chain from P
        "multiple-passes-infinity": ((1 << s) + 1, s + 2, True,
                                     SequenceOutcome(EARLY_INFINITY, s), s - 1),
        "boundary-gcd": (3 << (s - 1), 4, False, SequenceOutcome(GCD_HIT, 1, q), None),
        "boundary-infinity": (3 << (s - 1), 4, True, SequenceOutcome(EARLY_INFINITY, 1), None),
        "mid-gcd": (3 << (s - t), 2 * t, False, SequenceOutcome(GCD_HIT, t, q), None),
        "mid-infinity": (3 << (s - t), 2 * t, True, SequenceOutcome(EARLY_INFINITY, t), None),
        "final-nonzero": (3, s, False, SequenceOutcome(FINAL_NONZERO), None),
        "final-zero": (3, s, True, SequenceOutcome(FINAL_ZERO), None),
    }


def outcome(fn, *args):
    try:
        return fn(*args)
    except FactorFound as exc:
        return ("factor", exc.divisor)


@pytest.mark.parametrize("name", ["division", "fold"])
@pytest.mark.parametrize("s", [3, 17])
@pytest.mark.parametrize("case", sorted(cases(3, 0)))
def test_one_walk_decides_as_two(name, s, case):
    primes = primes_of(name)
    mult, k, everywhere, want, failing_op = cases(s, primes[0])[case]
    curve, point = walk_case(primes, s, everywhere)
    assert (_riesel_fold(curve.modulus) is not None) == (name == "fold")
    assert first_failing_op(curve, mult, point)[0] == failing_op
    got = outcome(chain_outcome, curve.modulus, curve.m, point, k, mult)
    assert got == want
    assert outcome(two_walks, curve, mult, point, k) == want
    assert outcome(affine_walks, curve, mult, point, k) == want


def test_failures_lie_past_the_first_checkpoint():
    # with s = 17 the combined walk first fails at operation 18 or later,
    # after the run of operations 0 .. 15; with s = 3 inside that run
    for s, past in ((3, False), (17, True)):
        for case, (mult, _, _, want, failing_op) in cases(s, Q18).items():
            if case.startswith("final"):
                continue
            ops = len(affine_ops(mult))
            at = failing_op if failing_op is not None else ops + want.step - 1
            assert (at >= 16) == past, (s, case)


@pytest.fixture
def runs(monkeypatch):
    """The kernel runs of every walk: ("J", ops) and ("X", doublings)."""
    seen = []

    def jacobian(X, Y, Z, ops, *rest):
        seen.append(("J", len(ops)))
        return _jacobian_ops(X, Y, Z, ops, *rest)

    def doublings(X, Z, times, *rest):
        seen.append(("X", times))
        return _x_only_doublings(X, Z, times, *rest)

    monkeypatch.setattr(ecring, "_jacobian_ops", jacobian)
    monkeypatch.setattr(ecring, "_x_only_doublings", doublings)
    return seen


def test_one_schedule_across_the_phases(runs, monkeypatch):
    # the small-n test of the prime 40005 * 2^31 - 1 from (23, 1): 21 ops of
    # the multiple and 30 doublings, in runs of 16 and 32 operations (the
    # second across the boundary), the rest but one, and the last doubling
    # alone.  Neither scalar_mul nor an inversion runs.
    def boom(*args):
        raise AssertionError("called on the success path")

    monkeypatch.setattr(ecring, "scalar_mul", boom)
    monkeypatch.setattr(ecring, "pow", boom, raising=False)
    p, s, base = 40005 * (1 << 31) - 1, 40005, Point(23, 1)
    assert len(affine_ops(s)) == 21
    got = chain_outcome(p, curve_coefficient(p, base), base, 31, s)
    assert got == SequenceOutcome(FINAL_ZERO)
    assert runs == [("J", 16), ("J", 5), ("X", 27), ("X", 2), ("X", 1)]


def test_failing_run_redone_one_op_at_a_time(runs):
    # mid-gcd with s = 17: chain step 5 is operation 18 of the walk, in the
    # second run, which is redone one operation at a time
    curve, point = walk_case((Q18, Q18B), 17, False)
    mult = 3 << 12
    assert len(affine_ops(mult)) == 14
    got = double_x_only_chain(curve, point, 9, mult)
    assert got == ChainFailure(5, Q18)
    assert runs == [("J", 14), ("X", 2),  # operations 0 .. 15
                    ("X", 6),  # 16 .. 21, up to the last but one: fails
                    ("X", 1), ("X", 1), ("X", 1)]  # 16, 17 and the failing 18


def test_multiple_failure_hands_over_to_scalar_mul(monkeypatch):
    # one scalar_mul call, which finds the divisor or infinity; the chain
    # never starts
    calls = []

    def spy(*args):
        calls.append(args[1])
        return scalar_mul(*args)

    monkeypatch.setattr(ecring, "scalar_mul", spy)
    curve, point = walk_case((Q18, Q18B), 17, False)
    with pytest.raises(FactorFound) as info:
        double_x_only_chain(curve, point, 3, 3 << 19)
    assert info.value.divisor == Q18 and calls == [3 << 19]
    calls.clear()
    curve, point = walk_case((Q18, Q18B), 17, True)
    assert double_x_only_chain(curve, point, 3, 1 << 17) == INFINITY
    assert calls == [1 << 17]


def test_without_a_multiplier_it_is_the_chain():
    # s = 1 starts from the point's x, or from x alone, with no Jacobian op
    curve, point = walk_case((Q18, Q18B), 17, False)
    for start in (point, point.x):
        assert double_x_only_chain(curve, start, 20) == ChainFailure(17, Q18)


@pytest.mark.parametrize("j", [61, 127, 1279])
def test_mersenne_moduli(j):
    # 2^j - 1 takes the chain's shift-and-fold after Jacobian ops by `%`
    # (j < 768) or by the Riesel fold with c = 1 (j = 1279)
    n = (1 << j) - 1
    point = Point(3, 5)
    curve = Curve(n, (27 - 25) * pow(3, -1, n) % n)
    for s in (3, 40005, (1 << 40) + 12345):
        assert chain_outcome(n, curve.m, point, 20, s) == two_walks(curve, s, point, 20)


def test_forged_small_n_record_of_a_mersenne_prime():
    # n = 1 routes to the Mersenne test, so a small-n record of M_127 is
    # forged; its walk has no Jacobian op (s = 1) and starts from the base
    # point's x, and the record replays valid, as the two walks had it
    c = FormCandidate(k=127, n=1)
    m, base = next(_curve_point_candidates(c.p))
    verdict = _small_n_verdict(c, m, base)
    assert verdict.status == PRIME and replay_verdict(c, verdict)
    assert chain_outcome(c.p, m, base.x, c.k) == chain_outcome(c.p, m, base, c.k, 1)
