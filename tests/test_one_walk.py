"""One walk for the small-n test: x(s * Q), x(Q) = -1, then the k - 1 doublings.

chain_outcome(N, m, -1, k, s) takes x(s * Q) from the x-only ladder, one
kernel call with no gcd, and runs the doublings under one checkpoint
schedule.  It must decide what two walks decide: the ladder, then
chain_outcome from its affine x, where a ladder end at infinity mod a
prime factor fails the chain at step 1.  Mod each prime factor the
ladder's end must be x of the affine multiple of (-1, y) that scalar_mul
gives.  The fixed cases put the first non-unit at the ladder's end (mod
one factor or mod all), past an infinity inside the ladder, at chain step
1, mid-chain and at the last step, on a product of two primes reduced by
`%` and on a product of three reduced by the Riesel fold.
"""

from functools import cache
from math import gcd, prod

import pytest

from ecriesel import ecring
from ecriesel.ecring import (
    ChainFailure,
    Curve,
    Point,
    _checkpointed,
    _riesel_fold,
    _x_only_ladder,
    double_x_only_chain,
    scalar_mul,
)
from ecriesel.numtheory import FormCandidate, jacobi, miller_rabin
from ecriesel.primality import PRIME, _least_nonresidue, auto_test, replay_verdict
from ecriesel.sequence import (
    EARLY_INFINITY,
    FINAL_NONZERO,
    FINAL_ZERO,
    GCD_HIT,
    SequenceOutcome,
    chain_outcome,
    run_sequence,
)
from test_chain_walker import crt
from test_riesel_fold import K, Q18

Q18B = 5 * (1 << 18) - 1  # prime, = -1 mod 2^18 like Q18
M61 = (1 << 61) - 1
# odd parts of every multiplier a case applies on top of its base: 3, 2^3 + 1
# and 2^17 + 1, times the 3 of Q18 + 1
AVOID = 9 * 9 * ((1 << 17) + 1)


def odd_part(v):
    return v >> ((v & -v).bit_length() - 1)


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
def minus_one_point(q, full):
    """(m, y): Q = (-1, y) on y^2 = x^3 - m x over F_q, m = y^2 + 1.  With
    full, Q's order has 2-part exactly 2^18; else an odd part that
    AVOID * 2^a does not kill, so no multiple a case takes reaches
    2-torsion or infinity."""
    two = (q + 1) & -(q + 1)
    for y in range(1, q):
        curve, point = Curve(q, y * y + 1), Point(q - 1, y)
        if full:
            p = scalar_mul(curve, (q + 1) // two << 17, point)
            if not p.is_infinity and scalar_mul(curve, 2, p).is_infinity:
                return curve.m, y
        elif not scalar_mul(curve, two * AVOID, point).is_infinity:
            return curve.m, y


@cache
def walk_case(name, everywhere):
    """(N, m, y, base, kill, points): Q = (-1, y) mod N = prod(primes),
    points its (m, y) mod each prime.  base is odd, and 2^(18 - s) * base
    * Q has order exactly 2^s mod the first prime, and mod every prime when
    everywhere, else an odd order above 1 there.  kill * Q is infinity mod
    every prime when everywhere."""
    primes = primes_of(name)
    points = [minus_one_point(q, i == 0 or everywhere) for i, q in enumerate(primes)]
    n = prod(primes)
    m = crt([(mq, q) for (mq, _), q in zip(points, primes)])
    y = crt([(yq, q) for (_, yq), q in zip(points, primes)])
    base = prod(odd_part(q + 1) for q in (primes if everywhere else primes[:1]))
    assert ecring.on_curve(Curve(n, m), Point(n - 1, y))
    return n, m, y, base, base << 18, tuple(zip(primes, points))


def cases(s, q, base, kill):
    """(multiplier of Q, k, expected outcome): P = 2^(18 - s) * base * Q
    has order 2^s mod the failing primes."""
    t = 2 if s < 8 else 5  # a mid-chain step
    p = base << (18 - s)
    return {
        # the ladder ends at infinity mod q alone: a factor at doubling 1
        "multiple-factor": ((3 << (s + 2)) * p, 4, False, SequenceOutcome(GCD_HIT, 1, q)),
        "multiple-vanishes": ((1 << s) * p, 4, True, SequenceOutcome(EARLY_INFINITY, 1)),
        # kill * Q is infinity, and the ladder goes on to P
        "multiple-passes-infinity": ((kill << p.bit_length()) + p, s + 2, True,
                                     SequenceOutcome(EARLY_INFINITY, s)),
        "boundary-gcd": ((3 << (s - 1)) * p, 4, False, SequenceOutcome(GCD_HIT, 1, q)),
        "boundary-infinity": ((3 << (s - 1)) * p, 4, True, SequenceOutcome(EARLY_INFINITY, 1)),
        "mid-gcd": ((3 << (s - t)) * p, 2 * t, False, SequenceOutcome(GCD_HIT, t, q)),
        "mid-infinity": ((3 << (s - t)) * p, 2 * t, True, SequenceOutcome(EARLY_INFINITY, t)),
        "final-nonzero": (3 * p, s, False, SequenceOutcome(FINAL_NONZERO)),
        "final-zero": (3 * p, s, True, SequenceOutcome(FINAL_ZERO)),
    }


def two_walks(n, m, mult, k):
    """The ladder by `%`, then chain_outcome from its affine x; an end at
    infinity mod some prime fails the chain at step 1 (no other factor of
    these moduli is at 2-torsion there)."""
    X, Z = _x_only_ladder(mult, n - 1, n, m % n, None)
    g = gcd(Z, n)
    if g == n:
        return SequenceOutcome(EARLY_INFINITY, 1)
    if g != 1:
        return SequenceOutcome(GCD_HIT, 1, g)
    return chain_outcome(n, m, X * pow(Z, -1, n) % n, k)


def assert_ladder_per_prime(n, m, mult, points):
    """The ladder's (X:Z) mod each prime q is x(mult * (-1, y_q)) or, with
    Z = 0 mod q, infinity, as scalar_mul gives it over F_q."""
    X, Z = _x_only_ladder(mult, n - 1, n, m % n, _riesel_fold(n))
    for q, (mq, yq) in points:
        want = scalar_mul(Curve(q, mq), mult, Point(q - 1, yq))
        if want.is_infinity:
            assert Z % q == 0, q
        else:
            assert Z % q and (X - want.x * Z) % q == 0, q


@pytest.mark.parametrize("name", ["division", "fold"])
@pytest.mark.parametrize("s", [3, 17])
@pytest.mark.parametrize("case", sorted(cases(3, 0, 1, 1)))
def test_one_walk_decides_as_two(name, s, case):
    everywhere = cases(3, 0, 1, 1)[case][2]
    n, m, y, base, kill, points = walk_case(name, everywhere)
    mult, k, _, want = cases(s, points[0][0], base, kill)[case]
    assert (_riesel_fold(n) is not None) == (name == "fold")
    assert chain_outcome(n, m, -1, k, mult) == want
    assert two_walks(n, m, mult, k) == want
    assert_ladder_per_prime(n, m, mult, points)
    if case == "multiple-passes-infinity":
        for q, (mq, yq) in points:
            assert scalar_mul(Curve(q, mq), kill, Point(q - 1, yq)).is_infinity


@pytest.fixture
def runs(monkeypatch):
    """The (i, j) runs of every checkpoint walk, and the ladder calls."""
    seen = {"walk": [], "ladder": 0}

    def checkpointed(step, state, count, n):
        def recording(state, i, j):
            seen["walk"].append((i, j))
            return step(state, i, j)
        return _checkpointed(recording, state, count, n)

    def ladder(*args):
        seen["ladder"] += 1
        return _x_only_ladder(*args)

    monkeypatch.setattr(ecring, "_checkpointed", checkpointed)
    monkeypatch.setattr(ecring, "_x_only_ladder", ladder)
    return seen


def test_failures_lie_past_the_first_checkpoint(runs):
    # M61 is prime and (-1, 4) on y^2 = x^3 - 17 x has order 2^61 (17 is a
    # non-residue, fact 3 of oracle): 2^44 * Q fails doubling 17, operation
    # 16, just past the first checkpoint, and 2^12 * Q doubling 49,
    # operation 48, just past the second
    assert jacobi(17, M61) == -1
    for mult, step, walk in (
        (1 << 44, 17, [(0, 16), (16, 48), (16, 17)]),
        (1 << 12, 49, [(0, 16), (16, 48), (48, 58), (48, 49)]),
    ):
        runs["walk"].clear()
        got = chain_outcome(M61, 17, -1, 60, mult)
        assert got == SequenceOutcome(EARLY_INFINITY, step)
        assert runs["walk"] == walk
        x = scalar_mul(Curve(M61, 17), mult, Point(M61 - 1, 4)).x
        assert run_sequence(M61, 17, x, 60)[0] == got


def test_one_schedule_across_the_phases(runs, monkeypatch):
    # the small-n test of the prime 40005 * 2^31 - 1: one ladder call, then
    # 30 doublings in runs of 16 and 13 and the last one alone.  Neither
    # scalar_mul nor an inversion runs.
    def boom(*args):
        raise AssertionError("called on the success path")

    monkeypatch.setattr(ecring, "scalar_mul", boom)
    monkeypatch.setattr(ecring, "pow", boom, raising=False)
    p = 40005 * (1 << 31) - 1
    got = chain_outcome(p, _least_nonresidue(p), -1, 31, 40005)
    assert got == SequenceOutcome(FINAL_ZERO)
    assert runs == {"walk": [(0, 16), (16, 29), (29, 30)], "ladder": 1}


def test_failing_run_redone_one_op_at_a_time(runs):
    # mid-gcd with s = 17: doubling 5 fails in the first run of a 9-doubling
    # chain, which is redone one doubling at a time
    n, m, _, base, _, _ = walk_case("division", False)
    got = double_x_only_chain(Curve(n, m), -1, 9, (3 << 12) * (base << 1))
    assert got == ChainFailure(5, Q18)
    assert runs == {"walk": [(0, 8), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], "ladder": 1}


def test_multiple_at_infinity_fails_doubling_1(monkeypatch):
    # the ladder hands nothing over: a multiple at infinity mod Q18 only, or
    # mod every factor, is a non-unit end Z, which doubling 1 names
    monkeypatch.setattr(ecring, "scalar_mul", None)
    for everywhere, want in ((False, ChainFailure(1, Q18)), (True, ChainFailure(1, Q18 * Q18B))):
        n, m, _, base, _, _ = walk_case("division", everywhere)
        assert double_x_only_chain(Curve(n, m), -1, 3, base << 18) == want


def test_without_a_multiplier_it_is_the_chain(runs):
    # s = 1 starts from x alone, with no ladder; s = 3 runs the ladder from
    # the same x, and 3 P has the same order 2^17 mod Q18
    n, m, y, base, _, _ = walk_case("division", False)
    P = scalar_mul(Curve(n, m), base << 1, Point(n - 1, y))  # order 2^17 mod Q18
    assert double_x_only_chain(Curve(n, m), P.x, 20) == ChainFailure(17, Q18)
    assert runs["ladder"] == 0
    assert double_x_only_chain(Curve(n, m), P.x, 20, 3) == ChainFailure(17, Q18)
    assert runs["ladder"] == 1


@pytest.mark.parametrize("j", [61, 127, 1279])
def test_mersenne_moduli(j):
    # 2^j - 1 (prime for these j) takes the chain's shift-and-fold after a
    # ladder by `%` (j < 768) or by the Riesel fold with c = 1 (j = 1279)
    n = (1 << j) - 1
    assert (_riesel_fold(n) is not None) == (j == 1279)
    for s in (3, 40005, (1 << 40) + 12345):
        assert chain_outcome(n, 5, -1, 20, s) == two_walks(n, 5, s, 20)
        assert_ladder_per_prime(n, 5, s, [(n, (5, 2))])


@pytest.mark.parametrize("k, n", [(31, 40005), (31, 40039), (7, 3), (12, 23), (127, 1),
                                  (800, 347)])
def test_ladder_matches_scalar_mul_on_prime_p(k, n):
    # Q = (-1, sqrt(m - 1)) on y^2 = x^3 - m x with the route's m: the
    # ladder's (X:Z) is x(s * Q) as the affine scalar_mul gives it
    p = FormCandidate(k=k, n=n).p
    assert miller_rabin(p)
    m = _least_nonresidue(p)
    y = pow(m - 1, (p + 1) // 4, p)
    for s in (2, 3, n, 1 << k, (n << k) + 1, 12345):
        assert_ladder_per_prime(p, m, s, [(p, (m, y))])


def test_forged_small_n_record_of_a_mersenne_prime():
    # M_127 is small-n's n = 1 corner: its record holds the outcome alone and
    # replays valid; the old shapes, a scanned base point or the mersenne
    # label, replay INVALID
    c = FormCandidate(k=127, n=1)
    v = auto_test(c)
    assert v.status == PRIME and v.certificate == {"type": "sequence", "outcome": FINAL_ZERO}
    assert replay_verdict(c, v)
    forged = v._replace(certificate={**v.certificate, "base_point": [3, 5]})
    assert not replay_verdict(c, forged)
    assert not replay_verdict(c, v._replace(algorithm="mersenne"))
    assert chain_outcome(c.p, 3, -1, c.k) == chain_outcome(c.p, 3, c.p - 1, c.k, 1)
