"""One walk for the small-n test: x(s * Q), then the k - 1 doublings, on E.

chain_outcome(N, x, k, s) takes x(s * Q), x(Q) = x, from the x-only
ladder on E: y^2 = x^3 + x, one kernel call, runs the doublings from its
end and takes one gcd of the last Z.  It must decide what two walks
decide: the ladder, then chain_outcome from its affine x mod the primes
where the ladder's end is finite; a ladder end at infinity mod a prime
puts that prime in the end gcd.  Mod each
prime factor the ladder's end must be x of the affine multiple of Q that
scalar_mul gives at m = -1, for a full-size x and for a word-size one,
which the ladder takes by a word-size product.  The fixed cases put the
first non-unit at the ladder's end (mod one factor or mod all), past an
infinity inside the ladder, at chain step 1, mid-chain and at the last
step, on a product of two primes reduced by `%` and on a product of
three reduced by the Riesel fold.
"""

from functools import cache
from math import gcd, prod

import pytest

from ecriesel import ecring
from ecriesel.ecring import (
    Curve,
    Point,
    _x_only_ladder,
    scalar_mul,
)
from ecriesel.numtheory import FormCandidate, _riesel_fold, miller_rabin
from ecriesel.primality import PRIME, auto_test, replay_verdict
from ecriesel.sequence import (
    EARLY_INFINITY,
    FINAL_NONZERO,
    FINAL_ZERO,
    GCD_HIT,
    SequenceOutcome,
    chain_outcome,
    start_x,
)
from test_chain_walker import crt, end_gcd
from test_riesel_fold import K, Q18

Q18B = 5 * (1 << 18) - 1  # prime, = -1 mod 2^18 like Q18
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


def lift(q, x):
    """(sign, P): P on E over F_q, q = 3 (mod 4) prime, and x(P) = sign * x.
    x lifts to E or else to its twist, which x -> -x maps onto E."""
    rhs = (x * x + 1) * x % q
    sign = 1 if pow(rhs, (q - 1) // 2, q) in (0, 1) else -1
    return sign, Point(sign * x % q, pow(sign * rhs % q, (q + 1) // 4, q))


@cache
def start_point(q, full):
    """(x, y): Q = (x, y) on E over F_q.  With full, Q's order has 2-part
    exactly (q + 1)'s; else an odd part that AVOID * 2^a does not kill, so
    no multiple a case takes reaches 2-torsion or infinity."""
    two = (q + 1) & -(q + 1)
    curve = Curve(q, -1)
    for x in range(2, q):
        point = lift(q, x)[1]
        if point.x != x:
            continue
        if full:
            p = scalar_mul(curve, (q + 1) // two << 17, point)
            if not p.is_infinity and scalar_mul(curve, 2, p).is_infinity:
                return point
        elif not scalar_mul(curve, two * AVOID, point).is_infinity:
            return point


@cache
def walk_case(name, everywhere):
    """(N, x, y, base, kill, points): Q = (x, y) on E mod N = prod(primes),
    points Q mod each prime.  base is odd, and 2^(18 - s) * base * Q has
    order exactly 2^s mod the first prime, and mod every prime when
    everywhere, else an odd order above 1 there.  kill * Q is infinity mod
    every prime when everywhere."""
    primes = primes_of(name)
    points = [start_point(q, i == 0 or everywhere) for i, q in enumerate(primes)]
    n = prod(primes)
    x = crt([(xq, q) for (xq, _), q in zip(points, primes)])
    y = crt([(yq, q) for (_, yq), q in zip(points, primes)])
    base = prod(odd_part(q + 1) for q in (primes if everywhere else primes[:1]))
    assert ecring.on_curve(Curve(n, -1), Point(x, y))
    return n, x, y, base, base << 18, tuple(zip(primes, points))


def cases(s, q, base, kill):
    """(multiplier of Q, k, expected outcome): P = 2^(18 - s) * base * Q
    has order 2^s mod the failing primes."""
    t = 2 if s < 8 else 5  # a mid-chain step
    p = base << (18 - s)
    return {
        # the ladder ends at infinity mod q alone: q joins the end gcd there
        "multiple-factor": ((3 << (s + 2)) * p, 4, False, SequenceOutcome(GCD_HIT, q)),
        "multiple-vanishes": ((1 << s) * p, 4, True, SequenceOutcome(EARLY_INFINITY)),
        # kill * Q is infinity, and the ladder goes on to P, which fails at
        # doubling s
        "multiple-passes-infinity": ((kill << p.bit_length()) + p, s + 2, True,
                                     SequenceOutcome(EARLY_INFINITY)),
        # doubling 1 fails, then doubling t, mid-chain
        "boundary-gcd": ((3 << (s - 1)) * p, 4, False, SequenceOutcome(GCD_HIT, q)),
        "boundary-infinity": ((3 << (s - 1)) * p, 4, True, SequenceOutcome(EARLY_INFINITY)),
        "mid-gcd": ((3 << (s - t)) * p, 2 * t, False, SequenceOutcome(GCD_HIT, q)),
        "mid-infinity": ((3 << (s - t)) * p, 2 * t, True, SequenceOutcome(EARLY_INFINITY)),
        "final-nonzero": (3 * p, s, False, SequenceOutcome(FINAL_NONZERO)),
        "final-zero": (3 * p, s, True, SequenceOutcome(FINAL_ZERO)),
    }


def two_walks(n, x, mult, k):
    """The ladder by `%`, then chain_outcome from its affine x mod the part
    r of n (squarefree) where the ladder's end is finite; the primes where
    it is infinity, g = n / r, join the end gcd of the chain mod r."""
    X, Z = _x_only_ladder(mult, x % n, n, None)
    g = gcd(Z, n)
    r = n // g
    if r > 1:
        rest = chain_outcome(r, X * pow(Z, -1, r) % r, k)
        if g == 1:
            return rest
        g *= {EARLY_INFINITY: r, GCD_HIT: rest.divisor}.get(rest.kind, 1)
    return SequenceOutcome(EARLY_INFINITY) if g == n else SequenceOutcome(GCD_HIT, g)


def assert_ladder_per_prime(n, x, mult, primes):
    """The ladder's (X:Z) from x mod each prime q is x(mult * P), P the lift
    of x mod q, or, with Z = 0 mod q, infinity, as scalar_mul gives it over
    F_q on E."""
    X, Z = _x_only_ladder(mult, x % n, n, _riesel_fold(n))
    for q in primes:
        sign, point = lift(q, x % q)
        want = scalar_mul(Curve(q, -1), mult, point)
        if want.is_infinity:
            assert Z % q == 0, q
        else:
            assert Z % q and (X - sign * want.x * Z) % q == 0, q


@pytest.mark.parametrize("name", ["division", "fold"])
@pytest.mark.parametrize("s", [3, 17])
@pytest.mark.parametrize("case", sorted(cases(3, 0, 1, 1)))
def test_one_walk_decides_as_two(name, s, case):
    everywhere = cases(3, 0, 1, 1)[case][2]
    n, x, y, base, kill, points = walk_case(name, everywhere)
    mult, k, _, want = cases(s, points[0][0], base, kill)[case]
    assert (_riesel_fold(n) is not None) == (name == "fold")
    assert chain_outcome(n, x, k, mult) == want
    assert two_walks(n, x, mult, k) == want
    assert_ladder_per_prime(n, x, mult, [q for q, _ in points])
    if case == "multiple-passes-infinity":
        for q, point in points:
            assert scalar_mul(Curve(q, -1), kill, point).is_infinity


@pytest.fixture
def ladders(monkeypatch):
    """The count of ladder calls."""
    seen = {"ladder": 0}

    def ladder(*args):
        seen["ladder"] += 1
        return _x_only_ladder(*args)

    monkeypatch.setattr(ecring, "_x_only_ladder", ladder)
    return seen


def test_one_schedule_across_the_phases(ladders, monkeypatch):
    # the small-n test of the prime 40005 * 2^31 - 1: one ladder call, then
    # 30 doublings and one gcd.  Neither scalar_mul nor an inversion runs.
    def boom(*args):
        raise AssertionError("called on the success path")

    monkeypatch.setattr(ecring, "scalar_mul", boom)
    monkeypatch.setattr(ecring, "pow", boom, raising=False)
    p = 40005 * (1 << 31) - 1
    got = chain_outcome(p, start_x(p, 1), 31, 40005)
    assert got == SequenceOutcome(FINAL_ZERO)
    assert ladders == {"ladder": 1}


def test_multiple_at_infinity_fails_doubling_1(monkeypatch):
    # the ladder hands nothing over: a multiple at infinity mod Q18 only, or
    # mod every factor, is a non-unit Z from the ladder's end on
    monkeypatch.setattr(ecring, "scalar_mul", None)
    for everywhere, want in ((False, Q18), (True, Q18 * Q18B)):
        n, x, _, base, _, _ = walk_case("division", everywhere)
        for times in (0, 1, 3):
            assert end_gcd(n, x, times, base << 18) == want, (everywhere, times)


def test_without_a_multiplier_it_is_the_chain(ladders):
    # s = 1 starts from x alone, with no ladder; s = 3 runs the ladder from
    # the same x, and 3 P has the same order 2^17 mod Q18, so Q18 joins the
    # end gcd at doubling 17
    n, x, y, base, _, _ = walk_case("division", False)
    P = scalar_mul(Curve(n, -1), base << 1, Point(x, y))  # order 2^17 mod Q18
    assert (end_gcd(n, P.x, 16), end_gcd(n, P.x, 20)) == (1, Q18)
    assert ladders["ladder"] == 0
    assert (end_gcd(n, P.x, 16, 3), end_gcd(n, P.x, 20, 3)) == (1, Q18)
    assert ladders["ladder"] == 2


@pytest.mark.parametrize("j", [61, 127, 1279])
def test_mersenne_moduli(j):
    # 2^j - 1 (prime for these j) takes the chain's shift-and-fold after a
    # ladder by `%` (j < 768) or by the Riesel fold with c = 1 (j = 1279),
    # from a word-size x and a full-size one
    n = (1 << j) - 1
    assert (_riesel_fold(n) is not None) == (j == 1279)
    for x in (start_x(n, 1), 3, n // 3):
        for s in (3, 40005, (1 << 40) + 12345):
            assert chain_outcome(n, x, 20, s) == two_walks(n, x, s, 20)
            assert_ladder_per_prime(n, x, s, [n])


@pytest.mark.parametrize("k, n", [(31, 40005), (31, 40039), (7, 3), (12, 23), (127, 1),
                                  (800, 347)])
def test_ladder_matches_scalar_mul_on_prime_p(k, n):
    # the route's start u, a word-size x: the ladder's (X:Z) is x(s * Q)
    # for Q the lift of u, as the affine scalar_mul gives it, and infinity
    # for s = 2^k n, the group order
    p = FormCandidate(k=k, n=n).p
    assert miller_rabin(p)
    u = start_x(p, 1)
    for s in (2, 3, n, 1 << k, (n << k) + 1, 12345, n << k):
        assert_ladder_per_prime(p, u, s, [p])
    assert _x_only_ladder(n << k, u, p, _riesel_fold(p))[1] == 0


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
    # the walks from u and -u vanish alike, the doubling map being odd
    u = start_x(c.p, 1)
    assert chain_outcome(c.p, u, c.k) == chain_outcome(c.p, u - c.p, c.k, 1)
    assert chain_outcome(c.p, -u, c.k) == SequenceOutcome(FINAL_ZERO)
