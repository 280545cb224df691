"""The large-n route from x = -(a + 1): an x-only walk on E, ladders, no point.

D = 2^k * Q comes from the chain's doublings, each (n/q) * D and the last
q * ((n/q) * D) from the ladder with the unit difference x(D), resp.
x((n/q) * D).  Its verdicts are compared with sympy on every gate-passing
candidate of a window; the ladder with any unit difference is pinned to
the affine scalar_mul at m = -1 mod each prime factor; and neither
deciding nor replay reaches the point scan, a curve coefficient or
scalar_mul.
"""

import json
from collections import Counter
from math import gcd, prod
from pathlib import Path

import pytest

from ecriesel import ecring, primality
from ecriesel.ecring import Curve, _x_only_ladder, scalar_mul
from ecriesel.numtheory import FormCandidate, _riesel_fold, gate_large_n
from ecriesel.primality import (
    COMPOSITE,
    PRIME,
    Verdict,
    _curve_route,
    auto_test,
    replay_verdict,
    sieve_verdict,
)
from ecriesel.sequence import FINAL_NONZERO, FINAL_ZERO
from test_one_walk import fold_primes, lift

ORDER_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "order_pool.json"
# What auto_test writes on the sweep's 12476 candidates: the presieve and
# the base-3 witness end all composites but two base-3 strong pseudoprimes
# (p = 1891 and 182527), which large-n proves composite.
ALGORITHMS_ON_THE_SWEEP = {("sieve", COMPOSITE): 7697, ("miller-rabin", COMPOSITE): 2512,
                           ("large-n", PRIME): 2265, ("large-n", COMPOSITE): 2}


def test_agrees_with_sympy_on_the_sweep():
    # every gate-passing candidate with 2 <= k < 40 and odd n < 3001, n's
    # factors from sympy: the route decides all, 646 after a declined
    # attempt (633 when the walk of D stopped at its first non-unit
    # doubling: the end Z of D can vanish mod all of a composite p where
    # that doubling shared a proper factor, and the attempt declines).  auto_test ends most composites at the presieve or on the
    # witness, and replay accepts the route's record only where auto_test
    # writes it.
    sympy = pytest.importorskip("sympy")
    kinds, retried, decided = set(), 0, 0
    algorithms = Counter()
    for k in range(2, 40):
        for n in range(1, 3001, 2):
            factors = tuple(q for q, e in sorted(sympy.factorint(n).items()) for _ in range(e))
            c = FormCandidate(k=k, n=n, n_factors=factors or None)
            if not gate_large_n(c):
                continue
            v = _curve_route(c, factors or (n,), False)
            assert v.algorithm == "large-n", (k, n)
            assert v.status == (PRIME if sympy.isprime(c.p) else COMPOSITE), (k, n)
            w = auto_test(c)
            assert w.status == v.status and replay_verdict(c, w), (k, n)
            assert replay_verdict(c, v) == (w == v), (k, n)
            algorithms[w.algorithm, w.status] += 1
            kinds.add(v.certificate.get("outcome") or "/".join(v.certificate))
            retried += v.iterations > 1
            decided += 1
    assert (decided, retried) == (12476, 646)
    assert kinds == {"final-zero", "final-nonzero", "divisor"}
    assert algorithms == ALGORITHMS_ON_THE_SWEEP


def order_of(q, x):
    """The order of the lift of x, the least divisor d of q + 1 with d P = O."""
    curve, point = Curve(q, -1), lift(q, x)[1]
    return next(d for d in range(1, q + 2)
                if (q + 1) % d == 0 and scalar_mul(curve, d, point).is_infinity)


def assert_ladder_per_prime(primes, x, s):
    """The ladder's (X:Z) mod each prime q is x(s * P), P the lift of x
    mod q, as the affine scalar_mul gives it, or, Z = 0 mod q, infinity."""
    n = prod(primes)
    X, Z = _x_only_ladder(s, x % n, n, _riesel_fold(n))
    for q in primes:
        sign, point = lift(q, x % q)
        want = scalar_mul(Curve(q, -1), s, point)
        if want.is_infinity:
            assert Z % q == 0, (q, s)
        else:
            assert Z % q and (X - sign * want.x * Z) % q == 0, (q, s)


@pytest.mark.parametrize("primes", [(1019, 2027), (3, 4999), (4003, 4007, 4019)])
def test_ladder_with_any_unit_difference(primes):
    # small composites, x a unit mod each prime: multiples that are
    # infinity mod one prime or all, that pass infinity inside the ladder
    # (R0 = O again, as at its start) and that are finite everywhere
    n = prod(primes)
    tried = 0
    for x in (n - 1, 2, 5, 7, n - 3, n - 5, 1234567 % n, 7654321 % n, n // 3, n // 7):
        if any(gcd(x, q) != 1 for q in primes):
            continue
        orders = [order_of(q, x % q) for q in primes]
        for s in (1, 2, 3, 17, orders[0], 3 * orders[0], (orders[0] << 5) + 7,
                  prod(orders), prod(orders) + 1, 2**40 + 12345):
            assert_ladder_per_prime(primes, x, s)
            tried += 1
    assert tried > 60


def test_folded_ladder_with_any_unit_difference():
    # N = Q18 * Q18B * r is reduced by the Riesel fold, from a word-size
    # and a full-size x; multiples at infinity mod Q18 and past it
    primes = fold_primes()
    n = prod(primes)
    assert _riesel_fold(n) is not None
    for x in (2, 5, n - 3, n // 3):
        order = order_of(primes[0], x)
        for s in (3, 1 << 20, 12345678901, order, (order << 3) + 1):
            assert_ladder_per_prime(primes, x, s)


def test_non_unit_x_of_d_is_rejected_before_any_ladder(monkeypatch):
    # p = 403 = 13 * 31: x(D) from x(Q) = -2 shares 31 with p, a factor
    # found before the ladder by n = 101 would run from it
    def boom(*args):
        raise AssertionError("a ladder ran from a non-unit difference")

    monkeypatch.setattr(ecring, "_x_only_ladder", boom)
    c = FormCandidate(k=2, n=101)
    v = _curve_route(c, (c.n,), False)
    assert v == Verdict(COMPOSITE, "large-n", {"divisor": 31})
    # auto_test's presieve finds 13 first, and replay accepts only that
    assert auto_test(c) == sieve_verdict(13)
    assert not replay_verdict(c, v) and replay_verdict(c, sieve_verdict(13))


def test_a_declined_attempt_replays_with_its_iterations():
    # p = 947: x(Q) = -2 .. -5 decline (some (n/q) D is infinity), -6
    # decides; replay takes x(Q) = -(iterations + 1), and no other a will do
    c = FormCandidate(k=2, n=237, n_factors=(3, 79))
    v = auto_test(c)
    assert v == Verdict(PRIME, "large-n", {"outcome": FINAL_ZERO,
                                           "factors": [3, 79]}, 5)
    assert replay_verdict(c, v)
    assert [primality._evaluate(c, a, [3, 79], False) for a in range(1, 5)] == [None] * 4
    for a in range(1, 5):
        assert not replay_verdict(c, v._replace(iterations=a)), a


def order_pool_candidates():
    """A prime and a composite p = 2^512 n - 1 of the order pool, one n
    prime and one a product of two primes: the Riesel fold's moduli."""
    pool = json.loads(ORDER_POOL.read_text(encoding="utf-8"))
    prime_large = next(e for e in pool["candidates"] if e["kind"] == "large-prime" and e["p_prime"])
    composite_two = next(e for e in pool["candidates"]
                         if e["kind"] == "two-prime" and not e["p_prime"])
    q1, q2 = int(composite_two["q1"]), int(composite_two["q2"])
    return [(FormCandidate(k=pool["k"], n=int(prime_large["q"])), PRIME),
            (FormCandidate(k=pool["k"], n=q1 * q2, n_factors=(q1, q2)), COMPOSITE)]


def test_no_scan_no_point_no_scalar_mul(monkeypatch, routes_decide_composites):
    # deciding and replay on large-n never reach the curve/point scan, the
    # curve coefficient of a point or the affine scalar_mul
    def boom(*args, **kwargs):
        raise AssertionError("large-n reached the point machinery")

    cases = order_pool_candidates()
    for name in ("_curve_point_candidates", "curve_coefficient", "scalar_mul"):
        monkeypatch.setattr(primality, name, boom)
    monkeypatch.setattr(ecring, "scalar_mul", boom)
    cases += [(FormCandidate(k=2, n=17), PRIME), (FormCandidate(k=2, n=257), COMPOSITE),
              (FormCandidate(k=2, n=33, n_factors=(3, 11)), PRIME),
              (FormCandidate(k=2, n=37), COMPOSITE), (FormCandidate(k=3, n=29), COMPOSITE)]
    for c, status in cases:
        v = auto_test(c)
        assert (v.algorithm, v.status) == ("large-n", status), c
        assert replay_verdict(c, v), c
    assert v.certificate == {"divisor": 21}  # p = 231 = 3 * 7 * 11


def test_order_pool_certificates():
    # p prime: final-zero, by the fold; p composite: final-nonzero, and
    # the flipped outcome or status replays INVALID.  auto_test ends the
    # composite on the base-3 witness, so replay rejects its order record.
    for c, status in order_pool_candidates():
        v = _curve_route(c, c.n_factors or (c.n,), False)
        outcome = FINAL_ZERO if status == PRIME else FINAL_NONZERO
        # the lone factor n goes unwritten: replay takes (n,)
        cert = {"outcome": outcome}
        if c.n_factors:
            cert["factors"] = list(c.n_factors)
        assert v == Verdict(status, "large-n", cert)
        w = auto_test(c)
        assert w == v if status == PRIME else w.certificate == {"witness": 3}
        assert replay_verdict(c, w) and replay_verdict(c, v) == (status == PRIME)
        flipped = {**v.certificate, "outcome": FINAL_NONZERO if status == PRIME else FINAL_ZERO}
        assert not replay_verdict(c, v._replace(certificate=flipped))
        assert not replay_verdict(c, v._replace(status=COMPOSITE if status == PRIME else PRIME))
