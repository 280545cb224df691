"""The large-n route from x = -a: an x-only walk, ladders, no point.

D = 2^k * Q comes from the chain's doublings, each (n/q) * D and the last
q * ((n/q) * D) from the ladder with the unit difference x(D), resp.
x((n/q) * D).  Its verdicts are compared with sympy on every gate-passing
candidate of a window; the ladder with a difference other than -1 is
pinned to the affine scalar_mul mod each prime factor; and neither
deciding nor replay reaches the point scan, a curve coefficient or
scalar_mul.
"""

import json
from math import gcd, prod
from pathlib import Path

import pytest

from ecriesel import ecring, primality
from ecriesel.ecring import Curve, Point, _riesel_fold, _x_only_ladder, scalar_mul
from ecriesel.numtheory import FormCandidate, gate_large_n
from ecriesel.primality import COMPOSITE, PRIME, Verdict, auto_test, replay_verdict
from ecriesel.sequence import FINAL_NONZERO, FINAL_ZERO
from test_one_walk import fold_primes

ORDER_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "order_pool.json"


def test_agrees_with_sympy_on_the_sweep():
    # every gate-passing candidate with 2 <= k < 40 and odd n < 3001, n's
    # factors from sympy: none undecided, 604 after a declined attempt
    sympy = pytest.importorskip("sympy")
    kinds, retried, decided = set(), 0, 0
    for k in range(2, 40):
        for n in range(1, 3001, 2):
            factors = tuple(q for q, e in sorted(sympy.factorint(n).items()) for _ in range(e))
            c = FormCandidate(k=k, n=n, n_factors=factors or None)
            if not gate_large_n(c):
                continue
            v = auto_test(c)
            assert v.algorithm == "large-n", (k, n)
            assert v.status == (PRIME if sympy.isprime(c.p) else COMPOSITE), (k, n)
            assert replay_verdict(c, v), (k, n)
            kinds.add(v.certificate.get("outcome") or v.certificate["stage"])
            retried += v.iterations > 1
            decided += 1
    assert (decided, retried) == (12476, 604)
    assert kinds == {"final-zero", "final-nonzero", "parameter-scan", "scalar-multiplication"}


def lift(q, m, x):
    """(sign, P): P on y^2 = x^3 - m x over F_q, q = 3 (mod 4), and x(P) =
    sign * x.  x lifts to the curve or else to its twist, which x -> -x
    maps onto the curve."""
    rhs = (x * x - m) * x % q
    sign = 1 if pow(rhs, (q - 1) // 2, q) in (0, 1) else -1
    return sign, Point(sign * x % q, pow(sign * rhs % q, (q + 1) // 4, q))


def order_of(q, m, x):
    """The order of the lift of x, the least divisor d of q + 1 with d P = O."""
    curve, point = Curve(q, m), lift(q, m, x)[1]
    return next(d for d in range(1, q + 2)
                if (q + 1) % d == 0 and scalar_mul(curve, d, point).is_infinity)


def assert_ladder_per_prime(primes, m, x, s):
    """The ladder's (X:Z) mod each prime q is x(s * P), P the lift of x
    mod q, as the affine scalar_mul gives it, or, Z = 0 mod q, infinity."""
    n = prod(primes)
    X, Z = _x_only_ladder(s, x % n, n, m % n, _riesel_fold(n))
    for q in primes:
        sign, point = lift(q, m % q, x % q)
        want = scalar_mul(Curve(q, m % q), s, point)
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
    for m in (2, 3, 7, n - 5):
        for x in (n - 1, 2, 5, n - 3, 1234567 % n):
            if any(gcd(v, q) != 1 for v in (x, m) for q in primes):
                continue
            orders = [order_of(q, m % q, x % q) for q in primes]
            for s in (1, 2, 3, 17, orders[0], 3 * orders[0], (orders[0] << 5) + 7,
                      prod(orders), prod(orders) + 1, 2**40 + 12345):
                assert_ladder_per_prime(primes, m, x, s)
                tried += 1
    assert tried > 100


def test_folded_ladder_with_any_unit_difference():
    # N = Q18 * Q18B * r is reduced by the Riesel fold, from an x other
    # than -1; multiples at infinity mod Q18 and past it
    primes = fold_primes()
    n = prod(primes)
    assert _riesel_fold(n) is not None
    for x in (2, 5, n - 3):
        order = order_of(primes[0], 3, x)
        for s in (3, 1 << 20, 12345678901, order, (order << 3) + 1):
            assert_ladder_per_prime(primes, 3, x, s)


def test_non_unit_x_of_d_is_rejected_before_any_ladder(monkeypatch):
    # p = 1243 = 11 * 113: x(D) from x(Q) = -1 shares 113 with p, a factor
    # found before the ladder by n = 311 would run from it
    def boom(*args):
        raise AssertionError("a ladder ran from a non-unit difference")

    monkeypatch.setattr(ecring, "_x_only_ladder", boom)
    c = FormCandidate(k=2, n=311)
    v = auto_test(c)
    assert v == Verdict(COMPOSITE, "large-n", {"type": "factor", "divisor": 113,
                                               "stage": "scalar-multiplication"})
    assert replay_verdict(c, v)


def test_a_declined_attempt_replays_with_its_iterations():
    # p = 131: x(Q) = -1 .. -5 decline (some (n/q) D is infinity), -6
    # decides; replay takes x(Q) = -iterations, and no other a will do
    c = FormCandidate(k=2, n=33, n_factors=(3, 11))
    v = auto_test(c)
    assert v == Verdict(PRIME, "large-n", {"type": "order", "outcome": FINAL_ZERO,
                                           "factors": [3, 11]}, 6)
    assert replay_verdict(c, v)
    assert [primality._order_verdict(c, a, [3, 11]) for a in range(1, 6)] == [None] * 5
    for a in range(1, 6):
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


def test_no_scan_no_point_no_scalar_mul(monkeypatch):
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
    assert v.certificate["stage"] == "parameter-scan"


def test_order_pool_certificates():
    # p prime: final-zero, by the fold; p composite: final-nonzero, and
    # the flipped outcome or status replays INVALID
    for c, status in order_pool_candidates():
        v = auto_test(c)
        outcome = FINAL_ZERO if status == PRIME else FINAL_NONZERO
        assert v == Verdict(status, "large-n", {"type": "order", "outcome": outcome,
                                                "factors": list(c.n_factors or (c.n,))})
        flipped = {**v.certificate, "outcome": FINAL_NONZERO if status == PRIME else FINAL_ZERO}
        assert not replay_verdict(c, v._replace(certificate=flipped))
        assert not replay_verdict(c, v._replace(status=COMPOSITE if status == PRIME else PRIME))
