import random

import pytest

from ecriesel.ecring import (
    INFINITY,
    Curve,
    FactorFound,
    Point,
    add,
    double,
    double_x_only,
    on_curve,
    scalar_mul,
)
from ecriesel.numtheory import jacobi, sieve_primes
from ecriesel.oracle import enumerate_points, point_order

SMALL_PRIMES_3MOD4 = [p for p in sieve_primes(500) if p % 4 == 3]


def random_curve_point(rng, p):
    """A random affine point on some curve y^2 = x^3 - m*x over F_p.

    Choosing x, y first and solving for m = (x^3 - y^2)/x puts (x, y) on
    the curve by construction whenever x is a unit and m is nonzero.
    """
    while True:
        x = rng.randrange(1, p)
        y = rng.randrange(0, p)
        m = (x * x * x - y * y) * pow(x, -1, p) % p
        if m != 0:
            return Curve(p, m), Point(x, y)


class TestCurveValidation:
    def test_rejects_even_or_tiny_modulus(self):
        with pytest.raises(ValueError):
            Curve(8, 3)
        with pytest.raises(ValueError):
            Curve(1, 1)

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError):
            Curve(15, 15)


class TestOnCurve:
    def test_examples(self):
        assert on_curve(Curve(31, 6), Point(3, 3))
        assert on_curve(Curve(31, 3), Point(30, 8))  # x = -1, y*y = 2
        assert on_curve(Curve(31, 3), INFINITY)
        assert not on_curve(Curve(31, 6), Point(3, 4))


class TestDouble:
    def test_hand_trace(self):
        out = double(Curve(31, 3), Point(30, 8))
        assert out == Point(2, 23)
        assert on_curve(Curve(31, 3), out)

    def test_two_torsion_goes_to_infinity(self):
        assert double(Curve(7, 3), Point(0, 0)).is_infinity

    def test_order_four_step(self):
        assert double(Curve(7, 3), Point(2, 4)) == Point(0, 0)

    def test_infinity_fixed(self):
        assert double(Curve(7, 3), INFINITY).is_infinity


class TestAdd:
    def test_identity(self):
        c = Curve(7, 3)
        pt = Point(6, 3)
        assert add(c, pt, INFINITY) == pt
        assert add(c, INFINITY, pt) == pt

    def test_inverse_pair(self):
        assert add(Curve(7, 3), Point(6, 3), Point(6, 4)).is_infinity

    def test_equal_points_delegate_to_double(self):
        c = Curve(7, 3)
        assert add(c, Point(2, 4), Point(2, 4)) == double(c, Point(2, 4))

    def test_factor_in_chord_denominator(self):
        with pytest.raises(FactorFound) as info:
            add(Curve(15, 1), Point(2, 1), Point(7, 2))
        assert info.value.divisor == 5
        assert 15 % info.value.divisor == 0


    def test_equal_x_with_unrelated_y_exposes_a_factor(self):
        # on 209 = 11 * 19, 4P = P mod 11 and 4P = -P mod 19: 4P + P is 2P
        # mod 11, not infinity, so add reports the factor 11
        curve, pt = Curve(209, 4), Point(102, 178)
        assert on_curve(curve, pt)
        four = scalar_mul(curve, 4, pt)
        assert four == Point(102, 145) and (four.y + pt.y) % 209 == 114
        with pytest.raises(FactorFound) as info:
            add(curve, four, pt)
        assert info.value.divisor == 11
        # a true inverse pair, and equal x off the curve, stay infinity
        assert add(curve, pt, Point(102, -178 % 209)).is_infinity
        assert add(curve, pt, Point(102, 179)).is_infinity
        # also when y = 0 mod 11 makes gcd(y - y', 209) = gcd(2y, 209) = 11
        curve, pt = Curve(209, (27 - 22 * 22) * pow(3, -1, 209) % 209), Point(3, 22)
        assert add(curve, pt, Point(3, -22 % 209)).is_infinity


class TestScalarMul:
    def test_zero_scalar(self):
        assert scalar_mul(Curve(7, 3), 0, Point(6, 3)).is_infinity

    def test_order_eight_trace(self):
        c = Curve(7, 3)
        pt = Point(6, 3)
        assert scalar_mul(c, 2, pt) == Point(2, 4)
        assert scalar_mul(c, 4, pt) == Point(0, 0)
        assert scalar_mul(c, 8, pt).is_infinity

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scalar_mul(Curve(7, 3), -1, Point(6, 3))

    def test_no_infinity_for_a_sum_that_is_finite_mod_a_factor(self):
        # 5P = O mod 19 but (3, 9) mod 11: the walk meets the factor 11
        with pytest.raises(FactorFound) as info:
            scalar_mul(Curve(209, 4), 5, Point(102, 178))
        assert info.value.divisor == 11
        assert scalar_mul(Curve(11, 4), 5, Point(102 % 11, 178 % 11)) == Point(3, 9)
        assert scalar_mul(Curve(19, 4), 5, Point(102 % 19, 178 % 19)).is_infinity

    def test_matches_repeated_addition(self):
        rng = random.Random(11)
        for _ in range(50):
            p = rng.choice(SMALL_PRIMES_3MOD4)
            curve, pt = random_curve_point(rng, p)
            acc = INFINITY
            for s in range(12):
                assert scalar_mul(curve, s, pt) == acc
                acc = add(curve, acc, pt)


class TestXOnlyDoubling:
    def test_examples(self):
        assert double_x_only(Curve(31, 3), 30) == 2
        assert double_x_only(Curve(31, 3), 0) is None  # x^3 - 3x = 0
        assert double_x_only(Curve(15, 3), 2) == 8

    def test_agrees_with_full_double(self):
        rng = random.Random(12)
        primes = [p for p in sieve_primes(10**4) if p % 4 == 3 and p > 3]
        for _ in range(1500):
            p = rng.choice(primes)
            curve, pt = random_curve_point(rng, p)
            full = double(curve, pt)
            x_only = double_x_only(curve, pt.x)
            if full.is_infinity:
                assert x_only is None
            else:
                assert x_only == full.x


class TestCurveLawProperties:
    def test_closure_over_prime_modulus(self):
        rng = random.Random(13)
        for _ in range(400):
            p = rng.choice(SMALL_PRIMES_3MOD4)
            curve, pt = random_curve_point(rng, p)
            d = double(curve, pt)
            assert on_curve(curve, d)
            s = scalar_mul(curve, rng.randrange(0, 50), pt)
            assert on_curve(curve, s)
            assert on_curve(curve, add(curve, d, s))

    def test_commutative_and_associative(self):
        rng = random.Random(14)
        for _ in range(150):
            p = rng.choice([q for q in SMALL_PRIMES_3MOD4 if q > 20])
            m = rng.randrange(1, p)
            points = [pt for pt in enumerate_points(p, m) if not pt.is_infinity]
            curve = Curve(p, m)
            a, b, c = (rng.choice(points) for _ in range(3))
            assert add(curve, a, b) == add(curve, b, a)
            assert add(curve, add(curve, a, b), c) == add(curve, a, add(curve, b, c))

    @staticmethod
    def _check_order_identity(curve, p, m, pt):
        order = point_order(p, m, pt)
        assert scalar_mul(curve, order, pt).is_infinity
        assert (p + 1) % order == 0
        q = 2
        while q <= order:
            if order % q == 0:
                assert not scalar_mul(curve, order // q, pt).is_infinity
            q += 1

    def test_order_identity_against_oracle_exhaustive_small(self):
        # every point of every curve below 100 obeys its oracle order under
        # scalar_mul, and no proper prime quotient of the order kills it
        for p in [q for q in SMALL_PRIMES_3MOD4 if q < 100]:
            for m in range(1, p):
                curve = Curve(p, m)
                for pt in enumerate_points(p, m):
                    self._check_order_identity(curve, p, m, pt)

    def test_order_identity_against_oracle_sampled_to_500(self):
        # up to 500: one curve per group-structure branch, sampled points
        rng = random.Random(16)
        for p in SMALL_PRIMES_3MOD4:
            nonres = next(m for m in range(2, p) if jacobi(m, p) == -1)
            res = next((m for m in range(2, p) if jacobi(m, p) == 1), None)
            for m in filter(None, (nonres, res)):
                curve = Curve(p, m)
                points = enumerate_points(p, m)
                for pt in rng.sample(points, min(12, len(points))):
                    self._check_order_identity(curve, p, m, pt)


class TestFactorOutcomes:
    def test_factor_divides_modulus(self):
        rng = random.Random(15)
        seen = 0
        for _ in range(4000):
            n = rng.randrange(3, 5000) | 1
            m = rng.randrange(1, n)
            if m % n == 0:
                continue
            curve = Curve(n, m)
            pt = Point(rng.randrange(0, n), rng.randrange(0, n))
            try:
                double(curve, pt)
                scalar_mul(curve, rng.randrange(2, 64), pt)
            except FactorFound as exc:
                seen += 1
                assert 1 < exc.divisor < n
                assert n % exc.divisor == 0
        assert seen > 50  # composite moduli leak factors routinely
