"""The Riesel fold against the `%` kernels and the affine walks.

On a modulus n = c * 2^k - 1 of at least RIESEL_FOLD_BITS bits with
bits(c) <= k + 16, the x-only ladder and the chain on E: y^2 = x^3 + x
reduce by two folds and a `%`, which multiplies every reduction by the
unit c^2.  The folded kernels are pinned to the `%` kernels they copy;
chain_outcome is compared with the affine reference run_sequence at
m = -1, and scalar_mul, the affine reference the ladder is tested
against, with affine_multiple, on composite moduli of that shape: the
same point, infinity or divisor, and the chain's end gcd holds the prime
mod which the affine walk fails.
"""

import random

import pytest

from ecriesel import ecring
from ecriesel.ecring import (
    Curve,
    FactorFound,
    Point,
    _x_only_doublings,
    _x_only_doublings_folded,
    _x_only_ladder,
    double_x_only_chain,
    scalar_mul,
)
from ecriesel.numtheory import RIESEL_FOLD_BITS, _riesel_fold, miller_rabin
from ecriesel.sequence import EARLY_INFINITY, GCD_HIT, SequenceOutcome, chain_outcome, run_sequence
from test_chain_walker import agrees_with_affine, crt, end_gcd, order_2s_abscissa
from test_projective import affine_multiple, first_failing_op

# q = 3 * 2^18 - 1 is prime, so E over F_q has points of order 2^s, s <= 18
Q18 = 3 * (1 << 18) - 1
K = 800  # n = c * 2^K - 1 lies above RIESEL_FOLD_BITS for every c >= 1


def shaped(k, c_bits, rng):
    """n = c * 2^k - 1 with c of exactly c_bits bits (c odd when c_bits > 1)."""
    c = rng.getrandbits(c_bits) | (1 << (c_bits - 1)) | (c_bits > 1)
    return c * (1 << k) - 1, c


def with_factor(q, k, c_bits, rng):
    """n = c * 2^k - 1 with q | n, c odd of about c_bits bits, and no other
    factor of n below 10^4."""
    while True:
        c = pow(2, -k, q) + q * rng.getrandbits(c_bits - q.bit_length() - 1)
        c += q * (c % 2 == 0)
        n = c * (1 << k) - 1
        if all((n // q) % f for f in range(3, 10**4, 2)):
            return n, c


def prime_shaped(k, c_bits, rng):
    """The least prime c * 2^k - 1 from a random odd c of c_bits bits up."""
    n, c = shaped(k, c_bits, rng)
    while not miller_rabin(n):
        c += 2
        n = c * (1 << k) - 1
    return n, c


class TestFoldedKernels:
    @pytest.mark.parametrize("c_bits", [1, 2, 30, K - 300, K + 16])
    def test_one_reduction(self, c_bits):
        # one doubling at the largest inputs of either sign: each
        # reduction, of some |t| < 4 n^2, gives c^2 t mod n in [0, n), so
        # X' and Z' are c^6 times the `%` formula's
        rng = random.Random(c_bits)
        n, c = shaped(K, c_bits, rng)
        edge = n - 1
        pairs = [(edge, edge), (-edge, edge), (edge, -edge), (-edge, -edge), (0, edge)]
        pairs += [(rng.randrange(-edge, n), rng.randrange(-edge, n)) for _ in range(80)]
        unit = pow(c, 6, n)
        for X, Z in pairs:
            got = _x_only_doublings_folded(X, Z, 1, n, K, c)
            want = _x_only_doublings(X, Z, 1, n, False)
            assert all(0 <= v < n for v in got), (X, Z)
            assert list(got) == [v * unit % n for v in want], (X, Z)

    @pytest.mark.parametrize("c_bits", [1, 2, 30, K - 300, K + 16])
    def test_x_only_copies_agree(self, c_bits):
        # each folded doubling multiplies X and Z by c^6 against division's
        # formula on the same inputs, so t doublings by c^(2 (4^t - 1)), for
        # inputs of either sign, and leaves both in [0, n)
        rng = random.Random(-c_bits)
        n, c = shaped(K, c_bits, rng)
        for trial in range(40):
            X, Z = (rng.randrange(-n + 1, n) for _ in range(2))
            if trial < 4:
                X, Z = (n - 1) * (-1) ** trial, (n - 1) * (-1) ** (trial // 2)
            times = rng.randrange(1, 6)
            want = _x_only_doublings(X, Z, times, n, False)
            got = _x_only_doublings_folded(X, Z, times, n, K, c)
            assert all(0 <= v < n for v in got)
            unit = pow(c, 2 * (4 ** times - 1), n)
            assert [v % n for v in got] == [v * unit % n for v in want]

    @pytest.mark.parametrize("c_bits", [1, 2, 30, K - 300, K + 16])
    def test_ladder_copies_agree(self, c_bits):
        # each folded addition and doubling multiplies its result by c^6
        # against the `%` ladder's formula on the same inputs, which are of
        # degree 2 in each summand and 4 in the doubled point: tracking the
        # exponent of c through the bits gives the unit between the two ends.
        # The difference is word-size (below 2^16: it multiplies the folded
        # (a - b)^2 unreduced, so the end Z lies in [0, x n)), 2^16 (the
        # least that enters pre-scaled by c^-2), n - 1 or any other x.
        rng = random.Random(1000 + c_bits)
        n, c = shaped(K, c_bits, rng)
        for trial in range(24):
            x = (2 + trial, n - 1)[trial % 2] if trial < 10 else rng.randrange(1, n)
            if trial >= 20:
                x = ((1 << 16) - 1, 1 << 16, 3, 65)[trial - 20]
            s = rng.getrandbits(rng.randrange(1, 48)) | 1
            want = _x_only_ladder(s, x, n, None)
            got = _x_only_ladder(s, x, n, (K, c))
            e0 = e1 = 0
            for bit in bin(s)[2:]:
                if bit == "1":
                    e0, e1 = e1, e0
                e0, e1 = 6 + 4 * e0, 6 + 2 * e0 + 2 * e1
                if bit == "1":
                    e0, e1 = e1, e0
            assert 0 <= got[0] < n
            assert 0 <= got[1] < (x if x < 1 << 16 else 1) * n
            unit = pow(c, e0, n)
            assert [v % n for v in got] == [v * unit % n for v in want], s


class TestThreshold:
    @pytest.fixture
    def kernels(self, monkeypatch):
        """The names of the kernels that the chain and the ladder call."""
        seen = set()
        for name in ("_x_only_doublings", "_x_only_doublings_folded"):
            def spy(*args, _name=name, _kernel=getattr(ecring, name)):
                seen.add(_name)
                return _kernel(*args)
            monkeypatch.setattr(ecring, name, spy)
        return seen

    def moduli(self):
        """(n, folds): just below and at the threshold, and at bits(c) = k + 16, k + 17."""
        rng = random.Random(7)
        k = RIESEL_FOLD_BITS - 20
        below, _ = shaped(k, 19, rng)
        at, _ = shaped(k, 20, rng)
        k = RIESEL_FOLD_BITS // 2
        widest, _ = shaped(k, k + 16, rng)
        too_wide, _ = shaped(k, k + 17, rng)
        assert below.bit_length() == RIESEL_FOLD_BITS - 1 and at.bit_length() == RIESEL_FOLD_BITS
        return [(below, False), (at, True), (widest, True), (too_wide, False)]

    def test_fold_shape(self):
        for n, folds in self.moduli():
            k = ((n + 1) & -(n + 1)).bit_length() - 1
            assert _riesel_fold(n) == ((k, (n + 1) >> k) if folds else None)
        # a Mersenne number is the c = 1 case
        assert _riesel_fold((1 << 1279) - 1) == (1279, 1)

    def test_kernels_taken(self, kernels):
        for n, folds in self.moduli():
            for start, s in ((2, 1), (3, 12345), (2, 12345)):  # the ladder's doublings too
                kernels.clear()
                double_x_only_chain(n, start, 20, s)
                assert kernels == ({"_x_only_doublings_folded"} if folds
                                   else {"_x_only_doublings"}), (n, start, s)

    def test_mersenne_keeps_its_fold(self, kernels):
        # the chain's shift-and-fold, with no `%`, stays on 2^j - 1
        n = (1 << 1279) - 1
        double_x_only_chain(n, 3, 40)
        assert kernels == {"_x_only_doublings"}


def point_of_order_2s(c_bits, s, rng):
    """(curve, point) on n = c * 2^K - 1 = Q18 * cofactor: the curve is E mod
    Q18, where the point has order 2^s, and the point is a random point of
    the curve through it mod the cofactor."""
    n, _ = with_factor(Q18, K, c_bits, rng)
    cofactor = n // Q18
    m_q, x_q = Q18 - 1, order_2s_abscissa(Q18, s)
    rhs = (x_q * x_q - m_q) * x_q % Q18
    y_q = pow(rhs, (Q18 + 1) // 4, Q18)
    assert y_q * y_q % Q18 == rhs
    x_c, y_c = rng.randrange(2, cofactor), rng.randrange(2, cofactor)
    m_c = (x_c ** 3 - y_c * y_c) * pow(x_c, -1, cofactor) % cofactor

    def lift(mod_q, mod_cofactor):
        return crt([(mod_q, Q18), (mod_cofactor, cofactor)])

    curve = Curve(n, lift(m_q, m_c))
    point = Point(lift(x_q, x_c), lift(y_q, y_c))
    assert ecring.on_curve(curve, point)
    return curve, point


class TestAgainstAffine:
    @pytest.mark.parametrize("c_bits", [30, K + 16])
    @pytest.mark.parametrize("s", [1, 3, 4, 9, 17])
    def test_scalar_mul_meets_the_divisor(self, c_bits, s):
        # P has order 2^s mod Q18, so 2^s P and (3 * 2^s + 1) P meet Q18 at
        # the doubling of a point of order 2, at operation 7 or later for
        # s = 9 and 17, and s = 17 past operation 16 or at the last one
        rng = random.Random(f"{c_bits}/{s}")
        curve, point = point_of_order_2s(c_bits, s, rng)
        for mult in (1 << s, (3 << s) + 1):
            failing, _ = first_failing_op(curve, mult, point)
            assert failing is not None and (failing >= 7) == (s >= 9)
            with pytest.raises(FactorFound) as want:
                affine_multiple(curve, mult, point)
            with pytest.raises(FactorFound) as got:
                scalar_mul(curve, mult, point)
            assert got.value.divisor == want.value.divisor == Q18

    @pytest.mark.parametrize("c_bits", [2, 30, K + 16])
    def test_scalar_mul_same_point_and_infinity(self, c_bits):
        # a prime n: E has n + 1 points, so the folded ladder from x(P)
        # ends at infinity for (n + 1) P, and at x(s P) as scalar_mul gives it
        rng = random.Random(c_bits)
        n, c = prime_shaped(K, c_bits, rng)
        assert _riesel_fold(n) == (K, c)
        m = n - 1
        x = 2
        while pow((x ** 3 - m * x) % n, (n - 1) // 2, n) != 1:
            x += 1
        point = Point(x, pow((x ** 3 - m * x) % n, (n + 1) // 4, n))
        curve = Curve(n, m)
        assert _x_only_ladder(n + 1, x, n, (K, c))[1] == 0
        for mult in (2, 3, 1 << 40, rng.getrandbits(300)):
            want = scalar_mul(curve, mult, point)
            assert want == affine_multiple(curve, mult, point)
            X, Z = _x_only_ladder(mult, x, n, (K, c))
            assert Z and (X - want.x * Z) % n == 0

    @pytest.mark.parametrize("c_bits", [30, K + 16])
    @pytest.mark.parametrize("s", [1, 3, 4, 9, 17])
    def test_chain_names_the_step(self, c_bits, s):
        # x0 has order 2^s on E mod Q18: S_s vanishes mod Q18 alone, a gcd
        # hit, and Q18 divides the end Z from doubling s on, not before
        rng = random.Random(f"chain/{c_bits}/{s}")
        curve, point = point_of_order_2s(c_bits, s, rng)
        n = curve.modulus
        for steps in (s + 1, s + 5):
            want, trace = run_sequence(n, -1, point.x, steps)
            assert chain_outcome(n, point.x, steps) == want == SequenceOutcome(GCD_HIT, Q18)
            assert trace.steps_completed == s
        assert end_gcd(n, point.x, s) == Q18
        assert end_gcd(n, point.x, s - 1) == 1

    def test_chain_early_infinity(self):
        # x0 = 0 is 2-torsion modulo every factor: S_1 = 0
        n, _ = shaped(K, 30, random.Random(3))
        want, trace = run_sequence(n, -1, 0, 6)
        assert chain_outcome(n, 0, 6) == want == SequenceOutcome(EARLY_INFINITY)
        assert trace.steps_completed == 1

    def test_random_walks_match(self):
        # composite moduli with small factors: every outcome agrees, the
        # chain's on E
        rng = random.Random(11)
        divisors = 0
        for _ in range(30):
            n, _ = shaped(K, rng.choice([2, 30, K + 16]), rng)
            m, x, y = (rng.randrange(1, n) for _ in range(3))
            curve, point = Curve(n, m), Point(x, y)
            mult = rng.getrandbits(40)
            try:
                want = affine_multiple(curve, mult, point)
            except FactorFound as exc:
                divisors += 1
                with pytest.raises(FactorFound) as got:
                    scalar_mul(curve, mult, point)
                assert got.value.divisor == exc.divisor
            else:
                assert scalar_mul(curve, mult, point) == want
            agrees_with_affine(n, x, rng.randrange(2, 40))
        assert divisors > 0
