import random

import pytest

from ecriesel.numtheory import (
    FormCandidate,
    gate_large_n,
    gate_small_n,
    iroot4,
    is_prime_oracle,
    isqrt,
    jacobi,
    lucas_lehmer,
    miller_rabin,
    mod_inverse,
    reduce_special,
    sieve_primes,
    trial_division,
)


class TestFormCandidate:
    def test_decomposition(self):
        c = FormCandidate(k=5, n=1)
        assert c.p == 31
        assert (c.p + 1) == (1 << c.k) * c.n

    @pytest.mark.parametrize("k,n", [(1, 3), (0, 1), (2, 4), (2, 0), (3, -5)])
    def test_rejects_bad_shapes(self, k, n):
        with pytest.raises(ValueError):
            FormCandidate(k=k, n=n)

    def test_rejects_wrong_factors(self):
        with pytest.raises(ValueError):
            FormCandidate(k=2, n=15, n_factors=(3, 7))
        FormCandidate(k=2, n=15, n_factors=(3, 5))

    def test_p_is_3_mod_4(self):
        for k in range(2, 8):
            for n in range(1, 30, 2):
                assert FormCandidate(k=k, n=n).p % 4 == 3


class TestJacobi:
    @pytest.mark.parametrize(
        "a,n,expected",
        [
            (3, 31, -1),  # the non-residue coefficient used on the Mersenne path
            (2, 31, 1),  # 31 = -1 (mod 8), so 2 is a residue
            (1, 9, 1),
            (6, 15, 0),  # shared factor 3
        ],
    )
    def test_examples(self, a, n, expected):
        assert jacobi(a, n) == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 100])
    def test_rejects_bad_modulus(self, n):
        with pytest.raises(ValueError):
            jacobi(5, n)

    def test_multiplicative(self):
        rng = random.Random(1)
        for _ in range(2000):
            n = rng.randrange(3, 10**6) | 1
            a = rng.randrange(-10**6, 10**6)
            b = rng.randrange(-10**6, 10**6)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_euler_agreement(self):
        # exhaustive below 3000; seeded 300-sample per prime up to 10^4
        rng = random.Random(2)
        for p in sieve_primes(10**4):
            if p == 2:
                continue
            exponent = (p - 1) // 2
            if p < 3000:
                candidates = range(1, p)
            else:
                candidates = (rng.randrange(1, p) for _ in range(300))
            for a in candidates:
                e = pow(a, exponent, p)
                e = -1 if e == p - 1 else e
                assert jacobi(a, p) == e, (a, p)

    def test_periodic_in_a(self):
        for n in (9, 15, 21, 1001):
            for a in range(-20, 20):
                assert jacobi(a, n) == jacobi(a + n, n)


class TestModInverse:
    def test_examples(self):
        out = mod_inverse(8, 31)
        assert out.inverse == 4 and 8 * 4 % 31 == 1
        out = mod_inverse(6, 15)
        assert out.divisor == 3
        out = mod_inverse(15, 15)
        assert out.is_zero

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            mod_inverse(3, 1)

    def test_exhaustive_soundness(self):
        for n in range(2, 500):
            for a in range(n):
                out = mod_inverse(a, n)
                if out.inverse is not None:
                    assert a * out.inverse % n == 1
                elif out.divisor is not None:
                    d = out.divisor
                    assert 1 < d < n and n % d == 0 and a % d == 0
                else:
                    assert a % n == 0


class TestIntegerRoots:
    def test_examples(self):
        assert isqrt(24) == 4
        assert iroot4(383) == 4  # 4^4 = 256 <= 383 < 625
        assert iroot4(16) == 2

    def test_bracketing(self):
        rng = random.Random(3)
        for _ in range(2000):
            t = rng.randrange(0, 1 << 128)
            r = iroot4(t)
            assert r**4 <= t < (r + 1) ** 4
            s = isqrt(t)
            assert s * s <= t < (s + 1) ** 2


class TestGates:
    @pytest.mark.parametrize(
        "k,n,expected",
        [(7, 3, True), (3, 5, False), (2, 1, False)],
    )
    def test_small_gate_examples(self, k, n, expected):
        assert gate_small_n(FormCandidate(k=k, n=n)) is expected

    @pytest.mark.parametrize(
        "k,n,expected",
        [(2, 2633, True), (2, 5, False), (2, 2503, True)],
    )
    def test_large_gate_examples(self, k, n, expected):
        assert gate_large_n(FormCandidate(k=k, n=n)) is expected

    def test_conservativeness(self):
        # when a gate passes, the integer inequality holds by construction
        # and p is never an exact fourth power (p = 3 mod 4)
        for k in range(2, 12):
            for n in range(1, 200, 2):
                c = FormCandidate(k=k, n=n)
                r = iroot4(c.p)
                assert r**4 != c.p
                if gate_small_n(c):
                    assert n * (r + 2) ** 2 <= c.p
                if gate_large_n(c):
                    assert (1 << k) * (r + 2) ** 2 <= c.p

    def test_gates_never_both_hold(self):
        # both gates would give (p + 1) * r^4 <= p^2 for r = iroot4(p) + 2,
        # so r^4 < p, yet r^4 > p; n near 2^k is where both come closest
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        seen = set()

        @st.composite
        def candidates(draw):
            k = draw(st.integers(2, 400))
            half = 1 << (k // 2 + 3)
            n = draw(st.one_of(st.integers(0, 2**20).map(lambda h: 2 * h + 1),
                               st.integers(-half, half).map(lambda d: (1 << k) + 2 * d + 1)))
            return FormCandidate(k=k, n=max(n, 1))

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
        @hypothesis.given(candidates())
        def check(c):
            small, large = gate_small_n(c), gate_large_n(c)
            assert not (small and large), c
            seen.add((small, large))

        check()
        assert seen == {(True, False), (False, True), (False, False)}


class TestReduceSpecial:
    def test_edge_values(self):
        c = FormCandidate(k=5, n=1)
        assert reduce_special(c.p, c) == 0
        assert reduce_special(c.p + 1, c) == 1  # 2^k * n = 1 (mod p)
        assert reduce_special(978, c) == 17
        assert reduce_special(0, c) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            reduce_special(-1, FormCandidate(k=2, n=1))

    @pytest.mark.parametrize("k,n", [(5, 1), (2, 3), (7, 9), (4, 55), (13, 1)])
    def test_matches_plain_division(self, k, n):
        c = FormCandidate(k=k, n=n)
        rng = random.Random(k * 1000 + n)
        for _ in range(10_000):
            t = rng.randrange(0, c.p * c.p * 4)
            assert reduce_special(t, c) == t % c.p


class TestTrialDivision:
    def test_examples(self):
        assert trial_division(10531) == 10531
        assert trial_division(10011) == 3
        assert trial_division(4) == 2

    def test_bound_rejection(self):
        with pytest.raises(ValueError):
            trial_division(10**12 + 1)
        with pytest.raises(ValueError):
            trial_division(1)

    def test_least_factor_is_prime_and_least(self):
        for n in range(2, 2000):
            f = trial_division(n)
            assert n % f == 0
            assert all(n % d for d in range(2, f))

    def test_is_prime_oracle(self):
        primes = set(sieve_primes(2000))
        for n in range(2, 2000):
            assert is_prime_oracle(n) == (n in primes)
        # Miller-Rabin takes over above 10^4; a strong pseudoprime to the
        # bases 2 to 23 and the square of a prime are composite all the same
        primes = set(sieve_primes(30000))
        for n in range(9000, 30000):
            assert is_prime_oracle(n) == (n in primes), n
        assert is_prime_oracle(3825123056546413051) is False
        assert is_prime_oracle(1000003**2) is False


class TestMillerRabin:
    def test_examples(self):
        assert miller_rabin(31, (2, 3)) is True
        assert miller_rabin(2047, (2,)) is True  # strong pseudoprime base 2
        assert miller_rabin(561, (2,)) is False  # Carmichael, caught base 2

    def test_composite_answers_are_exact(self):
        primes = set(sieve_primes(30_000))
        for n in range(3, 30_000, 2):
            assert miller_rabin(n) == (n in primes)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            miller_rabin(10)


class TestLucasLehmer:
    def test_examples(self):
        assert lucas_lehmer(3) is True
        assert lucas_lehmer(5) is True
        assert lucas_lehmer(11) is False  # 2047 = 23 * 89

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            lucas_lehmer(2)

    def test_agrees_with_trial_division(self):
        for k in range(3, 31):
            m = (1 << k) - 1
            assert lucas_lehmer(k) == (trial_division(m) == m), k


def test_sieve_primes():
    assert sieve_primes(1) == []
    assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(sieve_primes(10**4)) == 1229
