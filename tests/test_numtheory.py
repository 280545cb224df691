import random
from math import gcd, prod

import pytest

from ecriesel import numtheory
from ecriesel.numtheory import (
    MAX_P_BITS,
    MERSENNE_FOLD_BITS,
    MR_DEFAULT_BASES,
    PSI_13,
    RIESEL_FOLD_BITS,
    FormCandidate,
    bpsw,
    fold_shape,
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

try:  # only the property test needs hypothesis
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    given = None


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

    def test_size_cap(self):
        # k + bits(n) is checked before p is formed, and p is not formed
        # here: at the cap a candidate is accepted, one bit past it refused
        for k, n in ((MAX_P_BITS - 1, 1), (MAX_P_BITS - 2, 3), (2, (1 << (MAX_P_BITS - 2)) - 1)):
            assert FormCandidate(k=k, n=n).k + n.bit_length() == MAX_P_BITS
        for k, n in ((MAX_P_BITS, 1), (MAX_P_BITS - 1, 3), (10**12, 1), (10**20, 21),
                     (3, (1 << (MAX_P_BITS - 2)) - 1)):
            with pytest.raises(ValueError, match="MAX_P_BITS"):
                FormCandidate(k=k, n=n)

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


def textbook_strong(n, bases):
    """The textbook strong test, a frozen reference: pow(b, d, n) with
    n - 1 = 2^r d, d odd, then r - 1 squarings by `%` (miller_rabin's loop
    for an n of no fold shape)."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for b in bases:
        if not 2 <= b <= n - 2:
            continue
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def plus_minus_b(n, b):
    """The strong test's r = 1 form without its gcd: b^(c 2^(k-1)) = +-b."""
    x = pow(b, (n + 1) >> 1, n)
    return x == b % n or x == n - b % n


def idempotent(n, ell):
    """The b in [2, n - 2] with b = 0 mod ell's part of n and 1 mod the rest:
    b^e = b for every e >= 1, so b passes the +-b form, yet shares ell with n."""
    part = ell
    while n % (part * ell) == 0:
        part *= ell
    rest = n // part
    return part * pow(part, -1, rest) % n


def riesel(c, k):
    return (c << k) - 1


# (k, bits(c)) of n = c 2^k - 1: bits(c) = k + 16 (folded) and k + 17
# (not), with n of 2k + 16 and 2k + 17 bits on either side of
# RIESEL_FOLD_BITS; c small and c about 2^k below, at and above it.
# riesel_cases takes the least odd c of that length and the next ones.
FOLD_EDGES = [
    (375, 391), (375, 392), (376, 392), (376, 393), (400, 416), (400, 417), (507, 523),
    (766, 2), (765, 2), (767, 2), (1028, 2), (760, 9), (761, 9),
    (383, 384), (384, 384), (383, 385), (515, 515),
]


def riesel_cases(count=6):
    for k, cbits in FOLD_EDGES:
        for i in range(count):
            c = (1 << (cbits - 1)) + 1 + 2 * i
            yield riesel(c, k)


class TestStrongTestOnTheFolds:
    """miller_rabin on n of a fold shape (one pow(b, c, n), k - 1 folded
    squarings) against the textbook loop it replaces there."""

    @pytest.mark.parametrize("bases", [(3,), MR_DEFAULT_BASES], ids=["3", "default"])
    def test_mersenne_numbers(self, bases):
        # the shift-and-fold from j = MERSENNE_FOLD_BITS, `%` below
        for k in range(3, 701):
            n = (1 << k) - 1
            assert fold_shape(n) == (k >= MERSENNE_FOLD_BITS,
                                     (k, 1) if k >= RIESEL_FOLD_BITS else None)
            assert miller_rabin(n, bases) == textbook_strong(n, bases), k

    @pytest.mark.parametrize("bases", [(3,), MR_DEFAULT_BASES], ids=["3", "default"])
    def test_riesel_shapes(self, bases):
        folded = 0
        for n in riesel_cases():
            k = ((n + 1) & -(n + 1)).bit_length() - 1
            c = (n + 1) >> k
            shape = n.bit_length() >= RIESEL_FOLD_BITS and c.bit_length() <= k + 16
            assert fold_shape(n) == (False, (k, c) if shape else None), (c, k)
            folded += shape
            assert miller_rabin(n, bases) == textbook_strong(n, bases), (c, k)
        assert folded == 71  # 5 of (765, 2): c = 3 gives 767 bits

    @pytest.mark.parametrize("c, k", [
        (3, 827), (347, 800), ((1 << 391) + 915, 376), ((1 << 383) + 75, 384),
    ], ids=["3", "347", "2^391", "2^383"])
    def test_probable_primes_pass(self, c, k):
        # 3 2^827 - 1 is a Riesel prime, 347 2^800 - 1 is prime (the CLI
        # smoke test's), and the last two c are the least above 2^391 and
        # 2^383 that give 768-bit strong probable primes to base 3
        n = riesel(c, k)
        assert fold_shape(n)[1] == (k, c)
        assert textbook_strong(n, (3,))
        assert miller_rabin(n, (3,)) and miller_rabin(n)

    @pytest.mark.parametrize("n, ell", [
        ((1 << 768) - 1, 3), ((1 << 768) - 1, 5), ((1 << 1280) - 1, 3),
        ((1 << MERSENNE_FOLD_BITS) - 1, 5), (riesel(3, 769), 5), (riesel(3, 772), 11),
    ], ids=["M768-3", "M768-5", "M1280-3", "M100-5", "3*2^769-1-5", "3*2^772-1-11"])
    def test_bases_that_share_a_factor(self, n, ell):
        assert any(fold_shape(n)) and n % ell == 0
        b = idempotent(n, ell)
        # such a base passes the +-b form; the gcd makes it the witness it is
        assert plus_minus_b(n, b)
        shared = [b, ell, ell * ell, 3 * ell, 9, 15]
        for base in shared:
            if 2 <= base <= n - 2 and gcd(base, n) > 1:
                assert miller_rabin(n, (base,)) is False, base
                assert textbook_strong(n, (base,)) is False, base
        assert miller_rabin(n, (2, b)) is False

    def test_bases_outside_the_range_are_skipped(self):
        for n in [(1 << 607) - 1, (1 << 1279) - 1, riesel(347, 800), riesel(9, 765)]:
            assert any(fold_shape(n))
            outside = (-3, 0, 1, n - 1, n, n + 3, 2 * n)
            assert miller_rabin(n, outside) is True
            assert miller_rabin(n, outside + (3,)) == textbook_strong(n, (3,))


if given is not None:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(k=st.integers(16, 900), data=st.data())
    def test_folds_match_the_textbook_loop(k, data):
        sizes = st.integers(1, k + 16)
        if RIESEL_FOLD_BITS - k <= k + 16:  # a Riesel fold shape exists: draw it half the time
            sizes = st.one_of(sizes, st.integers(max(1, RIESEL_FOLD_BITS - k), k + 16))
        cbits = data.draw(sizes)
        c = data.draw(st.integers(1 << (cbits - 1), (1 << cbits) - 1)) | 1
        n = riesel(c, k)
        base = data.draw(st.integers(2, 1000))
        assert miller_rabin(n, (3,)) == textbook_strong(n, (3,))
        assert miller_rabin(n, (base,)) == textbook_strong(n, (base,))


# psi_12 = 399165290221 * 798330580441 and psi_13 = 1287836182261 *
# 2575672364521 pass Miller-Rabin on the first 12 prime bases
PSI_12 = 318665857834031151167461


def mr_random(n, rng, count=40):
    """Miller-Rabin on count seeded random bases, the reference bpsw is
    checked against above 2^64 (sympy.isprime is itself BPSW there)."""
    return miller_rabin(n, tuple(rng.randrange(2, n - 1) for _ in range(count)))


def random_prime(bits, rng):
    """The first odd n from a random bits-bit start that passes mr_random."""
    small = prod(sieve_primes(1000)[1:])
    n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    while gcd(n, small) != 1 or not mr_random(n, rng):
        n += 2
    return n


class TestBPSW:
    def test_agrees_with_trial_division(self):
        primes = set(sieve_primes(2 * 10**5))
        for n in range(3, 2 * 10**5, 2):
            assert bpsw(n) == (n in primes), n

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
    def test_strong_lucas_pseudoprimes_fail_base_2(self, monkeypatch, n):
        # with base 2 passing every n, bpsw is the Lucas step alone
        assert not miller_rabin(n, (2,)) and not bpsw(n)
        monkeypatch.setattr(numtheory, "miller_rabin", lambda n, bases: True)
        assert bpsw(n)

    @pytest.mark.parametrize("n", [2047, 3277, 4033])
    def test_base_2_pseudoprimes_fail_the_lucas_step(self, n):
        assert miller_rabin(n, (2,)) and not bpsw(n)

    @pytest.mark.parametrize("n", [1093**2, 3511**2])
    def test_squares_are_refused_before_the_search_for_d(self, monkeypatch, n):
        # squares of the Wieferich primes pass base 2.  (D/n) is never -1 on
        # a square, so the search for D would run up to n's least prime
        # factor: a square of a 128-bit prime, past base 2, is refused too
        assert miller_rabin(n, (2,)) and not bpsw(n)
        monkeypatch.setattr(numtheory, "miller_rabin", lambda n, bases: True)
        assert not bpsw(random_prime(128, random.Random(n)) ** 2)

    @pytest.mark.parametrize("n", [PSI_12, PSI_13])
    def test_psi_12_and_psi_13_are_refused(self, n):
        assert miller_rabin(n) and not bpsw(n)

    @pytest.mark.parametrize("bits", [128, 516, 1028])
    def test_agrees_with_random_bases(self, bits):
        rng = random.Random(bits)
        for _ in range(20):
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            assert bpsw(n) == mr_random(n, rng), n
        for _ in range(3):
            assert bpsw(random_prime(bits, rng))

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            bpsw(10)


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
