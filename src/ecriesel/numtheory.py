"""Integer and modular-arithmetic substrate for Riesel-form primality testing.

Everything here is exact integer arithmetic: Jacobi symbols, three-way
modular inversion (the divisor branch doubles as a factor extractor),
integer roots, the applicability gate of the elliptic tests, the
special-form fast reduction for moduli 2^k*n - 1, the classical
baselines (trial division, Miller-Rabin, Lucas-Lehmer) used as oracles,
the small-prime presieve of a search range and the trial factoring of a
Mersenne number 2^k - 1 by its q = 2jk + 1 (sieve_divisors runs both).
FormCandidate (checked when built) and InverseOutcome are named tuples.

The fold shapes.  fold_shape(n) is the one rule by which the curve kernels
(ecring.double_x_only_chain) and miller_rabin choose how to reduce mod n:
the shift-and-fold on n = 2^j - 1 with j >= MERSENNE_FOLD_BITS, the Riesel
fold on n = c * 2^k - 1 of at least RIESEL_FOLD_BITS bits with
bits(c) <= k + 16 (_riesel_fold; k is the trailing zeros of n + 1, so c is
odd), and `%` everywhere else.  Both shapes have k >= 16 (a Riesel n of
768 bits or more has k + bits(c) >= 768 and bits(c) <= k + 16), so
n - 1 = 2 (c 2^(k-1) - 1) with an odd cofactor d = c 2^(k-1) - 1: r = 1,
and the strong test to a
base b is b^d = +-1 (mod n).  For b a unit this is b^(c 2^(k-1)) = +-b,
one pow(b, c, n) and k - 1 squarings; a b that shares a factor with n has
no unit power, so it is a witness, and miller_rabin says so by a gcd
before the squarings (the +-b form alone passes some: a b that is 0 mod
one prime power of n and 1 mod the rest has b^e = b for every e >= 1).
One folded squaring:

  * shift-and-fold, n = 2^j - 1, B = 2^j: f(t) = (t & n) + (t >> j) = t
    mod n (taken from j = MERSENNE_FOLD_BITS on, below which `%` is
    faster).  From x in [0, n + 2], x^2 <= B^2 + 2B + 1, one fold gives at
    most (B - 1) + (B + 2) = 2B + 1, and a second at most (B - 1) + 2 =
    n + 2: x stays in [0, n + 2] with two folds and no `%`, and a last `%`
    gives the residue;
  * Riesel fold, as ecring's docstring proves with L = 1 (x in [0, n), so
    x^2 < n^2): two folds leave t below (c / 2^k + 2)(n + 1), so the `%`
    that follows has a quotient below 2^16 + 2, one digit, and costs
    linear time where a full `%` costs quadratic.  Each step multiplies by
    the unit c^2, so the start is scaled by c^-2 = 2^(2k): x stays
    c^-2 times the true power, and is compared with +-(b 2^(2k) mod n).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt

# Hard cap for exact trial-division answers.
ORACLE_LIMIT = 10**12

# First 12 primes.  Composite answers are always exact; a probable-prime
# answer is proven only below psi_12 = 318665857834031151167461
# (Sorenson-Webster 2017).  The curve routes check a factor of n at or above
# PSI_13 on this test, so their prime verdicts are conditional there.
MR_DEFAULT_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# is_prime_oracle: trial division up to TRIAL_LIMIT, then Miller-Rabin on
# the first 13 primes, a proof below PSI_13 (Sorenson-Webster 2017).
TRIAL_LIMIT = 10**4
ORACLE_BASES = MR_DEFAULT_BASES + (41,)
PSI_13 = 3317044064679887385961981

# Least bit length of a modulus c * 2^k - 1 that the curve kernels and
# miller_rabin reduce by the Riesel fold: below it `%` is faster (the
# crossover table in CHANGES.md).
RIESEL_FOLD_BITS = 768
# Least j for which they reduce 2^j - 1 by the shift-and-fold: below it the
# chain's doublings and the strong test are faster by `%` and pow (the
# crossover figures in CHANGES.md).
MERSENNE_FOLD_BITS = 100

# Most bits of p = 2^k * n - 1, counted as k + bits(n), that FormCandidate
# accepts: a 2 MiB integer, far past any p this package can decide, so a
# forged k in a record is refused before 2^k * n - 1 is formed.  It bounds
# the size of p, not the work of deciding it (cli.REPLAY_MAX_P_BITS bounds
# replay's).
MAX_P_BITS = 1 << 24

# Largest prime that presieves a search range.
SIEVE_BOUND = 1 << 16
# Sieving bound per candidate of the range, so that a narrow range builds
# and walks few primes: a prime costs about one modular power (a microsecond),
# a candidate that reaches the curve routes tens of microseconds or more.
SIEVE_BOUND_PER_CANDIDATE = 16
# Least exponent k whose M_k = 2^k - 1 mersenne_trial_factor divides by its
# q = 2jk + 1 below k^2 / 4.  On average over prime k the step saves more
# witness time than it costs from about k = 32 on (CHANGES.md); 65 leaves
# M_k up to k = 64 to the witness, as before.
MERSENNE_TRIAL_MIN_K = 65


class FormCandidate(namedtuple("FormCandidate", "k n n_factors")):
    """An integer p = 2^k * n - 1 carried with its decomposition (k, n).

    k >= 2 and n odd force p = 3 (mod 4).  ``n_factors`` optionally records
    a known factorization of n (never computed here; the mixed corner finds
    n's prime factors below 2^16 itself, and needs larger ones supplied).
    k + bits(n) above MAX_P_BITS raises ValueError before p is formed:
    p has at most that many bits, and a record names k and n, not p.
    """

    __slots__ = ()

    def __new__(cls, k: int, n: int, n_factors: tuple[int, ...] | None = None):
        if k < 2:
            raise ValueError("k must be at least 2")
        if n < 1 or n % 2 == 0:
            raise ValueError("n must be a positive odd integer")
        if k + n.bit_length() > MAX_P_BITS:
            raise ValueError(f"2^k * n - 1 would have more than MAX_P_BITS = {MAX_P_BITS} bits")
        if n_factors is not None:
            if math.prod(n_factors) != n:
                raise ValueError("n_factors does not multiply out to n")
            if any(f < 2 for f in n_factors):
                raise ValueError("n_factors entries must exceed 1")
        return super().__new__(cls, k, n, n_factors)

    @property
    def p(self) -> int:
        return (self.n << self.k) - 1


class InverseOutcome(namedtuple("InverseOutcome", "inverse divisor", defaults=(None, None))):
    """Result of inverting a mod N.

    Exactly one of three shapes:
      * ``inverse`` set: a is a unit, a * inverse = 1 (mod N);
      * ``divisor`` set: gcd(a, N) is a proper divisor of N (data, not an
        error: this is the factor side-channel the curve layer relies on);
      * neither set: a = 0 (mod N), the whole modulus divides a.
    """

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.inverse is None and self.divisor is None


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 3; 0 iff gcd(a, n) > 1."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs an odd modulus >= 3")
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def mod_inverse(a: int, n: int) -> InverseOutcome:
    """Invert a mod n, or report the proper divisor / zero outcome instead.

    Units (the common case) cost one extended Euclid pass inside pow; the
    gcd is computed only when pow reports that a is not a unit.
    """
    if n < 2:
        raise ValueError("modulus must be at least 2")
    a %= n
    try:
        return InverseOutcome(inverse=pow(a, -1, n))
    except ValueError:
        pass
    if a == 0:
        return InverseOutcome()
    return InverseOutcome(divisor=gcd(a, n))


def iroot4(t: int) -> int:
    # floor(t^(1/4)) == isqrt(isqrt(t)) exactly for all t >= 0.
    return isqrt(isqrt(t))


def gate(c: FormCandidate, s: int) -> bool:
    """Whether a point of order s, for s | p + 1, proves p = c.p prime: the
    integer form of s > (p^(1/4) + 1)^2.  Conservative: p = 3 (mod 4) is
    never a fourth power, so p^(1/4) + 1 < r = iroot4(p) + 2, and
    r^2 ((p + 1) / s) <= p gives s > r^2; a failure leaves c to the other
    corners."""
    p = c.p
    r = iroot4(p) + 2
    return r * r * ((p + 1) // s) <= p


def gate_small_n(c: FormCandidate) -> bool:
    """gate at s = 2^k: n * (p^(1/4) + 1)^2 < p."""
    return gate(c, 1 << c.k)


def gate_large_n(c: FormCandidate) -> bool:
    """gate at s = n: 2^k * (p^(1/4) + 1)^2 < p."""
    return gate(c, c.n)


def reduce_special(t: int, c: FormCandidate) -> int:
    """t mod p for p = 2^k * n - 1, by shift-and-fold instead of division.

    2^k * n = 1 (mod p), so t = a * 2^k * n + b folds to a + b.  Each fold
    strictly shrinks t while t >= 2^k * n, and the final value lies in
    [0, p] with p itself mapping to 0.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    k, n = c.k, c.n
    block = n << k
    while t >= block:
        a = (t >> k) // n
        t = a + t - a * block
    return 0 if t == block - 1 else t


def trial_division(n: int) -> int:
    """Least prime factor of n by trial division; n is prime iff result == n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > ORACLE_LIMIT:
        raise ValueError(f"{n} exceeds the exact-oracle limit {ORACLE_LIMIT}")
    if n % 2 == 0:
        return 2
    if n % 3 == 0:
        return 3
    f = 5
    while f * f <= n:
        if n % f == 0:
            return f
        if n % (f + 2) == 0:
            return f + 2
        f += 6
    return n


def is_prime_oracle(n: int) -> bool | None:
    """Exact primality of n below PSI_13, None (unknown) at or above it."""
    if n <= TRIAL_LIMIT:
        return n >= 2 and trial_division(n) == n
    if n >= PSI_13:
        return None
    return n % 2 == 1 and miller_rabin(n, ORACLE_BASES)


def _riesel_fold(n: int) -> tuple[int, int] | None:
    """(k, c) with n = c * 2^k - 1 when the Riesel fold reduces n (module
    docstring), else None."""
    if n.bit_length() < RIESEL_FOLD_BITS:
        return None
    k = ((n + 1) & -(n + 1)).bit_length() - 1
    c = (n + 1) >> k
    return (k, c) if c.bit_length() <= k + 16 else None


def fold_shape(n: int) -> tuple[bool, tuple[int, int] | None]:
    """(mersenne, fold) for odd n: mersenne when n = 2^j - 1 with
    j >= MERSENNE_FOLD_BITS (the shift-and-fold reduces it), fold =
    _riesel_fold(n).  The module docstring's one rule for the curve kernels
    and miller_rabin."""
    return n & (n + 1) == 0 and n.bit_length() >= MERSENNE_FOLD_BITS, _riesel_fold(n)


def miller_rabin(n: int, bases: tuple[int, ...] = MR_DEFAULT_BASES) -> bool:
    """Strong probable-prime test of odd n >= 3 against the given bases.

    False is always correct (some base is a compositeness witness); True
    means no listed base is a witness.  Bases outside [2, n-2] are skipped.
    An n = c * 2^k - 1 of a fold shape has k >= 16, so n - 1 = 2 d with
    d = c * 2^(k-1) - 1 odd: r = 1, and b passes iff b^d = +-1, that is
    iff b is a unit and b^(c * 2^(k-1)) = +-b.  So each base costs a gcd,
    one pow(b, c, n) and k - 1 squarings reduced by the folds, whose
    bounds the module docstring proves.  Any other n runs the textbook
    loop: pow(b, d, n) with n - 1 = 2^r d, then r - 1 squarings by `%`.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    mersenne, fold = fold_shape(n)
    if mersenne or fold is not None:
        k, c = fold or (n.bit_length(), 1)
        mask = (1 << k) - 1
        for b in bases:
            if not 2 <= b <= n - 2:
                continue
            if gcd(b, n) != 1:
                return False
            x = pow(b, c, n)
            if mersenne:
                for _ in range(k - 1):
                    t = x * x
                    t = (t & n) + (t >> k)
                    x = (t & n) + (t >> k)
                x %= n
                target = b
            else:
                x = (x << 2 * k) % n  # times c^-2, which each fold's c^2 keeps
                for _ in range(k - 1):
                    t = x * x
                    t = (t >> k) + c * (t & mask)
                    x = ((t >> k) + c * (t & mask)) % n
                target = (b << 2 * k) % n
            if x != target and x != n - target:
                return False
        return True
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


def lucas_lehmer(k: int) -> bool:
    """Classical exact test of M_k = 2^k - 1: fold s -> s^2 - 2, k-2 times.

    M_k is prime iff the final residue is 0.  Valid for every k >= 3, prime
    exponent or not (a composite M_k can never survive to a zero residue).
    """
    if k < 3:
        raise ValueError("exponent must be at least 3")
    c = FormCandidate(k=k, n=1)
    m = c.p
    s = 4
    for _ in range(k - 2):
        # + m keeps the argument nonnegative when s in {0, 1}
        s = reduce_special(s * s - 2 + m, c)
    return s == 0


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if mark[i]:
            mark[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return list(compress(range(limit + 1), mark))


@lru_cache(maxsize=2)
def _odd_primes(limit: int) -> list[int]:
    """The odd primes <= limit; a search repeated in one process builds them
    once, and the mixed corner's SIEVE_BOUND survives each presieve."""
    return sieve_primes(limit)[1:]


def presieve_bound(k: int, ns: range) -> int:
    """The largest prime presieve(k, ns) sieves by.

    SIEVE_BOUND, lowered to sqrt(p) of the range's largest p (the least
    factor of a composite p lies below it, so this drops no mark) and to
    SIEVE_BOUND_PER_CANDIDATE per candidate (a narrow range pays for few
    primes).
    """
    if not ns:
        return 0
    p_max = (ns[-1] << k) - 1
    return min(SIEVE_BOUND, isqrt(p_max), SIEVE_BOUND_PER_CANDIDATE * len(ns))


def presieve(k: int, ns: range) -> dict[int, int]:
    """Least prime factor l <= presieve_bound(k, ns) of p = 2^k * n - 1,
    for each n in ns whose p has one below p itself.

    ns is a range of odd n with step 2.  An odd prime l divides p iff
    n = 2^-k (mod l), so l marks every l-th entry of ns from the first one
    in that class.  The n with p = l is skipped: a prime p is never marked.
    Primes go in descending order, so the least one writes last.
    """
    if not ns:
        return {}
    if ns.step != 2 or ns.start < 1 or ns.start % 2 == 0:
        raise ValueError("ns must be a range of positive odd n with step 2")
    start, count = ns.start, len(ns)
    least = [0] * count
    for ell in reversed(_odd_primes(presieve_bound(k, ns))):
        half = (ell + 1) >> 1  # 2^-1 (mod l)
        # first i with start + 2i = 2^-k (mod l)
        i = (pow(half, k, ell) - start) * half % ell
        if k <= ell.bit_length() and ((start + 2 * i) << k) - 1 == ell:
            i += ell
        if i < count:
            least[i::ell] = [ell] * len(range(i, count, ell))
    return {start + 2 * i: ell for i, ell in enumerate(least) if ell}


def sieve_divisors(k: int, ns: range) -> dict[int, int]:
    """presieve(k, ns), and M_k's mersenne_trial_factor for n = 1 where the
    presieve finds none: the one sieve of deciding, replay and search."""
    sieved = presieve(k, ns)
    if 1 in ns and 1 not in sieved and (divisor := mersenne_trial_factor(k)):
        sieved[1] = divisor
    return sieved


def mersenne_trial_factor(k: int) -> int | None:
    """The least prime factor of M_k = 2^k - 1 below k^2 / 4, for a prime
    k >= MERSENNE_TRIAL_MIN_K; None when M_k has none there, and for any
    other k.

    For an odd prime k, 2 has order k mod each prime q | M_k, so q = 2jk + 1,
    and 2 = (2^((k+1)/2))^2 is a square mod q, so q = +-1 (mod 8).  A prime
    factor of a composite q of that shape dividing M_k is a smaller one, so
    the least such q is prime.  As k is odd, q = 1 (mod 8) iff 4 | j, and
    q = 7 (mod 8) iff j = 3k (mod 4): two progressions of step 8k, walked
    in turn, the second only below the first one's divisor.  That is about
    k / 16 remainders of M_k by a one-digit q (j < k / 8).  The bound gives
    up the factors with k / 8 <= j < k / 2 that k^2 would catch, which
    leaves M_1741 (least factor 1002817, j = 288) to the witness like
    M_1733 .. M_1759 around it (the trade is in CHANGES.md).
    """
    if k < MERSENNE_TRIAL_MIN_K or trial_division(k) != k:
        return None
    p = (1 << k) - 1
    least = None
    for start in (8 * k + 1, 2 * k * (3 * k % 4) + 1):
        for q in range(start, least or k * k // 4, 8 * k):
            if p % q == 0:
                least = q
                break
    return least
