"""auto_test against sympy.isprime for p above the 10^6 exhaustive sweep.

k runs over [2, 90] and n over odd integers below 2^41.  Two more
strategies draw prime n, and prime n with a prime p, so that the large-n
route sees prime n and proves primes; one more draws candidates near
n = 2^k, on both sides of psi_13, where neither the small-n nor the
large-n gate holds, so that the mixed corner sees them.  Every prime or
composite verdict must be sympy's and must replay.  Every p with a prime
factor up to 13 is the presieve's, and every other p that base 3
witnesses is composite by that witness.  A candidate that some corner
covers (routable, from sympy's factorization of n) is decided, or gives
up as retries-exhausted; any other candidate is decided by the exact
oracle when p is below psi_13.  Above it, it is not applicable at
dispatch, and then p is prime or a base-3 strong pseudoprime.
"""

from math import prod

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ecriesel.numtheory import (  # noqa: E402
    PSI_13,
    FormCandidate,
    gate,
    gate_large_n,
    gate_small_n,
    miller_rabin,
)
from ecriesel.primality import (  # noqa: E402
    COMPOSITE,
    NOT_APPLICABLE,
    PRIME,
    auto_test,
    replay_verdict,
)

exponents = st.integers(2, 90)
odd_n = st.integers(0, 2**40 - 1).map(lambda h: 2 * h + 1)
prime_n = st.integers(1, 2**40 - 1).map(lambda h: sympy.nextprime(2 * h + 1))


@st.composite
def prime_n_prime_p(draw):
    """(k, n): the first prime n at or after a drawn prime with p prime."""
    k, n = draw(st.integers(2, 40)), draw(prime_n)
    for _ in range(1000):
        if sympy.isprime((n << k) - 1):
            return k, n
        n = sympy.nextprime(n)
    assume(False)


@st.composite
def unroutable(draw):
    """(k, n) with n within 2^(k/2 + 1) of 2^k, where neither corner gate
    holds: the mixed corner or, below psi_13 (k <= 40), the exact oracle
    decides p."""
    k = draw(st.integers(11, 60))
    half = 1 << (k // 2)
    n = (1 << k) + 2 * draw(st.integers(-half, half - 1)) + 1
    c = FormCandidate(k, n)
    assume(not gate_small_n(c) and not gate_large_n(c))
    return k, n


def routable(c: FormCandidate) -> bool:
    if gate_small_n(c) or (sympy.isprime(c.n) and gate_large_n(c)):
        return True
    # the mixed corner: n's prime factors below 2^16, and a prime cofactor
    small = prod(q**e for q, e in sympy.factorint(c.n).items() if q < 2**16)
    return gate(c, small << c.k) or sympy.isprime(c.n // small)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kn=st.one_of(st.tuples(exponents, st.one_of(odd_n, prime_n)), prime_n_prime_p(),
                   unroutable()))
def test_auto_test_agrees_with_sympy(kn):
    c = FormCandidate(*kn)
    assume(c.p > 10**6)
    v = auto_test(c)
    if v.status in (PRIME, COMPOSITE):
        assert v.status == (PRIME if sympy.isprime(c.p) else COMPOSITE)
        assert replay_verdict(c, v)
    small = [ell for ell in (3, 5, 7, 11, 13) if c.p % ell == 0]
    if small:
        assert v.algorithm == "sieve" and v.certificate["divisor"] == small[0]
    elif not miller_rabin(c.p, (3,)):
        assert v == (COMPOSITE, "miller-rabin", {"type": "oracle", "witness": 3}, 1)
    elif routable(c):
        assert v.status in (PRIME, COMPOSITE) or v.certificate["type"] == "retries-exhausted"
    elif c.p < PSI_13:
        assert v.status in (PRIME, COMPOSITE) and v.algorithm == "miller-rabin"
    else:
        assert v.status == NOT_APPLICABLE and v.certificate["type"] == "gate-failure"
