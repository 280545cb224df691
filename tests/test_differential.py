"""Property-based differential tests: deferred-gcd backend versus affine walks.

Moduli are random odd integers, composites included, so non-unit
denominators, factor witnesses and infinities all occur: the chain on E,
m = -1, must end where the affine walk ends, and else fail at the primes
where it fails (test_chain_walker.affine_failures, which needs no
factoring), and scalar_mul, on any curve y^2 = x^3 - m x, must reach its
affine fallback.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ecriesel.ecring import (  # noqa: E402
    INFINITY,
    Curve,
    FactorFound,
    Point,
    add,
    double,
    scalar_mul,
)
from test_chain_walker import affine_failures, agrees_with_affine, same_primes  # noqa: E402
from test_projective import chain_x  # noqa: E402

PROFILE = settings(max_examples=400, deadline=None, derandomize=True)

odd_moduli = st.one_of(
    st.integers(1, 2_000).map(lambda h: 2 * h + 1),
    st.integers(1, 2**130).map(lambda h: 2 * h + 1),
)


@st.composite
def curves(draw, moduli=odd_moduli):
    n = draw(moduli)
    m = draw(st.integers(1, n - 1))
    return Curve(n, m)


def e_curves(moduli=odd_moduli):
    """E, y^2 = x^3 - m x at m = -1, mod a drawn odd modulus."""
    return moduli.map(lambda n: Curve(n, -1))


def outcome_or_divisor(fn):
    try:
        return "value", fn()
    except FactorFound as exc:
        return "divisor", exc.divisor


def affine_multiple(curve, s, pt):
    if s == 0 or pt.is_infinity:
        return INFINITY
    acc = pt
    for bit in bin(s)[3:]:
        acc = double(curve, acc)
        if bit == "1":
            acc = add(curve, acc, pt)
    return acc


def assert_chain_is_repeated_doubling(n, x, times):
    """double_x_only_chain's end against the affine walk: the same x while
    every doubling is a unit, else an end gcd with the failing primes."""
    g, end = chain_x(n, x, times)
    failed, want = affine_failures(n, x, times)
    assert end == want and same_primes(g, failed), (n, x, times)


@PROFILE
@given(curve=e_curves(), data=st.data(), k=st.integers(2, 40), four=st.booleans())
def test_chain_outcome_equals_traced_walk(curve, data, k, four):
    n = curve.modulus
    x0 = data.draw(st.integers(0, 2 * n))
    agrees_with_affine(n, x0, k, four)


long_chains = st.integers(41, 400)


@PROFILE
@given(curve=e_curves(), data=st.data(), k=long_chains, four=st.booleans())
def test_long_chain_outcome_equals_traced_walk(curve, data, k, four):
    n = curve.modulus
    x0 = data.draw(st.integers(0, 2 * n))
    agrees_with_affine(n, x0, k, four)


@PROFILE
@given(curve=e_curves(), data=st.data(), times=long_chains)
def test_long_chain_equals_repeated_doubling(curve, data, times):
    # the division path, failing step and divisor included
    x = data.draw(st.integers(0, curve.modulus - 1))
    assert_chain_is_repeated_doubling(curve.modulus, x, times)


@PROFILE
@given(curve=curves(), data=st.data(), s=st.integers(0, 2**40))
def test_scalar_mul_equals_affine_double_and_add(curve, data, s):
    n = curve.modulus
    pt = Point(data.draw(st.integers(0, 2 * n)), data.draw(st.integers(-n, 2 * n)))
    assert outcome_or_divisor(lambda: scalar_mul(curve, s, pt)) == outcome_or_divisor(
        lambda: affine_multiple(curve, s, pt)
    )


@PROFILE
@given(curve=curves(st.integers(2, 400).map(lambda h: 2 * h + 1)), data=st.data(),
       s=st.integers(0, 3000))
def test_scalar_mul_small_moduli_hit_every_outcome(curve, data, s):
    # tiny moduli make infinities and proper divisors routine mid-chain
    n = curve.modulus
    pt = Point(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
    assert outcome_or_divisor(lambda: scalar_mul(curve, s, pt)) == outcome_or_divisor(
        lambda: affine_multiple(curve, s, pt)
    )


@PROFILE
@given(j=st.integers(3, 260), data=st.data(), times=st.integers(0, 30))
def test_mersenne_fold_equals_division(j, data, times):
    n = (1 << j) - 1
    x = data.draw(st.integers(0, n - 1))
    assert_chain_is_repeated_doubling(n, x, times)


@PROFILE
@given(j=st.integers(3, 260), data=st.data(), times=long_chains)
def test_long_mersenne_fold_equals_division(j, data, times):
    n = (1 << j) - 1
    x = data.draw(st.integers(0, n - 1))
    assert_chain_is_repeated_doubling(n, x, times)
