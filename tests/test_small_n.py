"""The small-n route from x = -1, Mersenne numbers included as n = 1.

m is the least a >= 2 with (a/p) != +1 and the chain starts from
x(n * Q), x(Q) = -1, so the route scans no point, forms no y and makes no
retry.  Its verdicts are compared with sympy on every gate-passing
candidate of a window and with Lucas-Lehmer on Mersenne numbers.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ecriesel import ecring, primality  # noqa: E402
from ecriesel.numtheory import (  # noqa: E402
    FormCandidate,
    gate_small_n,
    jacobi,
    lucas_lehmer,
    miller_rabin,
)
from ecriesel.primality import (  # noqa: E402
    COMPOSITE,
    PRIME,
    _least_nonresidue,
    auto_test,
    replay_verdict,
)


def test_agrees_with_sympy_on_a_window():
    # every gate-passing candidate with 2 <= k <= 40 and odd n < 400
    sympy = pytest.importorskip("sympy")
    kinds = set()
    decided = 0
    for k in range(2, 41):
        for n in range(1, 400, 2):
            c = FormCandidate(k=k, n=n)
            if not gate_small_n(c):
                continue
            v = auto_test(c)
            assert v.algorithm == "small-n" and v.iterations == 1, (k, n)
            assert v.status == (PRIME if sympy.isprime(c.p) else COMPOSITE), (k, n)
            assert replay_verdict(c, v), (k, n)
            kinds.add(v.certificate.get("outcome") or v.certificate["stage"])
            decided += 1
    assert decided == 6519
    assert kinds == {"final-zero", "final-nonzero", "gcd-hit", "parameter-scan"}


def test_mersenne_agrees_with_lucas_lehmer():
    # odd k: m = 3 and no ladder, the classical chain; even k: 3 divides M_k
    for k in range(4, 401):
        c = FormCandidate(k=k, n=1)
        v = auto_test(c)
        assert v.algorithm == "small-n", k
        assert (v.status == PRIME) == lucas_lehmer(k), k
        if k % 2 == 0:
            assert v.certificate == {"type": "factor", "divisor": 3, "stage": "parameter-scan"}
        else:
            assert _least_nonresidue(c.p) == 3


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.integers(2, 64), n=st.integers(0, 2**20).map(lambda h: 2 * h + 1))
def test_m_is_the_least_nonresidue(k, n):
    # for a prime p every a < m is a residue, so m - 1 is one too, and
    # Q = (-1, sqrt(m - 1)) lies on y^2 = x^3 - m x
    while not miller_rabin(FormCandidate(k=k, n=n).p):
        n += 2
    p = FormCandidate(k=k, n=n).p
    m = _least_nonresidue(p)
    assert jacobi(m, p) == -1
    assert all(jacobi(a, p) == 1 for a in range(2, m))
    assert jacobi(m - 1, p) == 1
    y = pow(m - 1, (p + 1) // 4, p)
    assert (y * y - (-1) ** 3 + m * -1) % p == 0


def test_zero_symbol_is_a_parameter_scan_factor():
    # p = 2^5 * 3 - 1 = 95 = 5 * 19: (2/95) = (3/95) = (4/95) = +1, then
    # (5/95) = 0
    c = FormCandidate(k=5, n=3)
    assert [jacobi(a, c.p) for a in range(2, 6)] == [1, 1, 1, 0]
    v = auto_test(c)
    assert v.certificate == {"type": "factor", "divisor": 5, "stage": "parameter-scan"}
    assert replay_verdict(c, v)


def test_no_scan_no_point_no_jacobian_walk(monkeypatch):
    # deciding and replay on small-n never reach the curve/point scan, the
    # curve coefficient of a point or any Jacobian operation
    def boom(*args, **kwargs):
        raise AssertionError("small-n reached the point machinery")

    for name in ("_curve_point_candidates", "curve_coefficient", "scalar_mul"):
        monkeypatch.setattr(primality, name, boom)
    for name in ("scalar_mul", "_jacobian_ops", "_jacobian_ops_folded"):
        monkeypatch.setattr(ecring, name, boom)
    cases = [(7, 3), (31, 40005), (31, 40095), (18, 18225), (4, 1), (127, 1), (9, 1), (800, 347)]
    for k, n in cases:
        c = FormCandidate(k=k, n=n)
        v = auto_test(c)
        assert v.algorithm == "small-n" and replay_verdict(c, v), (k, n)
