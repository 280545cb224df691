"""The small-n route on E from x = start_x(p, 1), Mersenne numbers included as n = 1.

u = start_x(p, 1) is the least u >= 2 with ((u^2 + 1)/p) != +1 and the chain
on E: y^2 = x^3 + x starts from x(n * Q), x(Q) = u, so the route scans
no point, forms no y and makes no retry.  Its verdicts are compared with
sympy on every gate-passing candidate of a window and with Lucas-Lehmer
on Mersenne numbers, and the start search ends properly on every odd
composite p = 3 (mod 4) of a window.
"""

from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ecriesel import ecring, primality  # noqa: E402
from ecriesel.ecring import FactorFound  # noqa: E402
from ecriesel.numtheory import (  # noqa: E402
    FormCandidate,
    gate_small_n,
    jacobi,
    lucas_lehmer,
    miller_rabin,
    sieve_primes,
)
from ecriesel.primality import (  # noqa: E402
    COMPOSITE,
    PRIME,
    _evaluate,
    auto_test,
    replay_verdict,
    sieve_verdict,
)
from ecriesel.sequence import start_x  # noqa: E402

# What auto_test writes on the window's 6519 candidates: the presieve and
# the base-3 witness end every composite but p = 703.
ALGORITHMS_ON_THE_WINDOW = {("sieve", COMPOSITE): 4018, ("miller-rabin", COMPOSITE): 1808,
                            ("small-n", PRIME): 692, ("small-n", COMPOSITE): 1}


def test_agrees_with_sympy_on_a_window():
    # every gate-passing candidate with 2 <= k <= 40 and odd n < 400; the
    # one early-infinity is p = 831 = 3 * 277, n * Q at infinity mod both.
    # auto_test ends every composite but p = 703 = 19 * 37, a base-3 strong
    # pseudoprime, at the presieve or on the witness, and replay accepts the
    # route's record only where auto_test writes it
    sympy = pytest.importorskip("sympy")
    kinds = set()
    decided = 0
    algorithms = Counter()
    for k in range(2, 41):
        for n in range(1, 400, 2):
            c = FormCandidate(k=k, n=n)
            if not gate_small_n(c):
                continue
            v = _evaluate(c, 1, (), True)
            assert v.algorithm == "small-n" and v.iterations == 1, (k, n)
            assert v.status == (PRIME if sympy.isprime(c.p) else COMPOSITE), (k, n)
            w = auto_test(c)
            assert w.status == v.status and replay_verdict(c, w), (k, n)
            assert replay_verdict(c, v) == (w == v), (k, n)
            algorithms[w.algorithm, w.status] += 1
            kinds.add(v.certificate.get("outcome") or v.certificate["type"])
            decided += 1
    assert decided == 6519
    # with no factors of n there is no ladder: a small-n factor is a zero
    # symbol of start_x's search
    assert kinds == {"final-zero", "final-nonzero", "gcd-hit", "early-infinity", "factor"}
    assert algorithms == ALGORITHMS_ON_THE_WINDOW


def test_mersenne_agrees_with_lucas_lehmer():
    # n = 1: no ladder, the chain from u alone; a zero symbol, such as
    # 5 | M_k for 4 | k at u = 2, is a factor at parameter-scan.  auto_test
    # decides every composite M_k at the presieve or on the witness
    factors = 0
    for k in range(4, 401):
        c = FormCandidate(k=k, n=1)
        v = _evaluate(c, 1, (), True)
        assert v.algorithm == "small-n", k
        assert (v.status == PRIME) == lucas_lehmer(k), k
        w = auto_test(c)
        assert w == v if lucas_lehmer(k) else w.algorithm in ("sieve", "miller-rabin"), k
        if v.certificate["type"] == "factor":
            factors += 1
            with pytest.raises(FactorFound) as info:
                start_x(c.p, 1)
            assert v.certificate == {"type": "factor", "divisor": info.value.divisor}
        else:
            assert jacobi(start_x(c.p, 1) ** 2 + 1, c.p) == -1
        if k % 4 == 0:
            assert v.certificate["divisor"] % 5 == 0, k
    assert factors > 99


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.integers(2, 64), n=st.integers(0, 2**20).map(lambda h: 2 * h + 1))
def test_u_is_the_least_start(k, n):
    # for a prime p every smaller u has ((u^2 + 1)/p) = +1, and u or -u is
    # the x of a point of E with (x/p) = -1
    while not miller_rabin(FormCandidate(k=k, n=n).p):
        n += 2
    p = FormCandidate(k=k, n=n).p
    u = start_x(p, 1)
    assert jacobi(u * u + 1, p) == -1
    assert all(jacobi(a * a + 1, p) == 1 for a in range(2, u))
    x = u if jacobi(u, p) == -1 else p - u
    assert jacobi(x, p) == -1 and jacobi(x * (x * x + 1), p) == 1


def test_the_a_th_start():
    # start_x(p, a) is the a-th u >= 2 with symbol -1, below a * p, also for
    # a composite p whose primes are all 3 mod 4, which meets no zero symbol
    # (231 = 3 * 7 * 11, 1463 = 7 * 11 * 19); 15 = 3 * 5 meets one at u = 2
    for p in (383, 947, 2671, 231, 1463, 79228162514274752167682244607):
        starts = [u for u in range(2, 10**4) if jacobi(u * u + 1, p) == -1][:20]
        assert [start_x(p, a) for a in range(1, 21)] == starts, p
        assert all(u < a * p for a, u in enumerate(starts, 1))
    with pytest.raises(FactorFound):
        start_x(15, 3)


def test_start_search_ends_properly_on_composites():
    # every odd composite p = 3 (mod 4) below 2 * 10^5: a -1 symbol below
    # p, or a zero symbol whose gcd is a proper divisor, never p itself
    primes = set(sieve_primes(200_000))
    seen = {"start": 0, "factor": 0}
    for p in range(15, 200_000, 4):
        if p in primes:
            continue
        try:
            u = start_x(p, 1)
        except FactorFound as exc:
            assert 1 < exc.divisor < p and p % exc.divisor == 0, p
            seen["factor"] += 1
        else:
            assert 2 <= u < p and jacobi(u * u + 1, p) == -1, p
            seen["start"] += 1
    assert min(seen.values()) > 10_000


def test_zero_symbol_is_a_parameter_scan_factor():
    # p = 2^7 * 19 - 1 = 2431 = 11 * 13 * 17: ((u^2 + 1)/p) = +1 for u = 2
    # and 3, then 4^2 + 1 = 17 gives 0
    c = FormCandidate(k=7, n=19)
    assert [jacobi(u * u + 1, c.p) for u in range(2, 5)] == [1, 1, 0]
    v = _evaluate(c, 1, (), True)
    assert v.certificate == {"type": "factor", "divisor": 17}
    # auto_test's presieve finds 11 first, and replay accepts only that
    assert auto_test(c) == sieve_verdict(11)
    assert not replay_verdict(c, v) and replay_verdict(c, sieve_verdict(11))


def test_no_scan_no_point_no_jacobian_walk(monkeypatch, routes_decide_composites):
    # deciding and replay on small-n never reach the curve/point scan, the
    # curve coefficient of a point or the affine scalar_mul
    def boom(*args, **kwargs):
        raise AssertionError("small-n reached the point machinery")

    for name in ("_curve_point_candidates", "curve_coefficient", "scalar_mul"):
        monkeypatch.setattr(primality, name, boom)
    monkeypatch.setattr(ecring, "scalar_mul", boom)
    cases = [(7, 3), (31, 40005), (31, 40095), (18, 18225), (4, 1), (127, 1), (9, 1), (800, 347)]
    for k, n in cases:
        c = FormCandidate(k=k, n=n)
        v = auto_test(c)
        assert v.algorithm == "small-n" and replay_verdict(c, v), (k, n)
