"""The projective chain names a failed chain's exact step and divisor.

Deciding and replay take a failing step from double_x_only_chain alone:
no affine re-walk (run_sequence, double_x_only) runs behind them.  The
fixed cases put the failure at doubling 1, at a gcd checkpoint (3, 7,
15), just after one (2, 4, 8, 16), inside a run (5, 9, 17), and at the
second-to-last and the last doubling, on moduli 2^j - 1 (shift-and-fold)
and on other moduli (division).
"""

from math import prod

import pytest

from ecriesel import ecring, primality, sequence
from ecriesel.ecring import (
    ChainFailure,
    Curve,
    FactorFound,
    Point,
    _x_only_doublings,
    double_x_only,
    double_x_only_chain,
    scalar_mul,
)
from ecriesel.numtheory import FormCandidate, jacobi
from ecriesel.primality import replay_verdict, test_mersenne as mersenne_test
from ecriesel.sequence import EARLY_INFINITY, GCD_HIT, chain_outcome

M17 = (1 << 17) - 1
M187 = (1 << 187) - 1
M187_FACTORS = (23, 89, 707983, 131071, 1032670816743843860998850056278950666491537)
P18 = (3 * (1 << 18) - 1, 5 * (1 << 18) - 1)  # primes q = -1 mod 2^18

# modulus, the prime factor that fails, and the factors that must not fail
MODULI = {
    "fold-infinity": (M17, M17, ()),
    "fold-gcd": (M187, M17, tuple(f for f in M187_FACTORS if f != M17)),
    "division-infinity": (P18[0] * P18[1], None, ()),
    "division-gcd": (P18[0] * 1000003, P18[0], (1000003,)),
}

STEPS = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17)


def affine_first_failure(curve, x, times):
    """double_x_only step by step: the first non-unit doubling, else x."""
    for step in range(1, times + 1):
        try:
            x = double_x_only(curve, x)
        except FactorFound as exc:
            return ChainFailure(step, exc.divisor)
        if x is None:
            return ChainFailure(step, curve.modulus)
    return x


def order_2s_abscissa(q, s):
    """(m, x): x of a point of order exactly 2^s on y^2 = x^3 - m x over F_q.

    q = 3 (mod 4) is prime with 2^s | q + 1, and m is the least
    non-residue, so the group is cyclic of order q + 1.
    """
    m = next(a for a in range(2, q) if jacobi(a, q) == -1)
    curve = Curve(q, m)
    for x in range(2, q):
        rhs = (x * x - m) * x % q
        if jacobi(rhs, q) != 1:
            continue
        point = scalar_mul(curve, (q + 1) >> s, Point(x, pow(rhs, (q + 1) // 4, q)))
        if not point.is_infinity and not scalar_mul(curve, 1 << (s - 1), point).is_infinity:
            return m, point.x
    raise AssertionError("no point of order 2^s")


def crt(residues):
    """The x mod prod(q) with x = r mod q for each (r, q) in residues."""
    n = prod(q for _, q in residues)
    return sum(r * (n // q) * pow(n // q, -1, q) for r, q in residues) % n


def failing_case(name, step, times):
    """(curve, x, expected ChainFailure) for a chain that first fails at step."""
    n, target, quiet = MODULI[name]
    failing = [target] if target else list(P18)
    ms, xs = [], []
    for q in failing:
        m, x = order_2s_abscissa(q, step)
        ms.append((m, q))
        xs.append((x, q))
    for f in quiet:
        x = next(x for x in range(1, f)
                 if not isinstance(affine_first_failure(Curve(f, 1), x, times), ChainFailure))
        ms.append((1, f))
        xs.append((x, f))
    assert prod(q for _, q in ms) == n
    return Curve(n, crt(ms)), crt(xs), ChainFailure(step, target or n)


@pytest.mark.parametrize("name", sorted(MODULI))
def test_chain_names_the_failing_step(name):
    n = MODULI[name][0]
    assert (n & (n + 1) == 0) == name.startswith("fold")
    for step in STEPS:
        # the last doubling, the second-to-last, then mid-chain
        for times in (step, step + 1, 2 * step + 3):
            curve, x, want = failing_case(name, step, times)
            assert double_x_only_chain(curve, x, times) == want, (step, times)
            assert affine_first_failure(curve, x, times) == want, (step, times)


@pytest.mark.parametrize("name, prime", [("fold-infinity", (1 << 61) - 1),
                                         ("division-infinity", 1000003)])
def test_checkpoint_runs(monkeypatch, name, prime):
    # runs end after doublings 1, 3, 7, 15, the second-to-last and the last,
    # and only a failing run is redone, one doubling at a time
    runs = []

    def spy(X, Z, times, *rest):
        runs.append(times)
        return _x_only_doublings(X, Z, times, *rest)

    monkeypatch.setattr(ecring, "_x_only_doublings", spy)
    curve = Curve(prime, 3)
    assert double_x_only_chain(curve, 5, 20) == affine_first_failure(curve, 5, 20) > 0
    assert runs == [1, 2, 4, 8, 4, 1]
    # fail at the last of 17 doublings (a one-doubling run, redone), then at
    # the second-to-last of 18 (a two-doubling run, redone one at a time)
    for times, tail in ((17, [1, 1, 1]), (18, [2, 1, 1])):
        curve, x, want = failing_case(name, 17, times)
        runs.clear()
        assert double_x_only_chain(curve, x, times) == want
        assert runs == [1, 2, 4, 8, *tail]


class TestNoAffineFallback:
    """Deciding and replay never reach the traced walk or affine doubling."""

    @pytest.fixture(autouse=True)
    def forbid_affine_walks(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("affine chain walk called")

        monkeypatch.setattr(sequence, "run_sequence", boom)
        monkeypatch.setattr(sequence, "double_x_only", boom)
        monkeypatch.setattr(primality, "run_sequence", boom)
        monkeypatch.setattr(primality, "double_x_only", boom, raising=False)
        monkeypatch.setattr(ecring, "double_x_only", boom)

    def test_mersenne_decide_and_replay_to_300(self):
        kinds = set()
        for k in range(3, 301):
            v = mersenne_test(k)
            assert replay_verdict(FormCandidate(k=k, n=1), v), k
            kinds.add(v.certificate["outcome"])
        assert GCD_HIT in kinds

    @pytest.mark.parametrize("name", ["fold-gcd", "division-infinity", "division-gcd"])
    @pytest.mark.parametrize("step", [1, 4, 9, 17])
    def test_composite_moduli(self, name, step):
        curve, x, want = failing_case(name, step, step)
        n, m, k = curve.modulus, curve.m, step + 1
        kind = EARLY_INFINITY if want.divisor == n else GCD_HIT
        divisor = None if kind == EARLY_INFINITY else want.divisor
        out = chain_outcome(n, m, x, k)
        assert (out.kind, out.step, out.divisor) == (kind, step, divisor)
