"""The projective chain on E: y^2 = x^3 + x fails, by one gcd of its end Z,
at exactly the primes where the affine walk fails.

Deciding and replay take a failure from double_x_only_chain's end alone:
no affine re-walk (run_sequence, double_x_only) runs behind them.  A
prime l | N divides gcd(Z, N) iff the affine doublings mod l fail within
the walk's count.  The fixed cases put a failure at doubling 1, in the
middle (2 .. 9, 15 .. 17) and at the last doubling, one doubling past the
count, and a second failing prime later than the first, on moduli
2^j - 1 (shift-and-fold) and on other moduli (division).
"""

from math import gcd, prod

import pytest

from ecriesel import ecring, primality, sequence
from ecriesel.ecring import (
    Curve,
    FactorFound,
    Point,
    double_x_only,
    double_x_only_chain,
    scalar_mul,
)
from ecriesel.numtheory import FormCandidate, jacobi
from ecriesel.primality import COMPOSITE, replay_verdict, test_mersenne as mersenne_test
from ecriesel.sequence import (
    EARLY_INFINITY,
    FINAL_NONZERO,
    FINAL_ZERO,
    GCD_HIT,
    SequenceOutcome,
    chain_outcome,
    mersenne_sequence,
    run_sequence,
)

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


def affine_failures(n, x, times):
    """(f, x'): f has the primes of n mod which the affine doublings of x
    on E (double_x_only, m = -1) fail within `times`, and x' is their end
    when none does.  A doubling that fails mod g | n takes g's primes out
    of n, and the walk goes on mod the rest, from the same doubling; no
    factoring is needed."""
    failed, x, step = 1, x % n, 0
    while step < times and n > 1:
        try:
            nxt, g = double_x_only(Curve(n, -1), x), n
        except FactorFound as exc:
            nxt, g = None, exc.divisor
        if nxt is not None:
            x, step = nxt, step + 1
            continue
        failed *= g
        while (h := gcd(n, failed)) > 1:
            n //= h
        x %= n
    return failed, (x if failed == 1 else None)


def same_primes(a, b):
    """Whether a and b, both >= 1, have the same prime factors."""
    return pow(a, b.bit_length(), b) == 0 == pow(b, a.bit_length(), a)


def agrees_with_affine(n, x0, k, four_factor=True, per_prime=True):
    """chain_outcome(n, x0, k), checked against the traced walk run_sequence
    at m = -1: the same outcome when the run ends at step k; else both
    fail, the end gcd holds the primes of the run's first non-unit S_i,
    an early infinity stays one, and, with per_prime, the end gcd's
    primes are those of affine_failures over k - 1 doublings."""
    got = chain_outcome(n, x0, k)
    walked, _ = run_sequence(n, -1, x0, k, four_factor=four_factor)
    if walked.kind in (FINAL_ZERO, FINAL_NONZERO):
        assert got == walked, (n, x0, k)
        return got
    assert got.kind in (GCD_HIT, EARLY_INFINITY), (n, x0, k)
    assert walked.kind == GCD_HIT or got.kind == EARLY_INFINITY, (n, x0, k)
    end = got.divisor or n
    first = walked.divisor or n
    assert pow(end, first.bit_length(), first) == 0, (n, x0, k)
    assert not per_prime or same_primes(end, affine_failures(n, x0, k - 1)[0]), (n, x0, k)
    return got


def end_gcd(n, x, times, s=1):
    """gcd(Z, n) for the end (X:Z) of double_x_only_chain."""
    return gcd(double_x_only_chain(n, x, times, s)[1], n)


def order_2s_abscissa(q, s):
    """x of a point of order exactly 2^s on E over F_q.

    q = 3 (mod 4) is prime with 2^s | q + 1, and -1 is a non-residue, so
    the group is cyclic of order q + 1.
    """
    curve = Curve(q, -1)
    for x in range(2, q):
        rhs = (x * x + 1) * x % q
        if jacobi(rhs, q) != 1:
            continue
        point = scalar_mul(curve, (q + 1) >> s, Point(x, pow(rhs, (q + 1) // 4, q)))
        if not point.is_infinity and not scalar_mul(curve, 1 << (s - 1), point).is_infinity:
            return point.x
    raise AssertionError("no point of order 2^s")


def crt(residues):
    """The x mod prod(q) with x = r mod q for each (r, q) in residues."""
    n = prod(q for _, q in residues)
    return sum(r * (n // q) * pow(n // q, -1, q) for r, q in residues) % n


def failing_case(name, step, times):
    """(E mod n, x, the end gcd) for a chain that fails at doubling step
    mod the failing prime(s), and nowhere within `times` mod the rest."""
    n, target, quiet = MODULI[name]
    failing = [target] if target else list(P18)
    xs = [(order_2s_abscissa(q, step), q) for q in failing]
    for f in quiet:
        x = next(x for x in range(1, f) if affine_failures(f, x, times)[0] == 1)
        xs.append((x, f))
    assert prod(q for _, q in xs) == n
    return Curve(n, -1), crt(xs), target or n


@pytest.mark.parametrize("name", sorted(MODULI))
def test_chain_names_the_failing_step(name):
    # the end gcd holds the failing prime from that doubling on, and only
    # it, as the affine walk mod each prime says
    n, _, quiet = MODULI[name]
    assert (n & (n + 1) == 0) == name.startswith("fold")
    for step in STEPS:
        # one doubling short, the last doubling, the second-to-last, then
        # mid-chain
        for times in (step - 1, step, step + 1, 2 * step + 3):
            curve, x, want = failing_case(name, step, max(times, step))
            got = end_gcd(n, x, times)
            assert got == (want if times >= step else 1), (step, times)
            primes = [q for q in M187_FACTORS + P18 + (1000003,) if n % q == 0]
            assert got == prod(q for q in primes
                               if affine_failures(q, x, times)[0] == q), (step, times)
            assert affine_failures(n, x, times)[0] == got, (step, times)


@pytest.mark.parametrize("name", ["fold", "division"])
def test_one_gcd_holds_every_failing_prime(name):
    # q1 fails at doubling 3 and q2 at doubling 9: the traced walk stops
    # at the first, with q1 alone, and the end gcd holds both
    n, (q1, q2) = {"fold": (M187, (707983, M17)),
                   "division": (P18[0] * P18[1] * 1000003, P18)}[name]
    rest = [q for q in M187_FACTORS + P18 + (1000003,) if n % q == 0 and q not in (q1, q2)]
    xs = [(order_2s_abscissa(q1, 3), q1), (order_2s_abscissa(q2, 9), q2)]
    xs += [(next(x for x in range(1, f) if affine_failures(f, x, 30)[0] == 1), f) for f in rest]
    x = crt(xs)
    for times, want in ((2, 1), (3, q1), (8, q1), (9, q1 * q2), (30, q1 * q2)):
        assert end_gcd(n, x, times) == want == affine_failures(n, x, times)[0], times
    walked, trace = run_sequence(n, -1, x, 12)
    assert walked == SequenceOutcome(GCD_HIT, q1) and trace.steps_completed == 3
    assert chain_outcome(n, x, 12) == SequenceOutcome(GCD_HIT, q1 * q2)


def test_small_n_sees_the_end_gcd(routes_decide_composites):
    # M_6 = 63 = 3^2 * 7: the traced walk stops at S_2 with 9, but the
    # walk's end Z vanishes mod 63, so the record is early-infinity; replay
    # recomputes that one gcd
    c = FormCandidate(k=6, n=1)
    walked, trace = mersenne_sequence(6)
    assert walked == SequenceOutcome(GCD_HIT, 9) and trace.steps_completed == 2
    v = primality._evaluate(c, 1, (), True)
    assert v.status == COMPOSITE
    assert v.certificate == {"outcome": EARLY_INFINITY}
    assert replay_verdict(c, v)
    forged = v._replace(certificate={"outcome": GCD_HIT, "divisor": 9})
    assert not replay_verdict(c, forged)


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

    def test_mersenne_decide_and_replay_to_300(self, routes_decide_composites):
        # M_3 is the oracle's, and a zero symbol of start_x (5 divides M_k
        # for 4 | k) is a factor: no outcome there.  With the sieve (the
        # presieve and M_k's trial factoring) and the witness test out of
        # the way, every composite takes the chain, and a proper gcd of its
        # end Z is a factor record of that gcd alone, at the first attempt
        kinds, gcds = set(), 0
        for k in range(3, 301):
            v = mersenne_test(k)
            assert v.algorithm != "sieve", k
            assert replay_verdict(FormCandidate(k=k, n=1), v), k
            kinds.add(v.certificate.get("outcome"))
            p = (1 << k) - 1
            try:
                walked = chain_outcome(p, primality.start_x(p, 1), k)
            except FactorFound:
                continue
            if walked.kind == GCD_HIT:
                assert v == (COMPOSITE, "small-n", {"divisor": walked.divisor}, 1), k
                gcds += 1
        assert gcds > 0 and GCD_HIT not in kinds

    @pytest.mark.parametrize("name", ["fold-gcd", "division-infinity", "division-gcd"])
    @pytest.mark.parametrize("step", [1, 4, 9, 17])
    def test_composite_moduli(self, name, step):
        curve, x, want = failing_case(name, step, step)
        n, k = curve.modulus, step + 1
        kind = EARLY_INFINITY if want == n else GCD_HIT
        out = chain_outcome(n, x, k)
        assert out == SequenceOutcome(kind, None if kind == EARLY_INFINITY else want)
