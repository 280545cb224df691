"""The denominator sequence behind the doubling-chain tests.

Starting from an x-coordinate x_0, each step records
S_i = c * (x_{i-1}^3 - m * x_{i-1}) mod N (c is 4 or 1, a unit either way)
and advances x through the x-only doubling map while S_i stays a unit.
Over a prime modulus S_i is, up to the constant, the square of the
y-coordinate of the (i-1)-fold doubling of any lift of x_0, so the chain
reads off exactly when the doubled point first hits 2-torsion or infinity.
A unit c changes no S_i's gcd with N and whether S_k vanishes, so it
never changes the outcome.

chain_outcome decides a run on E: y^2 = x^3 + x (m = -1) from x_0, or
from x(s * Q) for x(Q) = x_0, in one projective walk with no inversion
and one gcd, of its end Z, with c = 1: the primes of N that gcd holds are
those mod which some S_i (i < k) vanishes (ecring).  A prime verdict
rests on that chain alone: mod a prime l | N, E is elliptic, and the
chain's start lifts to R on E or its quadratic twist.  Units
S_1 .. S_(k-1) and S_k = 0 give R order 2^k, so the Hasse bound gives
2^k <= (sqrt(l) + 1)^2 on either curve.  run_sequence walks the chain
affinely on any y^2 = x^3 - m x, stops at the first non-unit S_i and
keeps the trace, with the paper's c = 4 by default; it is the reference
chain_outcome is tested against, and no decision or replay path calls
it.  SequenceOutcome and STrace are immutable named tuples.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .ecring import Curve, FactorFound, double_x_only, double_x_only_chain
from .numtheory import jacobi

# Outcome kinds for a k-step run.
FINAL_ZERO = "final-zero"  # every S_i (i < k) a unit and S_k = 0: the prime pattern
GCD_HIT = "gcd-hit"  # some S_i (i < k) shares a proper factor with N
EARLY_INFINITY = "early-infinity"  # the first non-unit S_i (i < k), or the end Z, is 0 mod N
FINAL_NONZERO = "final-nonzero"  # units throughout but S_k is not 0


class SequenceOutcome(namedtuple("SequenceOutcome", "kind divisor", defaults=(None,))):
    """A run's kind, with the proper factor of N of a GCD_HIT (None
    otherwise): run_sequence's divides the first non-unit S_i,
    chain_outcome's the walk's end Z."""

    __slots__ = ()


class STrace(namedtuple("STrace", "modulus m four_factor x_values s_values")):
    """Replayable transcript of a run: the x-chain and the S values seen.

    x_values is x_0 .. x_last (never advanced past a non-unit S), s_values
    is S_1 .. S_last.
    """

    __slots__ = ()

    @property
    def steps_completed(self) -> int:
        return len(self.s_values)


def _check_chain(modulus: int, k: int) -> None:
    if k < 2:
        raise ValueError("k must be at least 2")
    if modulus < 3 or modulus % 2 == 0:
        raise ValueError("modulus must be odd and >= 3")


def run_sequence(
    modulus: int, m: int, x0: int, k: int, four_factor: bool = True
) -> tuple[SequenceOutcome, STrace]:
    """Run k steps of the chain mod modulus and classify the result.

    For steps 1..k-1 a proper gcd is GCD_HIT and a vanishing S_i is
    EARLY_INFINITY, and either ends the run (trace.steps_completed is that
    step); at step k only whether S_k is 0 matters.
    """
    _check_chain(modulus, k)
    m %= modulus
    curve = Curve(modulus, m)
    c = 4 if four_factor else 1
    x = x0 % modulus
    xs = [x]
    ss = []
    outcome = None
    for i in range(1, k + 1):
        s = c * x * ((x * x - m) % modulus) % modulus
        ss.append(s)
        if i == k:
            outcome = SequenceOutcome(FINAL_ZERO if s == 0 else FINAL_NONZERO)
            break
        if s == 0:
            outcome = SequenceOutcome(EARLY_INFINITY)
            break
        g = gcd(s, modulus)
        if g > 1:
            outcome = SequenceOutcome(GCD_HIT, g)
            break
        # S_i is a unit, so the doubling denominator (4/c) * S_i is too
        x = double_x_only(curve, x)
        assert x is not None
        xs.append(x)
    trace = STrace(modulus, m, four_factor, tuple(xs), tuple(ss))
    return outcome, trace


def start_x(p: int, a: int) -> int:
    """The a-th u >= 2 with ((u^2 + 1)/p) = -1, for p = 3 (mod 4) and
    a >= 1; FactorFound with gcd(u^2 + 1, p) on a zero symbol before it.

    That divisor is proper: p has a prime factor l = 3 (mod 4) to an odd
    power e, and -1 is no square mod l, so l never divides u^2 + 1.  The
    a-th start lies below a p (below p for a prime p and a <= (p - 1)/2):
    the symbol has period p, and each [j p + 2, j p + p - 1] holds a u
    with symbol -1, as the (l + 1)/2 values of u^2 + 1 mod l, all nonzero,
    outnumber the nonzero squares: for some u_l, ((u_l^2 + 1)/l) = -1, and
    u = u_l (mod l), u = 0 (mod r), p = l^e r, has ((u^2 + 1)/p) =
    (-1)^e (1/r) = -1, as has p - u.
    """
    u = 1
    for _ in range(a):
        u += 1
        while (j := jacobi(u * u + 1, p)) == 1:
            u += 1
        if j == 0:
            raise FactorFound(gcd(u * u + 1, p), p)
    return u


def chain_outcome(modulus: int, x0: int, k: int, s: int = 1) -> SequenceOutcome:
    """The outcome of the chain from x(s * P), x(P) = x0, by one
    double_x_only_chain walk of k - 1 doublings and the gcd g of its end Z
    with the modulus: EARLY_INFINITY for g = modulus, GCD_HIT with divisor g
    for a proper g; else FINAL_ZERO iff X (X^2 + Z^2) = 0, Z^3 times the
    last S_k with Z a unit.  It is run_sequence(modulus, -1, x(s * P), k)'s
    when that run ends at step k; else both fail, and the gcd's primes
    include those of run_sequence's first non-unit S_i (ecring).  An s * P
    at infinity mod some prime factor puts that prime in the gcd."""
    _check_chain(modulus, k)
    X, Z = double_x_only_chain(modulus, x0, k - 1, s)
    g = gcd(Z, modulus)
    if g == modulus:
        return SequenceOutcome(EARLY_INFINITY)
    if g != 1:
        return SequenceOutcome(GCD_HIT, g)
    return SequenceOutcome(FINAL_ZERO if X * (X * X + Z * Z) % modulus == 0 else FINAL_NONZERO)


def mersenne_sequence(k: int) -> tuple[SequenceOutcome, STrace]:
    """The traced chain of M_k = 2^k - 1, k >= 3, as small-n takes it: on
    E from x_0 = start_x(M_k, 1), no 4-factor; FactorFound where start_x
    meets a zero symbol."""
    if k < 3:
        raise ValueError("Mersenne exponent must be at least 3")
    modulus = (1 << k) - 1
    return run_sequence(modulus, -1, start_x(modulus, 1), k, four_factor=False)
