"""The denominator sequence behind the doubling-chain tests.

Starting from an x-coordinate x_0, each step records
S_i = c * (x_{i-1}^3 - m * x_{i-1}) mod N (c is 4 or 1, a unit either way)
and advances x through the x-only doubling map while S_i stays a unit.
Over a prime modulus S_i is, up to the constant, the square of the
y-coordinate of the (i-1)-fold doubling of any lift of x_0, so the chain
reads off exactly when the doubled point first hits 2-torsion or infinity.

chain_outcome decides a run with projective doubling and a deferred gcd
(ecring.double_x_only_chain), which also names the first non-unit S_i
with its step and divisor.  run_sequence walks the chain affinely step by
step and keeps the trace; it is the reference chain_outcome is tested
against, and no decision or replay path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .ecring import ChainFailure, Curve, double_x_only, double_x_only_chain

# Outcome kinds for a k-step run.
FINAL_ZERO = "final-zero"  # every S_i (i < k) a unit and S_k = 0: the prime pattern
GCD_HIT = "gcd-hit"  # some S_i (i < k) shares a proper factor with N
EARLY_INFINITY = "early-infinity"  # some S_i (i < k) vanishes mod N: order too small
FINAL_NONZERO = "final-nonzero"  # units throughout but S_k is not 0


@dataclass(frozen=True, slots=True)
class SequenceOutcome:
    kind: str
    step: int | None = None  # 1-based step of a gcd hit / early vanish
    divisor: int | None = None  # the proper factor for GCD_HIT
    residue: int | None = None  # S_k for FINAL_NONZERO


@dataclass(frozen=True, slots=True)
class STrace:
    """Replayable transcript of a run: the x-chain and the S values seen."""

    modulus: int
    m: int
    four_factor: bool
    x_values: tuple[int, ...]  # x_0 .. x_last (never advanced past a non-unit S)
    s_values: tuple[int, ...]  # S_1 .. S_last

    @property
    def steps_completed(self) -> int:
        return len(self.s_values)


def _check_chain(modulus: int, k: int) -> None:
    if k < 2:
        raise ValueError("k must be at least 2")
    if modulus < 3 or modulus % 2 == 0:
        raise ValueError("modulus must be odd and >= 3")


def _final_outcome(s: int) -> SequenceOutcome:
    """Classification by S_k once S_1 .. S_{k-1} were all units."""
    if s == 0:
        return SequenceOutcome(FINAL_ZERO)
    return SequenceOutcome(FINAL_NONZERO, residue=s)


def run_sequence(
    modulus: int, m: int, x0: int, k: int, four_factor: bool = True
) -> tuple[SequenceOutcome, STrace]:
    """Run k steps of the chain mod modulus and classify the result.

    For steps 1..k-1 a proper gcd is GCD_HIT and a vanishing S_i is
    EARLY_INFINITY; at step k only the residue class of S_k matters.
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
            outcome = _final_outcome(s)
            break
        if s == 0:
            outcome = SequenceOutcome(EARLY_INFINITY, step=i)
            break
        g = gcd(s, modulus)
        if g > 1:
            outcome = SequenceOutcome(GCD_HIT, step=i, divisor=g)
            break
        # S_i is a unit, so the doubling denominator (4/c) * S_i is too
        x = double_x_only(curve, x)
        assert x is not None
        xs.append(x)
    trace = STrace(modulus, m, four_factor, tuple(xs), tuple(ss))
    return outcome, trace


def chain_outcome(
    modulus: int, m: int, x0: int, k: int, four_factor: bool = True
) -> SequenceOutcome:
    """The outcome of run_sequence(modulus, m, x0, k, four_factor), untraced.

    The k - 1 doublings run projectively with a deferred gcd.  The i-th
    doubling denominator is a unit multiple of S_i, so the first non-unit
    one gives the step and divisor of a GCD_HIT, or EARLY_INFINITY when it
    vanishes mod the modulus; a unit result leaves only S_k to classify.
    """
    _check_chain(modulus, k)
    m %= modulus
    x = double_x_only_chain(Curve(modulus, m), x0, k - 1)
    if isinstance(x, ChainFailure):
        if x.divisor == modulus:
            return SequenceOutcome(EARLY_INFINITY, step=x.step)
        return SequenceOutcome(GCD_HIT, step=x.step, divisor=x.divisor)
    c = 4 if four_factor else 1
    return _final_outcome(c * x * ((x * x - m) % modulus) % modulus)


def mersenne_sequence(k: int) -> tuple[SequenceOutcome, STrace]:
    """The chain specialized to M_k = 2^k - 1: m = 3, x_0 = -1, no 4-factor.

    This fixed starting point works for every exponent, so no curve or
    point search is involved; k >= 3 required.
    """
    if k < 3:
        raise ValueError("Mersenne exponent must be at least 3")
    modulus = (1 << k) - 1
    return run_sequence(modulus, 3, modulus - 1, k, four_factor=False)
