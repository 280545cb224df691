"""Decision procedures for p = 2^k * n - 1 and their replayable certificates.

auto_test, the one decide entry, first runs the presieve on p (a prime
factor up to 13 is a sieve verdict), then one strong test of p to base
WITNESS_BASE = 3 (a witness proves p composite at any size, Miller 1976,
Rabin 1980; base 2 witnesses no M_k of prime k, as 2^k = 1 mod M_k).
Only a strong probable prime, where a proof is needed, goes on to the
first route that applies, both on E: y^2 = x^3 + x, the paper's
y^2 = x^3 - m x at m = -1, a non-residue mod p = 3 (mod 4) (every other
such curve is isomorphic to E by x -> x / lambda, lambda^2 = -m):

  * small-n    gate_small_n, n = 1 included: the k-step x-only chain from
               x(n * Q), x(Q) = u = start_x(p), the least u >= 2 with
               ((u^2 + 1)/p) = -1;
  * large-n    gate_large_n, every factor of n prime: D = 2^k * Q has
               order exactly n (Goldwasser-Kilian), for x(Q) = -(a + 1),
               a = 1, 2, ... up to RETRY_CAP.

The two gates never both hold.  With no route, _fallback decides p by the
exact oracle below PSI_13, or reports not-applicable.  Neither route
scans a point, forms a y or runs scalar_mul, and a zero symbol small-n
meets finding u is a factor at parameter-scan.  The routes keep their
composite outcomes: they are part of the proof, and a base-3 strong
pseudoprime (p = 703 = 2^6 * 11 - 1 on small-n) still reaches them.

Small-n.  Sound: if the chain ends in zero, every prime l | p has 2^k <=
(sqrt(l) + 1)^2 (sequence docstring; E is elliptic mod every odd l), yet
a composite p has an l <= sqrt(p), with (p^(1/4) + 1)^2 < p / n < 2^k by
the gate.  Complete: for a prime p, E(F_p) is cyclic of order 2^k n
(fact 2 of oracle at m = -1), and its twist is E again through x -> -x,
as (-1/p) = -1, so x = u or -u is the x of a point Q of E.  Its
x (x^2 + 1) is a square and x^2 + 1 = u^2 + 1, so (x/p) = -1: Q has an
order divisible by 2^k (fact 3), and n * Q order 2^k.  The doubling map
x -> (x^2 - 1)^2 / (4 x (x^2 + 1)) and the ladder are odd in x, so the
walks from u and -u vanish alike.  For M_k, n = 1: no ladder.

Large-n (_order_verdict) walks x-coordinates alone.  D = 2^k Q comes
from the k doublings of the chain under one checkpoint walk; each
(n/q) D, for the distinct q | n, and q ((n/q) D) = n D for the last q
come from the ecring ladder, whose difference x(D), then x((n/q) D), one
inversion makes affine.  On the way, a proper gcd of p (the walk's, or
of a ladder's end Z, or of an X made affine) is a factor at
scalar-multiplication; a Z of D or of some (n/q) D that vanishes mod p
declines the attempt, and a + 1 goes next; an x(D) or x((n/q) D) that
vanishes is final-nonzero, as no point of odd order has x = 0 mod a prime.
The verdict is prime, final-zero, iff the end Z vanishes mod p.  The
starts skip x = 0 (order 2) and x = +-1 (order 4).
  Sound: mod each prime l | p, x(Q) lifts to E or its quadratic twist,
and by the ladder's argument (ecring) n D = O there while every (n/q) D
is finite: D has order n, so Hasse gives n <= (sqrt(l) + 1)^2.  The gate
gives (p^(1/4) + 1)^2 < p / 2^k < n, so l > sqrt(p) for every l, and p
is prime.  A final-nonzero needs no gate: for a prime p, n D = O.
  Complete: for a prime p, E(F_p) is cyclic of order p + 1 = 2^k n
(fact 2), and its twist is E, so every x is the x of a point Q of E.
D's order divides n, so every Z is a unit or zero mod p, and n D = O:
an attempt declines only when Q's order misses some q | n, and otherwise
ends final-zero.

Replay re-runs each route's evaluator (_small_n_verdict, _order_verdict,
the latter with a = iterations) after checking the recorded choices and
that p passed the presieve and the witness test; a witness record costs
one presieve and one modular power, and walks nothing.  Verdict is an
immutable named tuple.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, prod

from .ecring import ChainFailure, FactorFound, Point, double_x_only_chain
from .ecring import scalar_mul  # noqa: F401  (perfbench/tracing.py wraps it here)
from .numtheory import (
    ORACLE_BASES,
    PSI_13,
    TRIAL_LIMIT,
    FormCandidate,
    gate_large_n,
    gate_small_n,
    is_prime_oracle,
    jacobi,
    miller_rabin,
    presieve,
    trial_division,
)
from .sequence import FINAL_NONZERO, FINAL_ZERO, chain_outcome, start_x
from .sequence import run_sequence  # noqa: F401  (perfbench/tracing.py patches it here)

PRIME = "prime"
COMPOSITE = "composite"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not-applicable"

# Most y values one _curve_point_candidates scan tries.
SCAN_LIMIT = 100_000
# Most x(Q) = -(a + 1) attempts the large-n route makes before it gives up.
RETRY_CAP = 20
# The one base auto_test's strong test takes before any curve walk.
WITNESS_BASE = 3


class Verdict(namedtuple("Verdict", "status algorithm certificate iterations", defaults=(1,))):
    """Outcome of one test run: status, the algorithm used, and its certificate."""

    __slots__ = ()


def factor_witness(verdict: Verdict) -> int | None:
    """The proper-divisor witness carried by a composite verdict, if any."""
    d = verdict.certificate.get("divisor")
    if d is None and verdict.certificate.get("type") == "oracle":
        f = verdict.certificate.get("least_factor")
        if verdict.status == COMPOSITE:
            return f
    return d


def curve_coefficient(p: int, base: Point) -> int:
    """m = (x^3 - y^2)/x mod p, the one m that puts base = (x, y) on
    y^2 = x^3 - m*x.  Raises ValueError when x is not invertible mod p."""
    x, y = base
    return (x * x * x - y * y) * pow(x, -1, p) % p


def _curve_point_candidates(p: int):
    """Yield (m, Q) pairs: (x/p) = -1, ((x^3 - y^2)/p) = +1, m = curve_coefficient(p, Q).

    Q = (x, y) then lies on y^2 = x^3 - m*x with (m/p) = -1 by
    multiplicativity.  x is the least a >= 2 with (a/p) = -1, p = 3 (mod 4),
    and y ascends from 1, up to SCAN_LIMIT values.  A zero symbol means a
    shared factor with p, raised as FactorFound.  No route calls it;
    perfbench/tracing.py wraps it by name.
    """
    x = next(a for a in range(2, p) if jacobi(a, p) != 1)
    if gcd(x, p) != 1:
        raise FactorFound(gcd(x, p), p)
    x_cubed = x * x * x % p
    for y in range(1, min(p, 1 + SCAN_LIMIT)):
        # t != 0: x^3 = y^2 would give (x/p)^3 = (y/p)^2, never -1
        t = (x_cubed - y * y) % p
        j = jacobi(t, p)
        if j == 0:
            raise FactorFound(gcd(t, p), p)
        if j == 1:
            base = Point(x, y)
            yield curve_coefficient(p, base), base


def _oracle_verdict(p: int) -> Verdict | None:
    """The exact verdict of is_prime_oracle's test on odd p, None at or
    above PSI_13.

    Trial division records p's least factor; Miller-Rabin records the
    least base that witnesses a composite p, found by the one pass over
    ORACLE_BASES that decides p.
    """
    if p <= TRIAL_LIMIT:
        f = trial_division(p)
        return Verdict(PRIME if f == p else COMPOSITE, "trial-division",
                       {"type": "oracle", "least_factor": f})
    if p >= PSI_13:
        return None
    witness = next((b for b in ORACLE_BASES if not miller_rabin(p, (b,))), None)
    if witness is None:
        return Verdict(PRIME, "miller-rabin", {"type": "oracle"})
    return Verdict(COMPOSITE, "miller-rabin", {"type": "oracle", "witness": witness})


def _factor_verdict(algorithm: str, divisor: int, stage: str) -> Verdict:
    return Verdict(COMPOSITE, algorithm, {"type": "factor", "divisor": divisor, "stage": stage})


def sieve_verdict(divisor: int) -> Verdict:
    """The composite verdict of a small prime factor the presieve found."""
    return _factor_verdict("sieve", divisor, "sieve")


_DISPATCH = Verdict(NOT_APPLICABLE, "auto", {
    "type": "gate-failure", "gate": "dispatch",
    "reason": "no applicable route: gates fail or n needs an unavailable factorization"})

# The verdict of a strong witness: the oracle's certificate, with the base.
_WITNESSED = Verdict(COMPOSITE, "miller-rabin", {"type": "oracle", "witness": WITNESS_BASE})


def _sieve_divisor(c: FormCandidate) -> int | None:
    """The least prime factor of p up to 13 that the presieve finds, if any."""
    return presieve(c.k, range(c.n, c.n + 1, 2)).get(c.n)


def _fallback(c: FormCandidate) -> Verdict:
    """The verdict when no route applies to c: the exact oracle's below
    PSI_13, otherwise not-applicable at dispatch."""
    return _oracle_verdict(c.p) or _DISPATCH


def _probable_prime(q: int) -> bool:
    """Primality of a factor of n: exact below PSI_13 (is_prime_oracle),
    12-base Miller-Rabin at and above it, so a prime verdict resting on
    such a factor is conditional on that test."""
    prime = is_prime_oracle(q)
    return miller_rabin(q) if prime is None else prime


def _large_n_applies(c: FormCandidate, factors) -> bool:
    """Whether auto_test takes large-n for c with these factors of n."""
    return gate_large_n(c) and prod(factors) == c.n and all(_probable_prime(q) for q in factors)


def _vanishes(t: int, p: int) -> bool:
    """Whether t = 0 mod p; FactorFound when gcd(t, p) is a proper divisor."""
    g = gcd(t, p)
    if 1 < g < p:
        raise FactorFound(g, p)
    return g == p


def _affine_x(point: tuple[int, int], p: int) -> int | None:
    """X / Z mod p for (X:Z) with Z a unit, None when X = 0 mod p;
    FactorFound when gcd(X, p) is a proper divisor."""
    X, Z = point
    return None if _vanishes(X, p) else X * pow(Z, -1, p) % p


# --- the evaluators, for deciding and replay ----------------------------

def _small_n_verdict(c: FormCandidate) -> Verdict:
    """The small-n verdict (module docstring): prime iff the chain from
    x(n * Q) ends in zero, its certificate where the chain ended."""
    try:
        u = start_x(c.p)
    except FactorFound as exc:
        return _factor_verdict("small-n", exc.divisor, "parameter-scan")
    outcome = chain_outcome(c.p, u, c.k, c.n)
    cert = {key: value for key, value in zip(("outcome", "step", "divisor"), outcome)
            if value is not None}
    cert["type"] = "sequence"
    return Verdict(PRIME if outcome.kind == FINAL_ZERO else COMPOSITE, "small-n", cert)


def _order_verdict(c: FormCandidate, a: int, factors: tuple[int, ...] | list[int]) -> Verdict | None:
    """The large-n verdict of attempt a, x(Q) = -(a + 1), for
    n = prod(factors) (module docstring); None when the attempt declines."""
    p = c.p
    cert = {"type": "order", "outcome": FINAL_NONZERO, "factors": list(factors)}
    try:
        end = double_x_only_chain(p, -(a + 1), c.k)
        if isinstance(end, ChainFailure):
            if end.divisor != p:
                raise FactorFound(end.divisor, p)
            return None
        x = _affine_x(end, p)
        if x is not None:
            for q in dict.fromkeys(factors):
                multiple = double_x_only_chain(p, x, 0, c.n // q)
                if _vanishes(multiple[1], p):
                    return None
            # q * ((n/q) * D) = n * D for the last q
            x = _affine_x(multiple, p)
            if x is not None and _vanishes(double_x_only_chain(p, x, 0, q)[1], p):
                cert["outcome"] = FINAL_ZERO
    except FactorFound as exc:
        return _factor_verdict("large-n", exc.divisor, "scalar-multiplication")
    return Verdict(PRIME if cert["outcome"] == FINAL_ZERO else COMPOSITE, "large-n", cert)


# --- deciding: gates, retries and fallback ---------------------------------

def _curve_route(c: FormCandidate, factors: tuple[int, ...]) -> Verdict:
    """The first verdict _order_verdict gives for a = 1 .. RETRY_CAP, with
    iterations a.  When every attempt declines, retries-exhausted with the
    factors given with c, for replay to check."""
    for a in range(1, RETRY_CAP + 1):
        verdict = _order_verdict(c, a, factors)
        if verdict is not None:
            return verdict._replace(iterations=a)
    cert = {"type": "retries-exhausted", "attempts": RETRY_CAP}
    if c.n_factors is not None:
        cert["factors"] = list(c.n_factors)
    return Verdict(INCONCLUSIVE, "large-n", cert, iterations=max(RETRY_CAP, 1))


def test_mersenne(k: int) -> Verdict:
    """auto_test on M_k = 2^k - 1, k >= 3: small-n from k = 4 on."""
    if k < 3:
        raise ValueError("Mersenne exponent must be at least 3")
    return auto_test(FormCandidate(k=k, n=1))


def auto_test(c: FormCandidate) -> Verdict:
    """Decide c (see the module docstring): a sieve verdict when the
    presieve finds a prime factor of p up to 13, else decide_unsieved."""
    divisor = _sieve_divisor(c)
    return decide_unsieved(c) if divisor is None else sieve_verdict(divisor)


def decide_unsieved(c: FormCandidate) -> Verdict:
    """auto_test on a c whose p the presieve found no factor of (search
    presieves its whole range first): composite on a strong witness to
    WITNESS_BASE, else the first route that applies.

    Large-n takes c.n_factors, or n itself, as n's factorization; the
    paper's large-prime-n and two-prime-n tests are its one- and two-factor
    cases.  With no route, _fallback decides or reports not-applicable.
    """
    if not miller_rabin(c.p, (WITNESS_BASE,)):
        return _WITNESSED
    if gate_small_n(c):
        return _small_n_verdict(c)
    factors = c.n_factors or (c.n,)
    if _large_n_applies(c, factors):
        return _curve_route(c, factors)
    return _fallback(c)


# --- certificate replay ----------------------------------------------------

# The stages at which each route can meet a divisor of p.
_FACTOR_STAGES = {
    "sieve": ("sieve",),
    "small-n": ("parameter-scan",),
    "large-n": ("scalar-multiplication",),
}


def replay_verdict(c: FormCandidate, verdict: Verdict) -> bool:
    """Re-validate a verdict's certificate from scratch.

    A witness record (composite, miller-rabin, witness WITNESS_BASE) is
    valid iff the presieve finds no factor of p and WITNESS_BASE is a
    strong witness for p: one presieve and one modular power, no walk.
    Every other record that is neither prime nor a sieve verdict needs the
    presieve to find no factor and WITNESS_BASE to be no witness, as
    auto_test stops at either (a prime passes both).  Then replay checks
    the recorded choices (the factors of n
    and the gates behind a large-n verdict, the gate behind a small-n
    prime), re-runs the route's own evaluator and compares status,
    algorithm and certificate; small-n records no choice, and large-n's
    x(Q) = -(a + 1) is a = iterations.  The multipliers (n, 2^k, n/q, q)
    come from the candidate and the checked factors, and no retry,
    fallback or dispatch runs.  The evaluators use the integer and curve
    layers alone; the independent references for them are the traced walk
    run_sequence, the affine scalar_mul, the oracle and the differential
    tests.  An undecided verdict is checked against what auto_test can give
    up with, and no walk or fallback runs: not-applicable is _fallback's
    dispatch verdict, for p >= PSI_13 with gate_small_n failing;
    inconclusive is large-n's retries-exhausted, with at most RETRY_CAP
    attempts and large-n's entry holding for the recorded factors, or (n,)
    without them.  A decided verdict has iterations 1, or up to RETRY_CAP
    on large-n, whose evaluator can decline an attempt.
    """
    try:
        return _replay(c, verdict)
    except (FactorFound, ValueError, KeyError, IndexError, TypeError):
        return False


def _passed_witness(c: FormCandidate) -> bool:
    """Whether auto_test takes c past its presieve and its witness test."""
    return _sieve_divisor(c) is None and miller_rabin(c.p, (WITNESS_BASE,))


def _replay(c: FormCandidate, verdict: Verdict) -> bool:
    cert = verdict.certificate
    status = verdict.status
    algorithm = verdict.algorithm
    p = c.p

    if verdict == _WITNESSED:
        return _sieve_divisor(c) is None and not miller_rabin(p, (WITNESS_BASE,))
    if status == NOT_APPLICABLE:
        # at p >= PSI_13, n = 1 passes gate_small_n: a Mersenne candidate fails here
        return (verdict == _DISPATCH and p >= PSI_13 and not gate_small_n(c)
                and _passed_witness(c))
    if status == INCONCLUSIVE:
        attempts = cert.get("attempts")
        shape = {"type": "retries-exhausted", "attempts": attempts}
        if "factors" in cert:
            shape["factors"] = cert["factors"]  # given with the candidate
        return (algorithm == "large-n" and cert == shape and 0 <= attempts <= RETRY_CAP
                and verdict.iterations == max(attempts, 1)
                and _large_n_applies(c, cert.get("factors", (c.n,))) and _passed_witness(c))
    if status not in (PRIME, COMPOSITE):
        return False
    # Only large-n's evaluator can decline an attempt, so only its verdicts
    # come after a retry.
    if not 1 <= verdict.iterations <= (RETRY_CAP if algorithm == "large-n" else 1):
        return False
    if status == COMPOSITE and algorithm != "sieve" and not _passed_witness(c):
        return False

    if cert.get("type") == "factor":
        d = cert["divisor"]
        return (
            status == COMPOSITE
            and cert.keys() == {"type", "divisor", "stage"}
            and cert["stage"] in _FACTOR_STAGES.get(algorithm, ())
            and 1 < d < p
            and p % d == 0
        )

    if algorithm in ("trial-division", "miller-rabin"):
        expected = _oracle_verdict(p)
    elif algorithm == "small-n":
        if status == PRIME and not gate_small_n(c):
            return False
        expected = _small_n_verdict(c)
    elif algorithm == "large-n":
        if not _large_n_applies(c, cert["factors"]):
            return False
        expected = _order_verdict(c, verdict.iterations, cert["factors"])
    else:
        return False
    return expected is not None and (
        (expected.status, expected.algorithm, expected.certificate) == (status, algorithm, cert)
    )
