"""Decision procedures for p = 2^k * n - 1 and their replayable certificates.

auto_test, the one decide entry, takes the first route that applies:

  * small-n    gate_small_n, n = 1 included: the k-step x-only chain from
               x(n * Q), x(Q) = -1, on y^2 = x^3 - m x, where m is the
               least a >= 2 with (a/p) != +1;
  * large-n    gate_large_n, every factor of n prime: 2^k * Q has order
               exactly n (Goldwasser-Kilian).

The two gates never both hold.  With no route, _fallback decides p by the
exact oracle or the presieve, or reports not-applicable.

Small-n scans no point and forms no y; a zero symbol met finding m is a
factor at parameter-scan.  Sound: if the chain ends in zero, every prime
l | p has 2^k <= (sqrt(l) + 1)^2 (sequence docstring; (m/p) = -1 makes m
a unit), yet a composite p has an l <= sqrt(p), with (p^(1/4) + 1)^2 <
p / n < 2^k by the gate.  Complete: the symbols before m's are +1, so
((m - 1)/p) = +1; for a prime p, Q = (-1, sqrt(m - 1)) lies on the curve,
cyclic of order 2^k n (fact 2 of oracle), and (-1/p) = -1 gives Q an
order divisible by 2^k (fact 3), so n * Q has order 2^k.  For M_k, k odd,
(2/p) = +1 and (3/p) = -1 give m = 3 and, as n = 1, no ladder: the
classical Mersenne chain.

Large-n's _curve_route tries the (m, Q) pairs of one fixed scan until
_order_verdict decides.  Replay re-runs each route's evaluator
(_small_n_verdict, _order_verdict) after checking the recorded choices.
Verdict is an immutable named tuple.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import gcd, prod

from .ecring import Curve, FactorFound, Point, scalar_mul
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
from .sequence import FINAL_ZERO, chain_outcome
from .sequence import run_sequence  # noqa: F401  (perfbench/tracing.py patches it here)

PRIME = "prime"
COMPOSITE = "composite"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not-applicable"

# Most y values one curve/point scan tries, so that a scan over hostile
# input ends instead of running for ever.
SCAN_LIMIT = 100_000
# Most scanned (m, Q) pairs one curve route tries before it gives up.
RETRY_CAP = 20


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


def _least_nonresidue(p: int) -> int:
    """The least a >= 2 with (a/p) = -1, p = 3 (mod 4), which (-1/p) = -1
    bounds by p - 1; FactorFound on a zero symbol before it."""
    a = 2
    while (j := jacobi(a, p)) == 1:
        a += 1
    if j == 0:
        raise FactorFound(gcd(a, p), p)
    return a


def _curve_point_candidates(p: int):
    """Yield (m, Q) pairs: (x/p) = -1, ((x^3 - y^2)/p) = +1, m = curve_coefficient(p, Q).

    Q = (x, y) then lies on y^2 = x^3 - m*x with (m/p) = -1 by
    multiplicativity.  x is _least_nonresidue(p), and y ascends from 1, up
    to SCAN_LIMIT values, one per retry of _curve_route.  A zero symbol
    means a shared factor with p, raised as FactorFound.
    """
    x = _least_nonresidue(p)
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


def sieve_verdict(divisor: int) -> Verdict:
    """The composite verdict of a small prime factor the presieve found."""
    return Verdict(COMPOSITE, "sieve", {"type": "factor", "divisor": divisor, "stage": "sieve"})


_DISPATCH = Verdict(NOT_APPLICABLE, "auto", {
    "type": "gate-failure", "gate": "dispatch",
    "reason": "no applicable route: gates fail or n needs an unavailable factorization"})


def _sieve_divisor(c: FormCandidate) -> int | None:
    """The least prime factor of p up to 13 that the presieve finds, if any."""
    return presieve(c.k, range(c.n, c.n + 1, 2)).get(c.n)


def _fallback(c: FormCandidate) -> Verdict:
    """The verdict when no route applies to c: the exact oracle's below
    PSI_13; above it a sieve verdict when the presieve finds a small prime
    factor of p, otherwise not-applicable at dispatch."""
    verdict = _oracle_verdict(c.p)
    if verdict is not None:
        return verdict
    divisor = _sieve_divisor(c)
    return _DISPATCH if divisor is None else sieve_verdict(divisor)


def _probable_prime(q: int) -> bool:
    """Primality of a factor of n: exact below PSI_13 (is_prime_oracle),
    12-base Miller-Rabin at and above it, so a prime verdict resting on
    such a factor is conditional on that test."""
    prime = is_prime_oracle(q)
    return miller_rabin(q) if prime is None else prime


# --- the evaluators, for deciding and replay ----------------------------

def _small_n_verdict(c: FormCandidate) -> Verdict:
    """The small-n verdict (module docstring): prime iff the chain from
    x(n * Q) ends in zero, its certificate where the chain ended."""
    try:
        m = _least_nonresidue(c.p)
    except FactorFound as exc:
        cert = {"type": "factor", "divisor": exc.divisor, "stage": "parameter-scan"}
        return Verdict(COMPOSITE, "small-n", cert)
    outcome = chain_outcome(c.p, m, -1, c.k, c.n)
    cert = {key: value for key, value in zip(("outcome", "step", "divisor"), outcome)
            if value is not None}
    cert["type"] = "sequence"
    return Verdict(PRIME if outcome.kind == FINAL_ZERO else COMPOSITE, "small-n", cert)


def _order_verdict(c: FormCandidate, m: int, base: Point,
                   factors: tuple[int, ...] | list[int]) -> Verdict | None:
    """The order verdict on (m, base) for n = prod(factors): with
    D = 2^k * base, prime iff n * D = infinity.  None when some (n/q) * D
    is already infinity, which decides nothing.  Raises FactorFound.

    With prime factors and the gate, q * ((n/q) * D) = infinity for the
    last q checked, reached with no divisor met, gives D order n mod every
    prime l | p, so p is prime and n * D = infinity too.  That walk runs
    where n != q and p is a base-2 probable prime, which spares a composite
    p a walk it cannot use (at order-route's 1029-bit p the test takes
    about 3.5 ms, the walk by a 259-bit q about 9.6 ms under the Riesel
    fold, 12 ms under `%`); any other outcome of it leaves the verdict to
    the walk of n * D, whose certificate it is."""
    curve = Curve(c.p, m)
    doubled = scalar_mul(curve, 1 << c.k, base)
    q, multiple = c.n, doubled  # kept only by an empty factor list, where n = 1
    for q in dict.fromkeys(factors):
        multiple = scalar_mul(curve, c.n // q, doubled)
        if multiple.is_infinity:
            return None
    cert = {"type": "order", "base_point": [base.x, base.y], "factors": list(factors)}
    if q != c.n and gate_large_n(c) and miller_rabin(c.p, (2,)):
        try:
            if scalar_mul(curve, q, multiple).is_infinity:
                return Verdict(PRIME, "large-n", cert)
        except FactorFound:
            pass
    status = PRIME if scalar_mul(curve, c.n, doubled).is_infinity else COMPOSITE
    return Verdict(status, "large-n", cert)


# --- deciding: search, gates, retries and fallback -------------------------

def _curve_route(c: FormCandidate, factors: tuple[int, ...]) -> Verdict:
    """The first verdict _order_verdict gives on the scanned (m, Q) pairs,
    of which at most RETRY_CAP are tried.  A divisor of p gives a factor
    verdict: at stage parameter-scan when the scan meets it before the
    first pair, else at scalar-multiplication.  A scan that runs dry gives
    retries-exhausted with the factors given with c, for replay to check.
    """
    attempts = 0
    try:
        for m, base in islice(_curve_point_candidates(c.p), RETRY_CAP):
            attempts += 1
            verdict = _order_verdict(c, m, base, factors)
            if verdict is not None:
                return verdict if attempts == 1 else verdict._replace(iterations=attempts)
    except FactorFound as exc:
        stage = "parameter-scan" if attempts == 0 else "scalar-multiplication"
        cert = {"type": "factor", "divisor": exc.divisor, "stage": stage}
        return Verdict(COMPOSITE, "large-n", cert, iterations=max(attempts, 1))
    cert = {"type": "retries-exhausted", "attempts": attempts}
    if c.n_factors is not None:
        cert["factors"] = list(c.n_factors)
    return Verdict(INCONCLUSIVE, "large-n", cert, iterations=max(attempts, 1))


def test_mersenne(k: int) -> Verdict:
    """auto_test on M_k = 2^k - 1, k >= 3: small-n from k = 4 on."""
    if k < 3:
        raise ValueError("Mersenne exponent must be at least 3")
    return auto_test(FormCandidate(k=k, n=1))


def auto_test(c: FormCandidate) -> Verdict:
    """Decide c by the first route that applies (see the module docstring).

    Large-n takes c.n_factors, or n itself, as n's factorization; the
    paper's large-prime-n and two-prime-n tests are its one- and two-factor
    cases.  With no route, _fallback decides or reports not-applicable.
    """
    if gate_small_n(c):
        return _small_n_verdict(c)
    factors = c.n_factors or (c.n,)
    if gate_large_n(c) and all(_probable_prime(q) for q in factors):
        return _curve_route(c, factors)
    return _fallback(c)


# --- certificate replay ----------------------------------------------------

# The stages at which each route can meet a divisor of p.
_FACTOR_STAGES = {
    "sieve": ("sieve",),
    "small-n": ("parameter-scan",),
    "large-n": ("parameter-scan", "scalar-multiplication"),
}


def replay_verdict(c: FormCandidate, verdict: Verdict) -> bool:
    """Re-validate a verdict's certificate from scratch.

    Checks the recorded choices (a large-n base point, whose curve
    coefficient m it derives, the factors of n, the gate behind a prime
    verdict), then re-runs the route's own evaluator and compares status,
    algorithm and certificate; small-n records no choice.  The multipliers
    (n, 2^k, n/q, q) come from the candidate and the checked factors, and
    no scan, retry, fallback or dispatch runs.  The evaluators use the
    integer and curve layers alone; the independent references for them
    are the traced walk run_sequence, the oracle and the differential tests.
    An undecided verdict is checked against what auto_test can give up
    with, and no scan or fallback runs: not-applicable is _fallback's
    dispatch verdict, for p >= PSI_13 with gate_small_n failing and no
    prime factor up to 13 (no Miller-Rabin); inconclusive is large-n's
    retries-exhausted, with its gate holding, at most RETRY_CAP pairs
    tried, and the recorded factors, or (n,) without them, multiplying to n
    and each passing _probable_prime, as large-n's entry requires.  A
    decided verdict has iterations 1, or up to RETRY_CAP on large-n, whose
    evaluator can decline a pair.
    """
    try:
        return _replay(c, verdict)
    except (FactorFound, ValueError, KeyError, IndexError, TypeError):
        return False


def _replay(c: FormCandidate, verdict: Verdict) -> bool:
    cert = verdict.certificate
    status = verdict.status
    algorithm = verdict.algorithm
    p = c.p

    if status == NOT_APPLICABLE:
        # at p >= PSI_13, n = 1 passes gate_small_n: a Mersenne candidate fails here
        return (verdict == _DISPATCH and p >= PSI_13 and not gate_small_n(c)
                and _sieve_divisor(c) is None)
    if status == INCONCLUSIVE:
        attempts = cert.get("attempts")
        shape = {"type": "retries-exhausted", "attempts": attempts}
        if "factors" in cert:
            shape["factors"] = cert["factors"]  # given with the candidate
        if not (algorithm == "large-n" and cert == shape and 0 <= attempts <= RETRY_CAP
                and verdict.iterations == max(attempts, 1) and gate_large_n(c)):
            return False
        # auto_test takes large-n only when every factor of n is prime
        factors = cert.get("factors", (c.n,))
        return prod(factors) == c.n and all(_probable_prime(q) for q in factors)
    if status not in (PRIME, COMPOSITE):
        return False
    # Only large-n's evaluator can decline a pair, so only its verdicts
    # come after a retry.
    if not 1 <= verdict.iterations <= (RETRY_CAP if algorithm == "large-n" else 1):
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
        # base lies on y^2 = x^3 - m x by the choice of m, and m != 0, as
        # x^3 = y^2 would give (x/p)^3 = (y/p)^2, never -1
        base = Point(*cert["base_point"])
        if not (0 <= base.x < p and 0 <= base.y < p and jacobi(base.x, p) == -1):
            return False
        m = curve_coefficient(p, base)
        if jacobi(m, p) != -1 or (status == PRIME and not gate_large_n(c)):
            return False
        factors = cert["factors"]
        if prod(factors) != c.n or not all(_probable_prime(q) for q in factors):
            return False
        expected = _order_verdict(c, m, base, factors)
    else:
        return False
    return expected is not None and (
        (expected.status, expected.algorithm, expected.certificate) == (status, algorithm, cert)
    )
