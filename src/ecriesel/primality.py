"""Decision procedures for p = 2^k * n - 1 and their replayable certificates.

auto_test, the one decide entry, takes the first route that applies:

  * mersenne   n = 1, k >= 3: fixed curve and start, pure sequence run;
  * small-n    gate_small_n: construct a curve and point, multiply by n,
               then run the k-step sequence, both in one walk;
  * large-n    gate_large_n, every factor of n prime: 2^k * Q has order
               exactly n (Goldwasser-Kilian).

The two gates never both hold.  With no route, _fallback decides p by the
exact oracle or the presieve, or reports not-applicable.

Each route is an evaluator on a given curve and point (_sequence_verdict,
_small_n_verdict, _order_verdict); both curve routes search through one
_curve_route: it tries the (m, Q) pairs of one scan until the route's
evaluator decides, maps a divisor met on the way to a factor verdict and
gives up as retries-exhausted when the scan runs dry.  The scan is one
fixed procedure, so a run's certificate is reproducible byte for byte.  A
Prime/Composite verdict's certificate records the choices the search made
(the base point, from which curve_coefficient gives m) and where the chain
ended; replay_verdict checks them and recomputes the verdict with the same
evaluator.  Verdict is an immutable named tuple.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
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
from .sequence import FINAL_ZERO, SequenceOutcome, chain_outcome
from .sequence import run_sequence  # noqa: F401  (perfbench/tracing.py patches it here)

PRIME = "prime"
COMPOSITE = "composite"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not-applicable"

# Most x (and y) values one curve/point scan tries, so that a scan over
# hostile input ends instead of running for ever.
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


def _curve_point_candidates(p: int):
    """Yield (m, Q) pairs: (x/p) = -1, ((x^3 - y^2)/p) = +1, m = curve_coefficient(p, Q).

    Q = (x, y) then lies on y^2 = x^3 - m*x with (m/p) = -1 by
    multiplicativity.  x ascends from 2 and y from 1, up to SCAN_LIMIT
    values each.  A zero symbol anywhere in the scan means a shared factor
    with p, raised as FactorFound.  Successive yields keep the same x and
    move to the next y, which is what _curve_route's retries need.
    """
    x = None
    for cand in range(2, min(p - 1, 2 + SCAN_LIMIT)):
        j = jacobi(cand, p)
        if j == 0:
            raise FactorFound(gcd(cand, p), p)
        if j == -1:
            x = cand
            break
    if x is None:
        return
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


# --- evaluation on a given curve and point, for deciding and replay -------

def _sequence_verdict(algorithm: str, outcome: SequenceOutcome,
                      base_point: Point | None = None) -> Verdict:
    """Prime iff the chain ended in zero; the certificate holds where, and a
    constructed curve's base point, from which replay recomputes the rest."""
    cert = {"type": "sequence", "outcome": outcome.kind}
    if outcome.step is not None:
        cert["step"] = outcome.step
    if outcome.divisor is not None:
        cert["divisor"] = outcome.divisor
    if base_point is not None:
        cert["base_point"] = [base_point.x, base_point.y]
    return Verdict(PRIME if outcome.kind == FINAL_ZERO else COMPOSITE, algorithm, cert)


def _small_n_verdict(c: FormCandidate, m: int, base: Point) -> Verdict:
    """The small-n verdict on (m, base): composite when n * base is already
    infinity, else the chain from it, in one walk.  Raises FactorFound."""
    outcome = chain_outcome(c.p, m, base, c.k, c.n)
    if outcome is None:
        cert = {"type": "vanished-multiple", "base_point": [base.x, base.y]}
        return Verdict(COMPOSITE, "small-n", cert)
    return _sequence_verdict("small-n", outcome, base)


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

def _curve_route(c: FormCandidate, algorithm: str, evaluate,
                 factors: tuple[int, ...] | None = None) -> Verdict:
    """The first verdict evaluate(c, m, base) gives on the scanned (m, Q) pairs.

    evaluate returns None when its pair decides nothing; at most RETRY_CAP
    pairs are tried.  A divisor of p gives a factor verdict: at stage
    parameter-scan when the scan meets it before the first pair, else at
    scalar-multiplication.  A scan that runs dry gives retries-exhausted,
    which carries the given factors of n, so that replay can check them.
    """
    attempts = 0
    try:
        for m, base in islice(_curve_point_candidates(c.p), RETRY_CAP):
            attempts += 1
            verdict = evaluate(c, m, base)
            if verdict is not None:
                return verdict if attempts == 1 else verdict._replace(iterations=attempts)
    except FactorFound as exc:
        stage = "parameter-scan" if attempts == 0 else "scalar-multiplication"
        cert = {"type": "factor", "divisor": exc.divisor, "stage": stage}
        return Verdict(COMPOSITE, algorithm, cert, iterations=max(attempts, 1))
    cert = {"type": "retries-exhausted", "attempts": attempts}
    if factors is not None:
        cert["factors"] = list(factors)
    return Verdict(INCONCLUSIVE, algorithm, cert, iterations=max(attempts, 1))


def test_mersenne(k: int) -> Verdict:
    """Mersenne route for M_k = 2^k - 1, k >= 3: no curve search at all.

    The fixed start x_0 = -1 on y^2 = x^3 - 3x is valid for every exponent,
    so the verdict is the sequence classification directly, and replay takes
    m = 3 and x_0 from here rather than from the certificate.
    """
    if k < 3:
        raise ValueError("Mersenne exponent must be at least 3")
    p = (1 << k) - 1
    return _sequence_verdict("mersenne", chain_outcome(p, 3, p - 1, k))


def auto_test(c: FormCandidate) -> Verdict:
    """Decide c by the first route that applies (see the module docstring).

    Large-n takes c.n_factors, or n itself, as n's factorization; the
    paper's large-prime-n and two-prime-n tests are its one- and two-factor
    cases.  A curve route that finds no deciding pair gives up as
    inconclusive; large-n then records c.n_factors when they were given.
    With no route, _fallback decides or reports not-applicable.
    """
    if c.n == 1 and c.k >= 3:
        return test_mersenne(c.k)
    if gate_small_n(c):
        return _curve_route(c, "small-n", _small_n_verdict)
    factors = c.n_factors or (c.n,)
    if gate_large_n(c) and all(_probable_prime(q) for q in factors):
        return _curve_route(c, "large-n", partial(_order_verdict, factors=factors),
                            c.n_factors)
    return _fallback(c)


# --- certificate replay ----------------------------------------------------

# The stages at which each route can meet a divisor of p.
_FACTOR_STAGES = {
    "sieve": ("sieve",),
    "small-n": ("parameter-scan", "scalar-multiplication"),
    "large-n": ("parameter-scan", "scalar-multiplication"),
}


def _replay_curve(p: int, base: Point) -> int | None:
    """The curve coefficient m of a recorded base point, None unless
    0 <= x, y < p, (x/p) = -1 and (m/p) = -1.

    base lies on y^2 = x^3 - m*x by the choice of m, and m != 0: x^3 = y^2
    would give (x/p)^3 = (y/p)^2, never -1.
    """
    if not (0 <= base.x < p and 0 <= base.y < p and jacobi(base.x, p) == -1):
        return None
    m = curve_coefficient(p, base)
    return m if jacobi(m, p) == -1 else None


def replay_verdict(c: FormCandidate, verdict: Verdict) -> bool:
    """Re-validate a verdict's certificate from scratch.

    Checks the recorded choices (the base point, whose curve coefficient m
    it derives, the factors of n, the gate behind a prime verdict), then
    recomputes the verdict with the route's own evaluator and compares
    status, algorithm and certificate.  Every chain step, its start and
    every multiple are recomputed; the multipliers (n, 2^k, n/q, q) come
    from the candidate and the checked factors, and no scan, retry,
    fallback or dispatch runs.  The evaluators are built from the integer
    and curve layers alone; the independent references for them are the
    traced walk run_sequence, the oracle and the differential tests.
    An undecided verdict is checked against what auto_test can give up
    with, and no scan or fallback runs: not-applicable is _fallback's
    dispatch verdict, for p >= PSI_13 with gate_small_n failing and no
    prime factor up to 13 (no Miller-Rabin); inconclusive is a curve
    route's retries-exhausted, with that route's gate holding and at most
    RETRY_CAP pairs tried, and on large-n with the recorded factors, or
    (n,) without them, multiplying to n and each passing _probable_prime,
    as large-n's entry requires.  A decided verdict has iterations 1, or up
    to RETRY_CAP on large-n, whose evaluator can decline a pair.
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
    curve_route = algorithm in ("small-n", "large-n")
    gate = gate_small_n if algorithm == "small-n" else gate_large_n
    if status == INCONCLUSIVE:
        attempts = cert.get("attempts")
        shape = {"type": "retries-exhausted", "attempts": attempts}
        if algorithm == "large-n" and "factors" in cert:
            shape["factors"] = cert["factors"]  # given with the candidate
        if not (curve_route and cert == shape and 0 <= attempts <= RETRY_CAP
                and verdict.iterations == max(attempts, 1) and gate(c)):
            return False
        # auto_test takes large-n only when every factor of n is prime
        factors = cert.get("factors", (c.n,))
        return algorithm == "small-n" or (
            prod(factors) == c.n and all(_probable_prime(q) for q in factors))
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
    elif algorithm == "mersenne":
        if c.n != 1 or c.k < 3:
            return False
        expected = test_mersenne(c.k)
    elif curve_route:
        base = Point(*cert["base_point"])
        m = _replay_curve(p, base)
        if m is None or (status == PRIME and not gate(c)):
            return False
        if algorithm == "small-n":
            expected = _small_n_verdict(c, m, base)
        else:
            factors = cert["factors"]
            if prod(factors) != c.n or not all(_probable_prime(q) for q in factors):
                return False
            expected = _order_verdict(c, m, base, factors)
    else:
        return False
    return expected is not None and (
        (expected.status, expected.algorithm, expected.certificate) == (status, algorithm, cert)
    )
