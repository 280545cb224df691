"""Decision procedures for p = 2^k * n - 1 and their replayable certificates.

Three routes, chosen by the shape of n and the applicability gates:

  * mersenne   n = 1, k >= 3: fixed curve and start, pure sequence run;
  * small-n    n small enough for gate_small_n: construct a curve and
               point, multiply by n, then run the k-step sequence;
  * large-n    n with a known prime factorization and gate_large_n:
               2^k * Q has order exactly n.

Every Prime/Composite verdict carries a certificate that replay_verdict can
re-validate from scratch using only the arithmetic layers below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from math import gcd, prod

from .ecring import (
    ChainFailure,
    Curve,
    FactorFound,
    Point,
    double_x_only_chain,
    on_curve,
    scalar_mul,
)
from .numtheory import (
    FormCandidate,
    gate_large_n,
    gate_small_n,
    is_prime_oracle,
    jacobi,
    miller_rabin,
    trial_division,
)
from .sequence import (
    EARLY_INFINITY,
    FINAL_NONZERO,
    FINAL_ZERO,
    GCD_HIT,
    SequenceOutcome,
    chain_outcome,
    run_sequence,  # noqa: F401  (perfbench/tracing.py patches primality.run_sequence)
)

PRIME = "prime"
COMPOSITE = "composite"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not-applicable"


class ScanExhausted(Exception):
    """The curve/point scan ran out of candidates (pathological composite input)."""


@dataclass(frozen=True, slots=True)
class SearchConfig:
    """Knobs for parameter search and fallback behavior.

    seed None means deterministic ascending scans (x from 2, y from 1),
    which is the default so certificates are reproducible byte for byte.
    Candidates at or below oracle_bound are settled by trial division when
    no elliptic route applies.
    """

    seed: int | None = None
    retry_cap: int = 20
    oracle_bound: int = 10_000
    scan_limit: int = 100_000

    def __post_init__(self) -> None:
        if self.retry_cap < 1:
            raise ValueError("retry_cap must be at least 1")


DEFAULT_CONFIG = SearchConfig()


@dataclass(frozen=True)
class Verdict:
    """Outcome of one test run: status, the algorithm used, and its certificate."""

    status: str
    algorithm: str
    certificate: dict
    iterations: int = 1


def factor_witness(verdict: Verdict) -> int | None:
    """The proper-divisor witness carried by a composite verdict, if any."""
    d = verdict.certificate.get("divisor")
    if d is None and verdict.certificate.get("type") == "oracle":
        f = verdict.certificate.get("least_factor")
        if verdict.status == COMPOSITE:
            return f
    return d


def _curve_point_candidates(p: int, cfg: SearchConfig):
    """Yield (m, Q) pairs: (x/p) = -1, ((x^3 - y^2)/p) = +1, m = (x^3 - y^2)/x.

    Q = (x, y) then lies on y^2 = x^3 - m*x with (m/p) = -1 by
    multiplicativity.  A zero symbol anywhere in the scan means a shared
    factor with p, raised as FactorFound.  Successive yields keep the same
    x and move to the next y, which is what the retry loops need.
    """

    rng = random.Random(cfg.seed) if cfg.seed is not None else None
    if rng is None:
        xs = iter(range(2, min(p - 1, 2 + cfg.scan_limit)))
    else:
        xs = (rng.randrange(2, p - 1) for _ in range(cfg.scan_limit))
    x = None
    for cand in xs:
        j = jacobi(cand, p)
        if j == 0:
            raise FactorFound(gcd(cand, p), p)
        if j == -1:
            x = cand
            break
    if x is None:
        return
    x_cubed = x * x * x % p
    inv_x = pow(x, -1, p)
    if rng is None:
        ys = iter(range(1, min(p, 1 + cfg.scan_limit)))
    else:
        ys = (rng.randrange(1, p) for _ in range(cfg.scan_limit))
    for y in ys:
        t = (x_cubed - y * y) % p
        if t == 0:
            # x^3 = y^2 would force (x/p) != -1; unreachable, kept as a guard
            continue
        j = jacobi(t, p)
        if j == 0:
            raise FactorFound(gcd(t, p), p)
        if j == 1:
            yield t * inv_x % p, Point(x, y)


def construct_curve_point(p: int, cfg: SearchConfig = DEFAULT_CONFIG) -> tuple[int, Point]:
    """First (m, Q) produced by the deterministic scan for this modulus.

    Raises FactorFound if the scan trips over a divisor of p, ScanExhausted
    if no candidate exists within the configured scan limit.
    """
    if p < 7 or p % 2 == 0:
        raise ValueError("p must be odd and at least 7")
    for m, point in _curve_point_candidates(p, cfg):
        return m, point
    raise ScanExhausted(f"no curve/point pair found for {p}")


def _oracle_verdict(p: int) -> Verdict:
    f = trial_division(p)
    status = PRIME if f == p else COMPOSITE
    return Verdict(status, "trial-division", {"type": "oracle", "least_factor": f})


def _gate_fallback(c: FormCandidate, cfg: SearchConfig, algorithm: str, gate: str) -> Verdict:
    if c.p <= cfg.oracle_bound:
        return _oracle_verdict(c.p)
    reason = f"{gate} applicability gate fails and p exceeds the oracle bound"
    return Verdict(NOT_APPLICABLE, algorithm, {"type": "gate-failure", "gate": gate, "reason": reason})


def _factor_verdict(algorithm: str, exc: FactorFound, stage: str, iterations: int = 1) -> Verdict:
    cert = {"type": "factor", "divisor": exc.divisor, "stage": stage}
    return Verdict(COMPOSITE, algorithm, cert, iterations=iterations)


def _sequence_certificate(
    m: int, outcome: SequenceOutcome, x0: int, base_point: Point | None = None
) -> dict:
    """What replay needs to recompute the chain: the chain itself is left out."""
    cert = {"type": "sequence", "m": m, "x0": x0, "outcome": outcome.kind}
    if outcome.step is not None:
        cert["step"] = outcome.step
    if outcome.divisor is not None:
        cert["divisor"] = outcome.divisor
    if outcome.residue is not None:
        cert["residue"] = outcome.residue
    if base_point is not None:
        cert["base_point"] = [base_point.x, base_point.y]
    return cert


def _probable_prime(q: int, cfg: SearchConfig) -> bool:
    """Primality of a cofactor: exact while trial division stays cheap
    (the oracle bound, and in any case up to 10^6), Miller-Rabin above."""
    if q < 2:
        return False
    if q == 2:
        return True
    if q % 2 == 0:
        return False
    if q <= max(cfg.oracle_bound, 10**6):
        return is_prime_oracle(q)
    return miller_rabin(q)


def test_small_n(c: FormCandidate, cfg: SearchConfig = DEFAULT_CONFIG) -> Verdict:
    """Small-n route: prime iff the k-step sequence from n*Q' ends in zero.

    Composite exits: a divisor surfaces anywhere (witnessed), n*Q' is
    already infinity, the sequence vanishes early, or the final value is
    nonzero.  The gate makes the prime conclusion unconditional.
    """
    algorithm = "small-n"
    if not gate_small_n(c):
        return _gate_fallback(c, cfg, algorithm, "small-n")
    p = c.p
    try:
        m, base = construct_curve_point(p, cfg)
    except FactorFound as exc:
        return _factor_verdict(algorithm, exc, "parameter-scan")
    except ScanExhausted as exc:
        return Verdict(INCONCLUSIVE, algorithm, {"type": "scan-exhausted", "detail": str(exc)})
    curve = Curve(p, m)
    try:
        start = scalar_mul(curve, c.n, base)
    except FactorFound as exc:
        return _factor_verdict(algorithm, exc, "scalar-multiplication")
    if start.is_infinity:
        cert = {"type": "vanished-multiple", "m": m, "base_point": [base.x, base.y]}
        return Verdict(COMPOSITE, algorithm, cert)
    outcome = chain_outcome(p, m, start.x, c.k, four_factor=True)
    cert = _sequence_certificate(m, outcome, start.x, base)
    status = PRIME if outcome.kind == FINAL_ZERO else COMPOSITE
    return Verdict(status, algorithm, cert)


def test_mersenne(k: int) -> Verdict:
    """Mersenne route for M_k = 2^k - 1, k >= 3: no curve search at all.

    The fixed start x_0 = -1 on y^2 = x^3 - 3x is valid for every exponent,
    so the verdict is the sequence classification directly.
    """
    if k < 3:
        raise ValueError("Mersenne exponent must be at least 3")
    p = (1 << k) - 1
    outcome = chain_outcome(p, 3, p - 1, k, four_factor=False)
    cert = _sequence_certificate(3, outcome, p - 1)
    status = PRIME if outcome.kind == FINAL_ZERO else COMPOSITE
    return Verdict(status, "mersenne", cert)


def test_large_n(c: FormCandidate, cfg: SearchConfig = DEFAULT_CONFIG) -> Verdict:
    """Order route for n = q_1 * ... * q_r with every q_i prime.

    The factors are c.n_factors, or n itself when none are supplied.  With
    D = 2^k * Q, p is prime iff n * D = infinity while (n/q) * D is finite
    for each distinct q: D then has order exactly n modulo every prime
    divisor of p, and the gate puts n above the Hasse bound of any divisor
    below sqrt(p) (Goldwasser-Kilian).  An infinite (n/q) * D (for one
    factor, D itself) decides nothing, so the scan moves to the next y;
    after retry_cap such misses the test gives up as inconclusive rather
    than looping forever.  The paper's large-prime-n and two-prime-n tests
    are the one- and two-factor cases.
    """
    if not gate_large_n(c):
        return _gate_fallback(c, cfg, "large-n", "large-n")
    factors = c.n_factors or (c.n,)
    for q in factors:
        if not _probable_prime(q, cfg):
            raise ValueError(f"factor {q} of n is not prime")
    return _order_route(c, factors, cfg)


def _order_route(c: FormCandidate, factors: tuple[int, ...], cfg: SearchConfig) -> Verdict:
    """test_large_n once the gate has passed and every factor is known prime."""
    algorithm = "large-n"
    cofactors = [c.n // q for q in dict.fromkeys(factors)]
    p = c.p
    attempts = 0
    try:
        for m, base in islice(_curve_point_candidates(p, cfg), cfg.retry_cap):
            attempts += 1
            curve = Curve(p, m)
            doubled = scalar_mul(curve, 1 << c.k, base)
            if any(scalar_mul(curve, s, doubled).is_infinity for s in cofactors):
                continue
            result = scalar_mul(curve, c.n, doubled)
            cert = {
                "type": "order",
                "m": m,
                "base_point": [base.x, base.y],
                "factors": list(factors),
            }
            status = PRIME if result.is_infinity else COMPOSITE
            return Verdict(status, algorithm, cert, iterations=attempts)
    except FactorFound as exc:
        stage = "parameter-scan" if attempts == 0 else "scalar-multiplication"
        return _factor_verdict(algorithm, exc, stage, iterations=max(attempts, 1))
    cert = {"type": "retries-exhausted", "attempts": attempts}
    return Verdict(INCONCLUSIVE, algorithm, cert, iterations=max(attempts, 1))


def auto_test(c: FormCandidate, cfg: SearchConfig = DEFAULT_CONFIG) -> Verdict:
    """Route a candidate to the one applicable test.

    n = 1 goes to the Mersenne path; a passing small-n gate wins next;
    otherwise prime n, or n supplied with its prime factorization, uses the
    large-n path.  With no route left, small p is settled by trial division
    and anything else is not applicable.
    """
    if c.n == 1 and c.k >= 3:
        return test_mersenne(c.k)
    if gate_small_n(c):
        return test_small_n(c, cfg)
    if gate_large_n(c) and c.n > 1:
        factors = c.n_factors or (c.n,)
        if all(_probable_prime(q, cfg) for q in factors):
            return _order_route(c, factors, cfg)
    if c.p <= cfg.oracle_bound:
        return _oracle_verdict(c.p)
    reason = "no applicable route: gates fail or n needs an unavailable factorization"
    return Verdict(NOT_APPLICABLE, "auto", {"type": "gate-failure", "gate": "dispatch", "reason": reason})


# --- independent certificate replay -------------------------------------

def _replay_chain(p: int, m: int, x: int, k: int, c_const: int) -> dict:
    """Recompute the k-step chain from x and return the outcome fields
    (outcome plus step, divisor or residue) its certificate must carry."""
    last = double_x_only_chain(Curve(p, m), x, k - 1)
    if isinstance(last, ChainFailure):
        # S_i with i < k is not a unit: it vanishes, or shares a factor with p
        if last.divisor == p:
            return {"outcome": EARLY_INFINITY, "step": last.step}
        return {"outcome": GCD_HIT, "step": last.step, "divisor": last.divisor}
    s = c_const * last * ((last * last - m) % p) % p
    return {"outcome": FINAL_ZERO} if s == 0 else {"outcome": FINAL_NONZERO, "residue": s}


def _replay_constructed_point(p: int, m: int, base: Point) -> bool:
    """The jacobi conditions that make the constructed point usable."""
    if base.is_infinity or not (0 < m < p and 0 <= base.x < p and 0 <= base.y < p):
        return False
    curve = Curve(p, m)
    return (
        jacobi(base.x, p) == -1
        and jacobi(m, p) == -1
        and on_curve(curve, base)
    )


def replay_verdict(c: FormCandidate, verdict: Verdict, cfg: SearchConfig = DEFAULT_CONFIG) -> bool:
    """Re-validate a verdict's certificate from scratch.

    Uses only the integer and curve layers (no test or sequence code), so a
    passing replay is independent evidence for the recorded conclusion.
    Every chain step and every multiple is recomputed; the multipliers
    (n, 2^k, n/q) come from the candidate, never from the certificate.
    Inconclusive and not-applicable verdicts carry nothing decidable and
    are accepted structurally.
    """
    try:
        return _replay(c, verdict, cfg)
    except (FactorFound, ValueError, KeyError, IndexError, TypeError):
        return False


def _replay(c: FormCandidate, verdict: Verdict, cfg: SearchConfig) -> bool:
    cert = verdict.certificate
    status = verdict.status
    kind = cert.get("type")
    p = c.p

    if status in (INCONCLUSIVE, NOT_APPLICABLE):
        return kind in ("gate-failure", "retries-exhausted", "scan-exhausted")
    if status not in (PRIME, COMPOSITE):
        return False

    if kind == "factor":
        d = cert["divisor"]
        return status == COMPOSITE and 1 < d < p and p % d == 0

    if kind == "oracle":
        f = trial_division(p)
        if cert["least_factor"] != f:
            return False
        return status == (PRIME if f == p else COMPOSITE)

    if kind == "vanished-multiple":
        m = cert["m"]
        base = Point(*cert["base_point"])
        return (
            status == COMPOSITE
            and verdict.algorithm == "small-n"
            and _replay_constructed_point(p, m, base)
            and scalar_mul(Curve(p, m), c.n, base).is_infinity
        )

    if kind == "sequence":
        m, x0 = cert["m"], cert["x0"]
        expected = {"type": "sequence", "m": m, "x0": x0}
        if verdict.algorithm == "mersenne":
            if c.n != 1 or c.k < 3 or m != 3 or x0 != p - 1:
                return False
            c_const = 1
        elif verdict.algorithm == "small-n":
            base = Point(*cert["base_point"])
            if not _replay_constructed_point(p, m, base):
                return False
            start = scalar_mul(Curve(p, m), c.n, base)
            if start.is_infinity or start.x != x0:
                return False
            if status == PRIME and not gate_small_n(c):
                return False
            expected["base_point"] = [base.x, base.y]
            c_const = 4
        else:
            return False
        expected.update(_replay_chain(p, m, x0, c.k, c_const))
        if cert != expected:
            return False
        return status == (PRIME if expected["outcome"] == FINAL_ZERO else COMPOSITE)

    if kind == "order":
        m = cert["m"]
        base = Point(*cert["base_point"])
        factors = cert["factors"]
        if verdict.algorithm != "large-n" or prod(factors) != c.n:
            return False
        if not all(_probable_prime(q, cfg) for q in factors):
            return False
        if not _replay_constructed_point(p, m, base):
            return False
        curve = Curve(p, m)
        doubled = scalar_mul(curve, 1 << c.k, base)
        if any(scalar_mul(curve, c.n // q, doubled).is_infinity for q in set(factors)):
            return False
        if status == PRIME and not gate_large_n(c):
            return False
        return status == (PRIME if scalar_mul(curve, c.n, doubled).is_infinity else COMPOSITE)

    return False
