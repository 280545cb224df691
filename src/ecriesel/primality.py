"""Decision procedures for p = 2^k * n - 1 and their replayable certificates.

auto_test, the one decide entry, runs the sieve on p (_sieve_divisor: a
prime factor up to 13 by the presieve, and for p = M_k with k a prime of
at least numtheory.MERSENNE_TRIAL_MIN_K its least prime factor below k^2 / 4
by numtheory.mersenne_trial_factor, is a sieve verdict), then one strong
test of p to base WITNESS_BASE = 3 (a witness proves p composite at any
size, Miller 1976, Rabin 1980; base 2 witnesses no M_k of prime k; on
p = c 2^k - 1 of a numtheory.fold_shape it is one pow(3, c, p) and k - 1
folded squarings, elsewhere one modular power), then the first corner
that applies, on E: y^2 = x^3 + x, the paper's y^2 = x^3 - m x at
m = -1, a non-residue mod p = 3 (mod 4) (every other such curve is
isomorphic to E by x -> x / lambda, lambda^2 = -m).  With no corner,
_fallback decides p by the exact oracle below PSI_13, or reports
not-applicable.

The corners are one order criterion (Goldwasser-Kilian 1999, Atkin-Morain
1993): let s | p + 1, and R a point with s R = O and (s/l) R finite for
each prime l | s.  Mod each prime l | p, x(R) lifts to E or its twist,
where R has order s, so Hasse gives s <= (sqrt(l) + 1)^2; numtheory.gate
proves s > (p^(1/4) + 1)^2, so l > sqrt(p), and p is prime.  _evaluate
takes attempt a and F, the product of the given primes of n:

  * with the chain, s = 2^k F and x(Q) = start_x(p, a).  The k-step
    x-only chain from x(n Q) ending in zero gives n Q order 2^k mod each
    l, so R = (n/F) Q has s R = 2^k n Q = O and (s/2) R finite; each
    distinct q | F then needs (s/q) R = (n/q) D finite, D = 2^k Q.  The
    small-n corner is F = 1 (n = 1 included), the mixed corner F > 1;
  * without the chain (large-n), s = F = n, x(Q) = -(a + 1), skipping
    x = 0 and +-1 (orders 2 and 4), R = D, each (n/q) D must be finite,
    and the last ladder proves n D = O (final-zero).

_corner tries small-n (gate at 2^k), large-n (F from c.n_factors or n
itself), then mixed (F from c.n_factors, else n's prime factors up to
SIEVE_BOUND, and n's cofactor when those fail the gate and it is a
probable prime).  A mixed record is algorithm small-n with factors.

D = 2^k Q comes from k doublings and one gcd of their end Z, each (n/q) D
from the ecring ladder from x(D), made affine by one inversion; no route
scans a point, forms a y or runs scalar_mul.  A zero symbol before
start_x's u, or a proper gcd of p met later (D's end Z, a ladder's end Z,
an X made affine), is a factor record, the divisor alone.  A Z of D or of
some (n/q) D that vanishes mod p declines the attempt, and a + 1 goes
next, up to RETRY_CAP; an x(D) that vanishes is composite, as no point of
odd order has x = 0 mod a prime.  A base-3 strong pseudoprime (703 =
2^6 * 11 - 1) still meets these.

Complete.  For a prime p, E(F_p) is cyclic of order 2^k n (fact 2 of
oracle at m = -1), and its twist is E through x -> -x, so every x is the
x of a point Q of E.  From x = u or -u, x (x^2 + 1) is a square and
x^2 + 1 = u^2 + 1, so (x/p) = -1: Q's order is divisible by 2^k (fact 3),
and the chain ends in zero, so small-n never declines (the doubling map
and the ladder are odd in x).  D's order divides n, so each Z is a unit
or zero mod p: an attempt declines only when Q's order misses some q | F.
Verdict is an immutable named tuple.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, prod

from .ecring import FactorFound, Point, double_x_only_chain
from .ecring import scalar_mul  # noqa: F401  (perfbench/tracing.py wraps it here)
from .numtheory import (
    ORACLE_BASES,
    PSI_13,
    SIEVE_BOUND,
    TRIAL_LIMIT,
    FormCandidate,
    _odd_primes,
    gate,
    is_prime_oracle,
    jacobi,
    miller_rabin,
    sieve_divisors,
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
# Most attempts a curve route makes before it gives up.
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


def sieve_verdict(divisor: int) -> Verdict:
    """The composite verdict of a prime factor the sieve found."""
    return Verdict(COMPOSITE, "sieve", {"type": "factor", "divisor": divisor})


# No corner applies and the oracle stops below p: nothing decides p.
_DISPATCH = Verdict(NOT_APPLICABLE, "auto", {"type": "gate-failure"})

# The verdict of a strong witness: the oracle's certificate, with the base.
_WITNESSED = Verdict(COMPOSITE, "miller-rabin", {"type": "oracle", "witness": WITNESS_BASE})


def _sieve_divisor(c: FormCandidate) -> int | None:
    """sieve_divisors on c's one n (search runs it on its whole range):
    p's least prime factor up to 13, else M_k's trial factor."""
    return sieve_divisors(c.k, range(c.n, c.n + 1, 2)).get(c.n)


def _given(c: FormCandidate, give_up: Verdict) -> Verdict:
    """give_up, naming the factors of n given with c, for replay to check."""
    return give_up if c.n_factors is None else give_up._replace(
        certificate={**give_up.certificate, "factors": list(c.n_factors)})


def _fallback(c: FormCandidate) -> Verdict:
    """The verdict when no corner applies to c: the exact oracle's below
    PSI_13, otherwise not-applicable at dispatch."""
    return _oracle_verdict(c.p) or _given(c, _DISPATCH)


def _probable_prime(q: int) -> bool:
    """Primality of a factor of n: exact below PSI_13 (is_prime_oracle),
    12-base Miller-Rabin at and above it, so a prime verdict resting on
    such a factor is conditional on that test."""
    prime = is_prime_oracle(q)
    return miller_rabin(q) if prime is None else prime


def _applies(c: FormCandidate, factors, chain: bool) -> bool:
    """Whether the corner of these factors of n applies to c: their product F
    divides n with the chain (s = 2^k F) or is n without it (s = F), the gate
    holds at s, and every factor is a probable prime."""
    f = prod(factors)
    if not (c.n % f == 0 if chain else f == c.n):
        return False
    return gate(c, f << c.k if chain else f) and all(_probable_prime(q) for q in factors)


def _corner(c: FormCandidate) -> tuple[tuple[int, ...] | list[int], bool] | None:
    """(factors, chain) of the first corner that applies to c: small-n,
    large-n, then mixed; None when none does.  Mixed takes c.n_factors,
    else n's prime factors up to SIEVE_BOUND with multiplicity, and n's
    cofactor when their s fails the gate (_applies then tests it)."""
    if gate(c, 1 << c.k):
        return (), True
    factors = c.n_factors or (c.n,)
    if _applies(c, factors, False):
        return factors, False
    if c.n_factors is None:
        factors, m = [], c.n
        for q in _odd_primes(SIEVE_BOUND):
            if q > m:
                break
            while m % q == 0:
                factors.append(q)
                m //= q
        if m > 1 and not gate(c, prod(factors) << c.k):
            factors.append(m)
    return (factors, True) if _applies(c, factors, True) else None


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


# --- the evaluator, for deciding and replay --------------------------------

def _evaluate(c: FormCandidate, a: int, factors: tuple[int, ...] | list[int],
              chain: bool) -> Verdict | None:
    """Attempt a's verdict, iterations a, for s = 2^k prod(factors) with the
    chain, s = prod(factors) = n without (module docstring); None: declined."""
    p = c.p
    algorithm = "small-n" if chain else "large-n"
    try:
        if chain:
            x = start_x(p, a)
            outcome = chain_outcome(p, x, c.k, c.n)
            cert = {key: value for key, value in zip(("outcome", "divisor"), outcome)
                    if value is not None}
            cert["type"] = "sequence"
            if factors:
                cert["factors"] = list(factors)
            if outcome.kind != FINAL_ZERO or not factors:
                return Verdict(PRIME if outcome.kind == FINAL_ZERO else COMPOSITE, algorithm,
                               cert, a)
        else:
            x = -(a + 1)
            cert = {"type": "order", "outcome": FINAL_NONZERO}
            if len(factors) > 1:  # one factor is n itself, which replay takes
                cert["factors"] = list(factors)
        end = double_x_only_chain(p, x, c.k)
        if _vanishes(end[1], p):
            return None
        x = _affine_x(end, p)
        if x is None:  # D of order 2 (never after a chain that ended in zero)
            return Verdict(COMPOSITE, algorithm, cert, a)
        for q in dict.fromkeys(factors):
            multiple = double_x_only_chain(p, x, 0, c.n // q)
            if _vanishes(multiple[1], p):
                return None
        if not chain:
            # q * ((n/q) * D) = n * D for the last q
            x = _affine_x(multiple, p)
            if x is not None and _vanishes(double_x_only_chain(p, x, 0, q)[1], p):
                cert["outcome"] = FINAL_ZERO
    except FactorFound as exc:
        return Verdict(COMPOSITE, algorithm, {"type": "factor", "divisor": exc.divisor}, a)
    return Verdict(PRIME if cert["outcome"] == FINAL_ZERO else COMPOSITE, algorithm, cert, a)


# --- deciding: dispatch, retries and fallback --------------------------------

def _curve_route(c: FormCandidate, factors: tuple[int, ...] | list[int], chain: bool) -> Verdict:
    """The first verdict _evaluate gives for a = 1 .. RETRY_CAP, else
    retries-exhausted."""
    for a in range(1, RETRY_CAP + 1):
        verdict = _evaluate(c, a, factors, chain)
        if verdict is not None:
            return verdict
    return _given(c, Verdict(INCONCLUSIVE, "small-n" if chain else "large-n",
                             {"type": "retries-exhausted"}, RETRY_CAP))


def test_mersenne(k: int) -> Verdict:
    """auto_test on M_k = 2^k - 1, k >= 3: small-n from k = 4 on."""
    if k < 3:
        raise ValueError("Mersenne exponent must be at least 3")
    return auto_test(FormCandidate(k=k, n=1))


def auto_test(c: FormCandidate) -> Verdict:
    """Decide c (see the module docstring): a sieve verdict when
    _sieve_divisor finds a prime factor of p, else decide_unsieved."""
    divisor = _sieve_divisor(c)
    return decide_unsieved(c) if divisor is None else sieve_verdict(divisor)


def decide_unsieved(c: FormCandidate) -> Verdict:
    """auto_test on a c whose p the sieve found no factor of (search
    presieves its whole range, and trial-factors M_k, first): composite
    on a strong witness to WITNESS_BASE, else the first corner that
    applies, else _fallback."""
    if not miller_rabin(c.p, (WITNESS_BASE,)):
        return _WITNESSED
    corner = _corner(c)
    return _fallback(c) if corner is None else _curve_route(c, *corner)


# --- certificate replay ----------------------------------------------------

def replay_verdict(c: FormCandidate, verdict: Verdict) -> bool:
    """Re-validate a verdict's certificate from scratch.

    A witness record (composite, miller-rabin, witness WITNESS_BASE) is
    valid iff the sieve finds no factor of p and WITNESS_BASE witnesses
    p: one presieve (and for M_k its trial factoring) and the same strong
    test (one pow(3, c, p) and k - 1 folded squarings where p has a
    numtheory.fold_shape, one modular power elsewhere).  Any other record
    that is neither prime nor a sieve verdict needs p past both, as
    auto_test stops at either.  A factor record (type and divisor alone,
    on sieve, small-n or large-n) needs its divisor to be a proper divisor
    of p; where the gate at 2^k holds, deciding takes the small-n corner
    (with or without given factors), which never declines, so there it
    needs small-n at iterations 1.  Any other curve record needs _applies
    for its factors (none on the small-n corner, whose a is 1; a large-n
    record with no factors has the one factor n, which _evaluate leaves
    out, so one that names [n] is INVALID) and _evaluate at a = iterations
    to give its status, algorithm and certificate; no retry, fallback or
    dispatch runs (run_sequence, scalar_mul, the oracle and the
    differential tests are the evaluator's references).  A give-up is
    valid only as auto_test makes it for the factors it names (those
    given with --q): not-applicable, with no walk, for p >= PSI_13 when no
    corner applies; retries-exhausted as _curve_route gives it on the
    first corner that applies, where every attempt a = 1 .. RETRY_CAP
    declines: at most the walks deciding made.
    """
    try:
        return _replay(c, verdict)
    except (FactorFound, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError):
        return False


def _passed_witness(c: FormCandidate) -> bool:
    """Whether auto_test takes c past its sieve and its witness test."""
    return _sieve_divisor(c) is None and miller_rabin(c.p, (WITNESS_BASE,))


def _replay(c: FormCandidate, verdict: Verdict) -> bool:
    cert = verdict.certificate
    status = verdict.status
    algorithm = verdict.algorithm
    p = c.p

    if verdict == _WITNESSED:
        return _sieve_divisor(c) is None and not miller_rabin(p, (WITNESS_BASE,))
    if status in (NOT_APPLICABLE, INCONCLUSIVE):
        if "factors" in cert:
            c = FormCandidate(c.k, c.n, tuple(cert["factors"]))
        if status == NOT_APPLICABLE:
            return (verdict == _given(c, _DISPATCH) and p >= PSI_13 and _passed_witness(c)
                    and _corner(c) is None)
        corner = _corner(c)
        return corner is not None and _passed_witness(c) and verdict == _curve_route(c, *corner)
    if status not in (PRIME, COMPOSITE):
        return False
    if not 1 <= verdict.iterations <= (RETRY_CAP if algorithm in ("small-n", "large-n") else 1):
        return False
    if status == COMPOSITE and algorithm != "sieve" and not _passed_witness(c):
        return False

    if cert.get("type") == "factor":
        d = cert["divisor"]
        return (
            status == COMPOSITE
            and cert.keys() == {"type", "divisor"}
            and algorithm in ("sieve", "small-n", "large-n")
            and not ((algorithm == "large-n"
                      or (algorithm == "small-n" and verdict.iterations > 1))
                     and gate(c, 1 << c.k))
            and 1 < d < p
            and p % d == 0
        )

    if algorithm in ("trial-division", "miller-rabin"):
        expected = _oracle_verdict(p)
    elif algorithm in ("small-n", "large-n"):
        # the small-n corner, with no factors, never declines; large-n's
        # one factor n goes unwritten
        chain = algorithm == "small-n"
        factors = cert.get("factors", () if chain else (c.n,))
        if not _applies(c, factors, chain) or verdict.iterations > (RETRY_CAP if factors else 1):
            return False
        expected = _evaluate(c, verdict.iterations, factors, chain)
    else:
        return False
    return expected is not None and (
        (expected.status, expected.algorithm, expected.certificate) == (status, algorithm, cert)
    )
