"""Seeded inputs for the three workloads and the checks on their outputs.

A workload is a list of deciding CLI calls, each an argument vector plus
the candidates it decides.  The benchmark seed only chooses inputs;
the program sees nothing but the generated argument vectors.

Inputs are stratified so that every seed asks for about the same amount
of work: run-to-run spread then measures the program, not the draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from gen_order import POOL_PATH, is_probable_prime, rough

# Mersenne exponents: 1279 (M_1279 prime) always, plus one prime exponent
# from each window.  Every prime exponent in these windows runs the full
# k-step chain (none ends early), so the draw moves cost by a few percent.
MERSENNE_FIXED = 1279
MERSENNE_WINDOWS = ((1430, 1470), (1730, 1770))

SEARCH_K = 31
SEARCH_N_LOW = 1 << 15  # n_min drawn from [2^15, 2^16): p = 2^31 n - 1 < 2^48
SEARCH_WIDTH = 5_000  # 2500 odd n per window

# Order-route draw per seed: (kind, p_prime, certificate type) -> count.
ORDER_MIX = {
    ("large-prime", True, "order"): 2,
    ("large-prime", False, "order"): 1,
    ("large-prime", False, "factor"): 1,
    ("two-prime", True, "order"): 1,
    ("two-prime", False, "order"): 1,
}

NAMES = ("mersenne", "search", "order-route")


@dataclass(frozen=True)
class Candidate:
    k: int
    n: int
    factors: tuple[int, int] | None = None

    @property
    def p(self) -> int:
        return (self.n << self.k) - 1

    @property
    def key(self) -> str:
        return f"{self.k}/{self.n}"


@dataclass(frozen=True)
class Call:
    argv: list[str]
    candidates: list[Candidate]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    notes: list[str] = field(default_factory=list)
    # Decide passes per replay pass.  Search decides in a tenth of its
    # replay time; a median steadies with the time it spans, not with its
    # sample count, so search decides eight times per pass.
    decide_repeats: int = 1

    @property
    def candidates(self) -> list[Candidate]:
        return [c for call in self.calls for c in call.candidates]


def _primes_between(lo: int, hi: int) -> list[int]:
    return [x for x in range(lo | 1, hi, 2) if all(x % d for d in range(3, int(x**0.5) + 1, 2))]


def mersenne(seed: int) -> Workload:
    rng = random.Random(f"mersenne/{seed}")
    ks = [MERSENNE_FIXED] + [rng.choice(_primes_between(lo, hi)) for lo, hi in MERSENNE_WINDOWS]
    return Workload("mersenne", [Call(["mersenne", str(k), str(k), "--json"], [Candidate(k, 1)])
                                 for k in ks])


def search(seed: int) -> Workload:
    rng = random.Random(f"search/{seed}")
    n_min = rng.randrange(SEARCH_N_LOW, 2 * SEARCH_N_LOW) | 1
    n_max = n_min + SEARCH_WIDTH - 1
    argv = ["search", "--k", str(SEARCH_K), "--n-min", str(n_min), "--n-max", str(n_max),
            "--workers", "1", "--json"]
    cands = [Candidate(SEARCH_K, n) for n in range(n_min, n_max + 1, 2)]
    return Workload("search", [Call(argv, cands)], decide_repeats=8)


def order_route(seed: int) -> Workload:
    with open(POOL_PATH, encoding="utf-8") as fh:
        pool = json.load(fh)
    k = pool["k"]
    rng = random.Random(f"order-route/{seed}")
    calls = []
    for (kind, p_prime, cert), count in ORDER_MIX.items():
        stratum = [e for e in pool["candidates"]
                   if (e["kind"], e["p_prime"], e["cert"]) == (kind, p_prime, cert)]
        for entry in rng.sample(stratum, count):
            if kind == "large-prime":
                q = int(entry["q"])
                c = Candidate(k, q)
                argv = ["test", str(k), str(q), "--json"]
                cofactors = (q,)
            else:
                q1, q2 = int(entry["q1"]), int(entry["q2"])
                c = Candidate(k, q1 * q2, (q1, q2))
                argv = ["test", str(k), str(c.n), "--q1", str(q1), "--q2", str(q2), "--json"]
                cofactors = (q1, q2)
            # Re-check the cached entry: a corrupt pool must not pass as a
            # program failure or, worse, as a correct verdict.
            if not (all(is_probable_prime(q) for q in cofactors) and rough(c.p)
                    and is_probable_prime(c.p) == p_prime and c.n > 1 << (k + 3)):
                raise ValueError(f"order pool entry {entry} fails its re-check")
            calls.append(Call(argv, [c]))
    notes = ["order-route prime verdicts are conditional on 12-base Miller-Rabin of the "
             "cofactors q (q > psi_12), as the program's own certificates are"]
    return Workload("order-route", calls, notes)


BUILDERS = {"mersenne": mersenne, "search": search, "order-route": order_route}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def expected_prime(w: Workload, c: Candidate, lucas_lehmer) -> bool:
    """Ground truth: Lucas-Lehmer for Mersenne numbers, 12-base Miller-Rabin
    otherwise (exact below psi_12 ~ 3.2e23, which covers every search p;
    for order-route p it is exact on composites and probable on primes)."""
    if w.name == "mersenne":
        return lucas_lehmer(c.k)
    return is_probable_prime(c.p)

