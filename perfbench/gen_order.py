"""Regenerate the order-route candidate pool, perfbench/order_pool.json.

Finding a prime p = 2^512 * q - 1 with q prime takes seconds to minutes of
pure-Python Miller-Rabin, so the pool is generated once from a fixed seed,
checked in, and re-checked (not regenerated) when a run loads it.  Each
benchmark seed then picks its candidates from the pool.

    python3 perfbench/gen_order.py
    git diff --exit-code perfbench/order_pool.json   # unchanged?

Every candidate has k = 512, n > 2^(k+3) (so the small-n gate fails and
the large-n gate holds) and a p with no prime factor below 1000.  Kinds:

    large-prime   n = q prime                 (test k q)
    two-prime     n = q1 * q2, both prime     (test k n --q1 q1 --q2 q2)

each with p prime and with p composite.  The p classification is 12-base
Miller-Rabin: exact for composites, probable for primes.  About a third of
the composites expose a divisor of p inside scalar_mul and end on a cheap
`factor` certificate instead of an `order` one; the pool records which
(`cert`, found by running the route once) so that every benchmark seed can
take the same mix and cost the same.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "order_pool.json"

K = 512
GEN_SEED = 2009
# pool entries per (kind, p_prime); composites split further by `cert`
COUNTS = {("large-prime", True): 6, ("large-prime", False): 9,
          ("two-prime", True): 4, ("two-prime", False): 6}
SMALL_PRIMES = [ell for ell in range(3, 1000, 2) if all(ell % d for d in range(3, int(ell**0.5) + 1, 2))]
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """12-base strong probable-prime test, the benchmark's own, so that its
    ground truth does not come from the code it measures."""
    if n < 2:
        return False
    for ell in (2,) + tuple(SMALL_PRIMES):
        if n % ell == 0:
            return n == ell
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rough(x: int) -> bool:
    """No prime factor below 1000 (x odd)."""
    return all(x % ell for ell in SMALL_PRIMES)


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        q = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if rough(q) and is_probable_prime(q):
            return q


def _find(rng: random.Random, kind: str, want_prime: bool) -> dict:
    while True:
        if kind == "large-prime":
            q = _random_prime(rng, K + 4)
            n, entry = q, {"kind": kind, "q": str(q)}
        else:
            q1 = _random_prime(rng, K // 2 + 3)
            q2 = _random_prime(rng, K // 2 + 3)
            if q1 == q2:
                continue
            n, entry = q1 * q2, {"kind": kind, "q1": str(q1), "q2": str(q2)}
        if n <= 1 << (K + 3):
            continue
        p = (n << K) - 1
        if rough(p) and is_probable_prime(p) == want_prime:
            entry["p_prime"] = want_prime
            return entry


def generate() -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    from ecriesel import FormCandidate, auto_test

    rng = random.Random(GEN_SEED)
    candidates = []
    for (kind, want_prime), count in COUNTS.items():
        for _ in range(count):
            entry = _find(rng, kind, want_prime)
            if kind == "large-prime":
                c = FormCandidate(k=K, n=int(entry["q"]))
            else:
                q1, q2 = int(entry["q1"]), int(entry["q2"])
                c = FormCandidate(k=K, n=q1 * q2, n_factors=(q1, q2))
            entry["cert"] = auto_test(c).certificate["type"]
            candidates.append(entry)
    return {"k": K, "gen_seed": GEN_SEED, "candidates": candidates}


def main() -> int:
    pool = generate()
    POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(pool['candidates'])} candidates to {POOL_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
