"""Per-operation costs of the arithmetic layers at a workload's own moduli.

Spans around every modular inversion or chain step would cost more than
the step itself on 46-bit search moduli, so these layers are timed by
calling them directly on seeded operands at the moduli the workload
decides.  The operation counts are fixed per workload, so two commits
time the same work.  Each figure is the median of REPS passes.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

REPS = 5
MAX_MODULI = 64  # search has 2500 moduli; a seeded sample stands for them

# Operations per modulus: (arithmetic ops, chain steps, Miller-Rabin calls).
SIZES = {
    "mersenne": (40, 60, 1),
    "search": (400, 31, 20),
    "order-route": (100, 100, 1),
}
MR_REPS = 2  # one 12-base test of a Mersenne prime costs ~0.3 s


def _per_op(fn, ops: int, reps: int = REPS) -> float:
    """Median over passes of seconds per operation; fn runs one pass."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append((perf_counter() - start) / ops)
    return statistics.median(times)


def measure(workload, seed: int, api) -> dict[str, float]:
    """Micro figures, in the units their metric names carry."""
    rng = random.Random(f"layers/{workload.name}/{seed}")
    cands = list(workload.candidates)
    if len(cands) > MAX_MODULI:
        cands = rng.sample(cands, MAX_MODULI)
    n_ops, n_steps, n_mr = SIZES[workload.name]
    forms = [api.FormCandidate(k=c.k, n=c.n) for c in cands]
    operands = [[rng.randrange(2, c.p - 1) for _ in range(n_ops)] for c in cands]
    products = [[a * rng.randrange(2, c.p - 1) for a in row] for c, row in zip(cands, operands)]
    total_ops = n_ops * len(cands)

    def inversions():
        for c, row in zip(cands, operands):
            p = c.p
            for a in row:
                api.mod_inverse(a, p)

    def folds():
        for f, row in zip(forms, products):
            for t in row:
                api.reduce_special(t, f)

    def remainders():
        for c, row in zip(cands, products):
            p = c.p
            for t in row:
                r = t % p  # noqa: F841

    def symbols():
        for c, row in zip(cands, operands):
            p = c.p
            for a in row:
                api.jacobi(a, p)

    def gates():
        for f in forms:
            for _ in range(n_ops):
                api.gate_small_n(f)
                api.gate_large_n(f)

    # Cofactor checks: the large-n routes test n (and its factors); a
    # Mersenne candidate has no cofactor, so its p stands in.
    mr_targets = []
    for c in cands:
        mr_targets += list(c.factors) if c.factors else [c.n if c.n > 1 else c.p]

    def cofactor_checks():
        for q in mr_targets:
            for _ in range(n_mr):
                api.miller_rabin(q)

    starts = [rng.randrange(2, c.p - 1) for c in cands]

    def doublings():
        for c, x in zip(cands, starts):
            curve = api.Curve(c.p, 3)
            for _ in range(n_steps):
                try:
                    x = api.double_x_only(curve, x)
                except api.FactorFound:
                    x = None
                if x is None:  # hit infinity or a divisor: restart the chain
                    x = 2

    steps_done = []

    def chains():
        steps_done.clear()
        for c, x in zip(cands, starts):
            _, trace = api.run_sequence(c.p, 3, x, max(n_steps, 2))
            steps_done.append(trace.steps_completed)

    us = 1e6
    out = {
        "numtheory.mod_inverse.us": _per_op(inversions, total_ops) * us,
        "numtheory.reduce_special.us": _per_op(folds, total_ops) * us,
        "numtheory.mod_reduce.us": _per_op(remainders, total_ops) * us,
        "numtheory.jacobi.us": _per_op(symbols, total_ops) * us,
        "numtheory.gates.us": _per_op(gates, total_ops) * us,
        "numtheory.miller_rabin.ms": _per_op(cofactor_checks, len(mr_targets) * n_mr, MR_REPS) * 1e3,
        "ecring.double_x_only.us": _per_op(doublings, n_steps * len(cands)) * us,
    }
    chains()
    out["sequence.step.us"] = _per_op(chains, sum(steps_done)) * us
    return out
