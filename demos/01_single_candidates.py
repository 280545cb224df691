"""
Testing single candidates 2^k * n - 1
=====================================

A tour of the two decision routes and what their verdicts carry.
Run as: python demos/01_single_candidates.py
"""

from ecriesel import (
    Curve,
    FormCandidate,
    Point,
    auto_test,
    factor_witness,
    jacobi,
    replay_verdict,
    run_sequence,
    scalar_mul,
)
from ecriesel.sequence import start_x

# Each candidate is carried as its decomposition (k, n); p is derived.
# The dispatcher picks a route from the applicability gates, so the same
# call covers both algorithms (plus trial division for tiny p).  A Mersenne
# number is the small-n route's n = 1 case.
candidates = [
    FormCandidate(k=13, n=1),                            # Mersenne M_13 = 8191
    FormCandidate(k=7, n=3),                             # small n: p = 383
    FormCandidate(k=8, n=7),                             # small n, composite p = 1791
    FormCandidate(k=2, n=2633),                          # n prime:  p = 10531
    FormCandidate(k=2, n=2503),                          # n prime:  p = 10011 = 3*47*71
    FormCandidate(k=2, n=250127, n_factors=(389, 643)),  # n = q1*q2: p = 1000507
    FormCandidate(k=2, n=105, n_factors=(3, 5, 7)),      # n = 3*5*7:  p = 419
]

for c in candidates:
    verdict = auto_test(c)
    line = f"k={c.k:>2} n={c.n:>6}  p={c.p:>8}  ->  {verdict.status:<9} via {verdict.algorithm}"
    witness = factor_witness(verdict)
    if witness is not None:
        line += f"  (divisor {witness})"
    print(line)

    # every prime/composite verdict ships a certificate that an
    # independent routine can re-check from scratch
    assert replay_verdict(c, verdict)

print("\nAll verdicts replayed successfully.")

# A closer look at one certificate: both routes walk the one curve
# y^2 = x^3 + x, and the small-n route records only where the chain
# ended.  Everything else is derived, by replay and by anyone else: u, the
# least u >= 2 with ((u^2 + 1)/p) = -1; the point Q of the curve with
# x = u or -u, whichever is a non-residue (then x^3 + x is a square); the
# chain's start x0 = x(n*Q); and the chain itself.  Deciding never forms
# y: it takes x0 from an x-only ladder from u, whose walk vanishes as the
# one from -u does.
c = FormCandidate(k=7, n=3)
verdict = auto_test(c)
cert = verdict.certificate
u = start_x(c.p, 1)
x = u if jacobi(u, c.p) == -1 else c.p - u
base = Point(x, pow(x * (x * x + 1), (c.p + 1) // 4, c.p))
start = scalar_mul(Curve(c.p, -1), c.n, base)
_, trace = run_sequence(c.p, -1, start.x, c.k)
print(f"\nCertificate for p = {c.p}: {cert}")
print(f"  curve      : y^2 = x^3 + x  (mod {c.p})")
print(f"  start u    : {u}  (from Jacobi symbols of u^2 + 1)")
print(f"  point Q    : {tuple(base)}, multiplied by n = {c.n}")
print(f"  x0         : {start.x}  (derived)")
print(f"  outcome    : {cert['outcome']}  (zero at step k justifies 'prime')")
print(f"  S chain    : {list(trace.s_values)}  (recomputed)")

# The large-n route records the factors of n and where its order check
# ended.  Its point is x(Q) = -(a + 1) for the first a whose check
# decides, and the record's iterations is that a: here x(Q) = -2 .. -5
# leave some (n/q) * D at infinity, so they decide nothing, and
# x(Q) = -6 proves p.
c = FormCandidate(k=2, n=237, n_factors=(3, 79))
verdict = auto_test(c)
print(f"\nCertificate for p = {c.p}: {verdict.certificate}")
print(f"  point      : x(Q) = -{verdict.iterations + 1}  (D = 2^{c.k} * Q has order n = {c.n})")
assert replay_verdict(c, verdict)
