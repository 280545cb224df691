"""
Mersenne numbers without a curve search
=======================================

M_k = 2^k - 1 is the small-n route's n = 1 case.  The curve is always
y^2 = x^3 + x, and the start x_0 is the least u >= 2 with
((u^2 + 1)/M_k) = -1, a few Jacobi symbols away, so the test collapses to
an x-only recursion, just like the classical squaring test it parallels.
A zero symbol on the way is a factor: 5 = 2^2 + 1 divides M_k when 4 | k.
Deciding runs the sieve (the primes up to 13, and from k = 65 on, for a
prime k, M_k's factors q = 2jk + 1 below k^2 / 4) and one strong test to
base 3 first, so a composite M_k ends there; the walk it skips still ends
nonzero, as the traced chain shows below.

Run as: python demos/02_mersenne_scan.py
"""

from ecriesel import FactorFound, lucas_lehmer, mersenne_sequence, test_mersenne

# The recursion for M_5 = 31, step by step, from x_0 = 4.  S_i is the
# doubling denominator; all steps coprime to p plus a final zero means prime.
outcome, trace = mersenne_sequence(5)
print("M_5 = 31:")
print(f"  x chain: {trace.x_values}")
print(f"  S chain: {trace.s_values}")
print(f"  outcome: {outcome.kind}\n")

# Scan a range and compare with the classical test on every exponent.
print("k    elliptic     classical    agree")
for k in range(3, 131):
    verdict = test_mersenne(k)
    classical = "prime" if lucas_lehmer(k) else "composite"
    agree = verdict.status == classical
    assert agree
    if verdict.status == "prime":
        print(f"{k:<5}{verdict.status:<13}{classical:<13}{agree}")

print("\nComposite exponents agree too (suppressed above); for example:")
for k in (4, 11, 21, 23, 29, 37, 73):  # 439 = 2 * 3 * 73 + 1 divides M_73
    verdict = test_mersenne(k)
    cert = verdict.certificate
    decided = (f"divisor {cert['divisor']}" if "divisor" in cert
               else f"witness {cert['witness']}")
    # the chain the sieve or the witness skipped, walked by the traced reference
    try:
        outcome, trace = mersenne_sequence(k)
    except FactorFound as exc:
        chain = f"start search meets divisor {exc.divisor}"
    else:
        chain = outcome.kind
        if outcome.kind == "gcd-hit":
            # the traced walk stops at the first S_i that is no unit
            chain += f" at step {trace.steps_completed}, divisor {outcome.divisor}"
    print(f"  M_{k}: {verdict.status} via {verdict.algorithm} ({decided}); chain: {chain}")
