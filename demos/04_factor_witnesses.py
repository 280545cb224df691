"""
Composite verdicts that hand you a divisor
==========================================

Curve formulas over Z_N divide by chord and tangent denominators.  When N
is composite, a denominator can share a factor with N; instead of failing,
the arithmetic layer surfaces that divisor, and the verdict carries it as
a machine-checkable witness.

Run as: python demos/04_factor_witnesses.py
"""

from ecriesel import (
    Curve,
    FactorFound,
    FormCandidate,
    Point,
    add,
    auto_test,
    factor_witness,
    replay_verdict,
)

# The raw mechanism: adding points whose x-difference shares a factor
# with the modulus cannot be completed, and says why.
curve = Curve(15, 1)
try:
    add(curve, Point(2, 1), Point(7, 2))
except FactorFound as exc:
    print(f"chord denominator over Z_15: gcd({7 - 2}, 15) -> divisor {exc.divisor}\n")

# The same side-channel at the verdict level.  Deciding runs the presieve
# and one strong test to base 3 before any curve, so most composites end
# there; p = 1772611 = 31 * 211 * 271 is a base-3 strong pseudoprime, and
# the large-n walk catches it with a divisor in hand.
print("candidate                  verdict     via       divisor   p / divisor")
for k, n in ((8, 7), (4, 1), (5, 9), (2, 443153), (2, 1043)):
    c = FormCandidate(k=k, n=n)
    verdict = auto_test(c)
    w = factor_witness(verdict)
    assert replay_verdict(c, verdict)
    head = f"k={k} n={n:<6} p={c.p:<10} {verdict.status:<11} {verdict.algorithm:<9}"
    if w is None:
        print(f"{head} (witness {verdict.certificate['witness']}, no divisor)")
        continue
    assert c.p % w == 0
    print(f"{head} {w:<9} {c.p // w}")

# Not every composite detection yields a divisor: an order-pattern failure
# or a nonzero final denominator proves compositeness without factoring.
# p = 16531 = 61 * 271 passes the strong test to base 3, so it reaches the
# order check.
c = FormCandidate(k=2, n=4133)
verdict = auto_test(c)
assert (verdict.algorithm, verdict.certificate) == ("large-n", {"outcome": "final-nonzero"})
assert factor_witness(verdict) is None
print(
    f"\nk=2 n=4133 p={c.p}: {verdict.status} via {verdict.algorithm}, "
    f"no divisor in hand; the recorded multiple of 2^k * Q failing to reach "
    f"infinity is the whole proof"
)
