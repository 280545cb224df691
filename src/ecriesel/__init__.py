"""Elliptic-curve primality tests for integers of the form 2^k * n - 1.

The public surface, bottom up: exact integer arithmetic and classical
baselines (`numtheory`), pseudo-curve arithmetic over Z_N with the factor
side-channel (`ecring`), the iterated-doubling denominator sequence
(`sequence`), the decision procedures and certificate replay (`primality`),
a brute-force group-structure oracle for small primes (`oracle`), and the
command-line front end (`cli`).

The value types (Curve, Point, FormCandidate, InverseOutcome, SequenceOutcome,
STrace, Verdict, GroupStructure) are immutable collections.namedtuple
subclasses, not dataclasses, so importing the package loads neither
dataclasses nor inspect.  Each equals any tuple of the same fields;
_replace skips the ValueError checks of __new__.
"""

__version__ = "0.1.0"

from .ecring import (
    INFINITY,
    Curve,
    FactorFound,
    Point,
    add,
    double,
    double_x_only,
    double_x_only_chain,
    on_curve,
    scalar_mul,
)
from .numtheory import (
    MR_DEFAULT_BASES,
    ORACLE_LIMIT,
    FormCandidate,
    InverseOutcome,
    bpsw,
    gate_large_n,
    gate_small_n,
    iroot4,
    is_prime_oracle,
    isqrt,
    jacobi,
    lucas_lehmer,
    miller_rabin,
    mod_inverse,
    reduce_special,
    sieve_primes,
    trial_division,
)
from .oracle import (
    CYCLIC,
    PRODUCT_OF_TWO,
    GroupStructure,
    enumerate_points,
    group_structure,
    point_order,
    verify_theorems,
)
from .primality import (
    COMPOSITE,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    PRIME,
    Verdict,
    auto_test,
    curve_coefficient,
    factor_witness,
    replay_verdict,
    test_mersenne,
)
from .sequence import (
    EARLY_INFINITY,
    FINAL_NONZERO,
    FINAL_ZERO,
    GCD_HIT,
    STrace,
    SequenceOutcome,
    chain_outcome,
    mersenne_sequence,
    run_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
