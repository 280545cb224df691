"""Chord-and-tangent arithmetic on y^2 = x^3 - m*x over Z_N, N odd.

N may be composite: the formulas are applied blindly, and every division
goes through a three-way inversion.  A denominator sharing a proper factor
with N aborts the operation by raising FactorFound (that divisor is exactly
the compositeness witness the Goldwasser-Kilian idea extracts); a
denominator that vanishes mod N counts as reaching the point at infinity,
which matches the honest group law whenever N is prime.  Adding points
with equal x gives infinity only for an inverse pair: on a composite N
their y can agree mod a proper factor, where the sum is a double, and add
raises that factor.

One backend, two coordinate systems.  The affine double, add,
double_x_only and scalar_mul invert each denominator as it arises; they
are the references the fast path is tested against, and no decide or
replay path calls scalar_mul.  The fast path, x-only doublings on (X:Z)
(Montgomery 1987), multiplies all denominators into Z, and Z is a unit iff
every denominator was.  A walk (_checkpointed) takes a gcd after runs of
16, 32, 64, ... doublings and after the last one alone, and redoes a
failing run one gcd per doubling.  While the earlier Z is a unit, the new
one is a unit multiple of this doubling's denominator, so the first
non-unit Z marks the first doubling the affine walk cannot complete:
deferring the gcd hides no failure and no witness, and
double_x_only_chain names that doubling (ChainFailure).  Curve (checked
when built), Point and ChainFailure are immutable named tuples.

The x-only ladder.  double_x_only_chain may first take s * P by a
Montgomery ladder (_x_only_ladder): with R1 - R0 = P throughout, x(P) = d,
R0 + R1 = ((X0 X1 + m Z0 Z1)^2 : d (X0 Z1 - X1 Z0)^2) (Brier-Joye, PKC
2002, b = 0), and doubling is the chain's.  Mod a prime l | N at which m
and d are units, d lifts to P on the curve or its quadratic twist, and
the ladder gives x(s P), Z = 0 mod l iff s P is infinity, for no (X:Z) is
ever (0:0).  A doubling gives (0:0) only from (0:0), as X^2 + m Z^2 =
X Z (X^2 - m Z^2) = 0 forces X = Z = 0.  A sum gives it only from R0 =
-R1 finite with x^2 = -m, where P = 2 R1 has x 0, not the unit d.  So
small-n's d = -1 and large-n's unit x(D) and x((n/q) D) need no check
inside the ladder.  Its Z is no running product (R0 + R1 is finite again
after R0 meets infinity), so a checkpoint gcd inside it would depend on
where runs end: it is one kernel call with no gcd, and a non-unit end Z
divides the first doubling's 4 X Z (X^2 - m Z^2), so a chain after it
names doubling 1.

Reduction.  On N = 2^j - 1, j >= 5, the chain's shift-and-fold keeps |X|,
|Z| < 2^(j+1) with no `%`.  Both x-only kernels reduce any other N =
c * 2^k - 1 of at least RIESEL_FOLD_BITS bits with bits(c) <= k + 16
(_riesel_fold: k is the trailing zeros of N + 1) by the Riesel fold.  As
c * 2^k = 1 mod N, f(t) = (t >> k) + c * (t & (2^k - 1)) = c * t mod N for
t of either sign, so two folds and a `%` take t to c^2 * t mod N, in
[0, N).  m is the curve's own, word-size on both routes: it multiplies an
already reduced Z^2 (or Z0 Z1 unreduced, in the ladder's sum), with no
fold of its own.  So every kernel reduction takes some |t| < (m + 1)^2
N^2 (the square of X^2 + m Z^2 with both terms reduced), and two folds
leave it below ((m + 1)^2 c / 2^k + 2) N in absolute value: the `%` has a
quotient below (m + 1)^2 2^16 + 2, a digit or two for a word-size m, and
costs linear time where a full `%` costs quadratic.  Smaller moduli,
where `%` is faster (the crossover table in CHANGES.md), and other shapes
are reduced by `%`.

Each fold reduction multiplies by the unit c^2, and the kernels need no
change of representation: (X:Z) is homogeneous, and X and Z gain the same
c^6 per doubling or ladder step, so they name the same point.  A ladder
difference d other than -1 enters times c^-2 = 2^(2k), so that the fold
of its product gives c^6 too.  Each Z is a unit multiple of the `%`
kernel's Z, so every checkpoint gcd, ChainFailure step and divisor and
every record byte stay those of the `%` kernels.  The folded kernels copy
the `%` formulas instead of taking a reducer, which would cost a call per
reduction on small moduli.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .numtheory import mod_inverse

# Least bit length of a modulus c * 2^k - 1 that the curve kernels reduce
# by folding: below it `%` is faster (the crossover table in CHANGES.md).
RIESEL_FOLD_BITS = 768


class FactorFound(Exception):
    """A curve operation exposed a proper divisor of the modulus.

    An outcome, not an error: callers convert it into a compositeness
    verdict with the divisor as witness.
    """

    def __init__(self, divisor: int, modulus: int):
        super().__init__(f"{divisor.bit_length()}-bit divisor of a {modulus.bit_length()}-bit N")
        self.divisor = divisor
        self.modulus = modulus


class Curve(namedtuple("Curve", "modulus m")):
    """y^2 = x^3 - m*x over Z_modulus, modulus odd >= 3, m nonzero mod modulus."""

    __slots__ = ()

    def __new__(cls, modulus: int, m: int):
        if modulus < 3 or modulus % 2 == 0:
            raise ValueError("curve modulus must be odd and >= 3")
        if m % modulus == 0:
            raise ValueError("m must be nonzero mod the modulus")
        return super().__new__(cls, modulus, m)


class Point(namedtuple("Point", "x y")):
    """Affine point (x, y) or the point at infinity (both coordinates None)."""

    __slots__ = ()

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point(None, None)


def _invert(curve: Curve, value: int) -> int | None:
    """Inverse of value mod the curve modulus; None if value = 0; raises on a proper divisor."""
    out = mod_inverse(value, curve.modulus)
    if out.inverse is not None:
        return out.inverse
    if out.divisor is not None:
        raise FactorFound(out.divisor, curve.modulus)
    return None


def on_curve(curve: Curve, point: Point) -> bool:
    """Whether the point satisfies y^2 = x^3 - m*x mod the modulus (infinity always does)."""
    if point.is_infinity:
        return True
    n = curve.modulus
    return (point.y * point.y - (point.x * point.x - curve.m) * point.x) % n == 0


def double(curve: Curve, point: Point) -> Point:
    """2*P by the tangent line; 2-torsion (y = 0) and infinity map to infinity."""
    if point.is_infinity:
        return INFINITY
    n = curve.modulus
    inv = _invert(curve, 2 * point.y)
    if inv is None:
        # modulus odd, so 2y = 0 iff y = 0: a 2-torsion abscissa
        return INFINITY
    x, y = point.x, point.y
    lam = (3 * x * x - curve.m) * inv % n
    x2 = (lam * lam - 2 * x) % n
    y2 = (lam * (x - x2) - y) % n
    return Point(x2, y2)


def add(curve: Curve, p: Point, q: Point) -> Point:
    """P + Q by the chord law, delegating to double when P = Q."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    n = curve.modulus
    if (p.x - q.x) % n == 0:
        if (p.y - q.y) % n == 0:
            return double(curve, p)
        # Equal x, y != y'.  Unless y = -y' (an inverse pair: infinity), a
        # point on the curve has y = y' mod a proper factor g of n, where
        # the sum is a double, not infinity; g = 1 only off the curve.
        g = gcd(p.y - q.y, n)
        if (p.y + q.y) % n and g != 1:
            raise FactorFound(g, n)
        return INFINITY
    inv = _invert(curve, q.x - p.x)
    lam = (q.y - p.y) * inv % n
    x3 = (lam * lam - p.x - q.x) % n
    y3 = (lam * (p.x - x3) - p.y) % n
    return Point(x3, y3)


def _riesel_fold(n: int) -> tuple[int, int] | None:
    """(k, c) with n = c * 2^k - 1 when the module docstring's fold reduces n, else None."""
    if n.bit_length() < RIESEL_FOLD_BITS:
        return None
    k = ((n + 1) & -(n + 1)).bit_length() - 1
    c = (n + 1) >> k
    return (k, c) if c.bit_length() <= k + 16 else None


def _checkpointed(step, state: tuple, count: int, n: int) -> tuple[tuple, int, int]:
    """(state, done, g): step(state, i, j) applies operations i .. j - 1 to a state ending in Z.

    Runs of 16, 32, 64, ... operations, then the last alone.  A run whose Z
    is not a unit is redone one operation at a time; then state is the last
    unit one, done its operation count and g the failing gcd (else 1).
    """
    done, run = 0, 16
    while done < count:
        end = count if done == count - 1 else min(done + run, count - 1)
        new = step(state, done, end)
        if gcd(new[-1], n) != 1:
            for i in range(done, end):
                new = step(state, i, i + 1)
                g = gcd(new[-1], n)
                if g != 1:
                    return state, i, g
                state = new
        state, done = new, end
        run *= 2
    return state, done, 1


def scalar_mul(curve: Curve, s: int, point: Point) -> Point:
    """s*P by left-to-right double-and-add with the affine double and add,
    the reference the x-only kernels are tested against (no decide or
    replay path calls it)."""
    if s < 0:
        raise ValueError("scalar must be nonnegative")
    if s == 0 or point.is_infinity:
        return INFINITY
    acc = point
    for bit in bin(s)[3:]:
        acc = double(curve, acc)
        if bit == "1":
            acc = add(curve, acc, point)
    return acc


class ChainFailure(namedtuple("ChainFailure", "step divisor")):
    """The first doubling of a chain whose denominator is not a unit.

    step counts doublings from 1; divisor is gcd(denominator, modulus),
    which is the modulus itself when that doubling reaches infinity.
    """

    __slots__ = ()


def _x_only_doublings(X: int, Z: int, times: int, n: int, m: int, fold: bool) -> tuple[int, int]:
    """(X:Z) doubled `times` times: X' = (X^2 + m Z^2)^2, Z' = 4 X Z (X^2 - m Z^2).

    With fold, n = 2^j - 1 with j >= 5 and 1 <= m < n, and every product is
    reduced by shift-and-fold, since 2^j = 1 there; otherwise by division.
    """
    if fold:
        j = n.bit_length()
        # f(t) = (t & n) + (t >> j) keeps t mod n for t of either sign.  If
        # |t| < 8 * 4^j, t >> j is in [-8 * 2^j, 8 * 2^j), so f(t) >> j is in
        # [-8, 8] and f(f(t)) in [-8, n + 8], in [0, n + 8] if t >= 0.  From
        # |X|, |Z| < 2^(j+1): X^2, Z^2 and 2XZ = (X + Z)^2 - X^2 - Z^2 are
        # below 8 * 4^j, so xx, zz and mzz (m * zz < n(n + 8)) lie in
        # [0, n + 8] and u in [-8, n + 8]; then |2u(xx - mzz)| <= 2(n + 8)^2
        # and (xx + mzz)^2 <= (2n + 16)^2 are below 8 * 4^j for j >= 5, so
        # Z is in [-8, n + 8] and X in [0, n + 8], below 2^(j+1) again.
        for _ in range(times):
            x2 = X * X
            z2 = Z * Z
            t = X + Z
            t = t * t - x2 - z2
            t = (t & n) + (t >> j)
            u = (t & n) + (t >> j)
            t = (x2 & n) + (x2 >> j)
            xx = (t & n) + (t >> j)
            t = (z2 & n) + (z2 >> j)
            t = m * ((t & n) + (t >> j))
            t = (t & n) + (t >> j)
            mzz = (t & n) + (t >> j)
            t = 2 * u * (xx - mzz)
            t = (t & n) + (t >> j)
            Z = (t & n) + (t >> j)
            t = xx + mzz
            t = t * t
            t = (t & n) + (t >> j)
            X = (t & n) + (t >> j)
    else:
        for _ in range(times):
            xx = X * X % n
            mzz = m * (Z * Z % n) % n
            Z = 4 * X * Z % n * (xx - mzz) % n
            t = xx + mzz
            X = t * t % n
    return X, Z


def _x_only_doublings_folded(X: int, Z: int, times: int, n: int, m: int,
                             k: int, c: int) -> tuple[int, int]:
    """_x_only_doublings' division branch for n = c * 2^k - 1, each `%`
    replaced by fold, fold, `%`, m times the reduced Z^2 left unreduced,
    and 4 X Z taken from the squares (X and Z gain c^6 per doubling)."""
    mask = (1 << k) - 1
    for _ in range(times):
        x2 = X * X
        z2 = Z * Z
        t = X + Z
        t = 2 * (t * t - x2 - z2)
        t = (t >> k) + c * (t & mask)
        u = ((t >> k) + c * (t & mask)) % n
        t = (x2 >> k) + c * (x2 & mask)
        xx = ((t >> k) + c * (t & mask)) % n
        t = (z2 >> k) + c * (z2 & mask)
        mzz = m * (((t >> k) + c * (t & mask)) % n)
        t = u * (xx - mzz)
        t = (t >> k) + c * (t & mask)
        Z = ((t >> k) + c * (t & mask)) % n
        t = xx + mzz
        t = t * t
        t = (t >> k) + c * (t & mask)
        X = ((t >> k) + c * (t & mask)) % n
    return X, Z


def _x_only_ladder(s: int, x: int, n: int, m: int,
                   fold: tuple[int, int] | None) -> tuple[int, int]:
    """(X:Z) of s * P, x = x(P) a unit in [0, n), by the ladder of the
    module docstring, reduced by `%` or, with fold = (k, c), as
    _x_only_doublings_folded reduces.  From (R0, R1) = (infinity, P), a 0
    bit takes them to (2 R0, R0 + R1) and a 1 bit, the same step on the
    swapped pair, to (R0 + R1, 2 R1).  x = -1 costs a negation where any
    other x costs a product."""
    X0, Z0, X1, Z1 = 1, 0, x, 1
    minus_one = x == n - 1
    k, c = fold or (0, 1)
    mask = (1 << k) - 1
    if fold is not None and not minus_one:
        x = (x << 2 * k) % n  # times c^-2, which the fold of its product undoes
    for bit in bin(s)[2:]:
        if bit == "1":
            X0, Z0, X1, Z1 = X1, Z1, X0, Z0
        if fold is None:
            t = (X0 * X1 + m * (Z0 * Z1 % n)) % n
            u = (X0 * Z1 - X1 * Z0) % n
            X1 = t * t % n
            Z1 = -(u * u) % n if minus_one else x * (u * u % n) % n
            X0, Z0 = _x_only_doublings(X0, Z0, 1, n, m, False)
        else:
            a = X0 * X1
            b = Z0 * Z1
            t = a + m * b
            # X0 Z1 - X1 Z0 from the two products and a third
            u = (X0 - Z0) * (X1 + Z1) - a + b
            t = (t >> k) + c * (t & mask)
            a = ((t >> k) + c * (t & mask)) % n
            t = (u >> k) + c * (u & mask)
            u = ((t >> k) + c * (t & mask)) % n
            t = a * a
            t = (t >> k) + c * (t & mask)
            X1 = ((t >> k) + c * (t & mask)) % n
            t = -(u * u) if minus_one else u * u
            t = (t >> k) + c * (t & mask)
            Z1 = ((t >> k) + c * (t & mask)) % n
            if not minus_one:
                t = x * Z1
                t = (t >> k) + c * (t & mask)
                Z1 = ((t >> k) + c * (t & mask)) % n
            X0, Z0 = _x_only_doublings_folded(X0, Z0, 1, n, m, k, c)
        if bit == "1":
            X0, Z0, X1, Z1 = X1, Z1, X0, Z0
    return X0, Z0


def double_x_only_chain(curve: Curve, x: int, times: int,
                        s: int = 1) -> tuple[int, int] | ChainFailure:
    """(X:Z) of 2^times * s*P, s >= 1, from x = x(P), with Z a unit once
    times >= 1; else the first doubling whose denominator is not a unit.

    s > 1 takes s*P from the ladder, which needs x a unit; with times = 0
    its end is returned, Z unchecked.  The doublings run under one
    checkpoint walk, by shift-and-fold mod 2^j - 1 (j >= 5), else by the
    Riesel fold or `%`."""
    n, m = curve.modulus, curve.m % curve.modulus
    fold = _riesel_fold(n)
    state = (x % n, 1) if s == 1 else _x_only_ladder(s, x % n, n, m, fold)
    mersenne = n & (n + 1) == 0 and n.bit_length() >= 5

    def step(state, i, j):
        if fold is None or mersenne:
            return _x_only_doublings(*state, j - i, n, m, mersenne)
        return _x_only_doublings_folded(*state, j - i, n, m, *fold)

    state, done, g = _checkpointed(step, state, times, n)
    return state if g == 1 else ChainFailure(done + 1, g)


def double_x_only(curve: Curve, x: int) -> int | None:
    """x-coordinate of 2*P from the x-coordinate of P alone.

    x' = (x^2 + m)^2 / (4(x^3 - m x)).  Returns None when the denominator
    vanishes mod the modulus (the doubled point is at infinity); raises
    FactorFound when it exposes a proper divisor.
    """
    n = curve.modulus
    num = (x * x + curve.m) % n
    den = 4 * x * ((x * x - curve.m) % n) % n
    inv = _invert(curve, den)
    if inv is None:
        return None
    return num * num * inv % n
