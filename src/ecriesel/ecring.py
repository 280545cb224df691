"""Arithmetic on y^2 = x^3 - m*x over Z_N, N odd: affine references for
any m, and x-only kernels on E: y^2 = x^3 + x (m = -1).

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
replay path calls them.  The fast path, x-only doublings on (X:Z) of E,
multiplies all denominators into Z: a doubling's Z' is 8 X Z (X^2 + Z^2),
so Z is a unit iff every denominator was.  double_x_only_chain returns the
walk's end (X:Z), Z unchecked, and its caller takes one gcd of Z with N:
a prime l | N divides it iff the ladder ends at infinity mod l or the
affine doublings mod l fail within the walk's count.  Curve (checked
when built) and Point are immutable named tuples.

E is Montgomery's curve with A = 0 (Math. Comp. 48, 1987, 10.3.1),
elliptic mod every odd prime (its discriminant is -64).  With
t1 = (X + Z)^2 and t2 = (X - Z)^2, a doubling is X' = 2 t1 t2,
Z' = (t1 - t2)(t1 + t2) = 8 X Z (X^2 + Z^2): twice the tangent's
x' = (x^2 - 1)^2 / (4 x (x^2 + 1)).  It gives (0:0) only from (0:0), as
X^2 = Z^2 and X Z (X^2 + Z^2) = 0 force X = Z = 0.

The x-only ladder.  double_x_only_chain may first take s * P by a
Montgomery ladder (_x_only_ladder): with R1 - R0 = P throughout and
x(P) = d, a = (X0 - Z0)(X1 + Z1) and b = (X0 + Z0)(X1 - Z1) give
R0 + R1 = ((a + b)^2 : d (a - b)^2), as a + b = 2 (X0 X1 - Z0 Z1) and
a - b = 2 (X0 Z1 - X1 Z0).  Mod a prime l | N at which d is a unit, d
lifts to P on E or its quadratic twist, and the ladder gives x(s P),
Z = 0 mod l iff s P is infinity, for no (X:Z) is ever (0:0): a sum gives
it only from X0 X1 = Z0 Z1 and X0 Z1 = X1 Z0, which with R0 or R1
infinity make the other (0:0), and else give x0 = x1 = +-1, so R1 = -R0
and P = 2 R1 has x 0, not d.  A d that vanishes mod l makes R0 (0:0) mod
l from the leading bit on, so the end Z vanishes mod l.  Its Z is no
running product (R0 + R1 is finite again after R0 meets infinity), but
only its end counts: a Z that vanishes mod l stays zero mod l through
every doubling after it.

Reduction.  On N = 2^j - 1, j >= 16, the chain's shift-and-fold
f(t) = (t & N) + (t >> j) = t mod N, t of either sign, needs no `%`.  Let
B = 2^j.  If X is in [0, N + 64] and Z in [-32, N + 32], |X +- Z| <=
2B + 94, so one fold takes each square to t1, t2 in [0, 5B + 376]; then
2 t1 t2 is in [0, 50B^2 + 7520B + 282752], t1^2 - t2^2 within half that
of 0, and two folds give X in [0, N + 51] and Z in [-26, N + 26] (as
B >= 2^16), the same ranges again.  The doublings take it from
j = numtheory.MERSENNE_FOLD_BITS (100) on, where it overtakes `%` (the
crossover figures in CHANGES.md).  Both x-only kernels reduce any other
N = c * 2^k - 1 of at least RIESEL_FOLD_BITS bits with bits(c) <= k + 16
(_riesel_fold: k is the trailing zeros of N + 1) by the Riesel fold.
The shape rule, with RIESEL_FOLD_BITS and _riesel_fold, is
numtheory.fold_shape, by which miller_rabin chooses its reducer too.  As
c * 2^k = 1 mod N, f(t) = (t >> k) + c * (t & (2^k - 1)) = c * t mod N
for t of either sign, so two folds and a `%` take t to c^2 * t mod N, in
[0, N).  From |t| < L N^2, as c (2^k - 1) <= N and N / 2^k < c, one fold
leaves |t| <= L N^2 / 2^k + N + 1 and two leave it below
(L c / 2^k + 2)(N + 1).  Each product the folded kernels reduce has
factors in [0, N) or sums or differences of two such, so L = 4, and the
`%` has a quotient below 2^18 + 3, a digit, and costs linear time where
a full `%` costs quadratic.  The one exception is the ladder from a
word-size difference d < 2^16 (small-n's start): its sum's Z is
d * ((a - b)^2 reduced), a word-size product left unreduced in
[0, d N), so every sum or difference has |.| < (d + 1) N, L = (d + 1)^2
and the quotient stays below 2^49, two digits.  Smaller moduli, where `%`
is faster (the crossover table in CHANGES.md), and other shapes are
reduced by `%`.

Each fold reduction multiplies by the unit c^2, and (X:Z) is
homogeneous: X and Z gain the same c^6 per doubling or ladder step (a
full-size d enters the ladder times c^-2 = 2^(2k), which the fold of its
product undoes, and a word-size d multiplies a reduced c^2 (a - b)^2), so
they name the same point, and every gcd and record byte stays the `%`
kernels'.  The folded kernels copy the `%` formulas instead of taking a
reducer, which would cost a call per reduction on small moduli.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .numtheory import fold_shape, mod_inverse


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


def _x_only_doublings(X: int, Z: int, times: int, n: int, fold: bool) -> tuple[int, int]:
    """(X:Z) doubled `times` times on E: with t1 = (X + Z)^2 and
    t2 = (X - Z)^2, X' = 2 t1 t2 and Z' = (t1 - t2)(t1 + t2).  With fold,
    n = 2^j - 1 with j >= 16, reduced by the module docstring's
    shift-and-fold (one fold for t1 and t2, two for X' and Z'), which
    keeps X in [0, n + 64] and Z in [-32, n + 32]; otherwise by division.
    """
    if fold:
        j = n.bit_length()
        for _ in range(times):
            t = X + Z
            t = t * t
            t1 = (t & n) + (t >> j)
            t = X - Z
            t = t * t
            t2 = (t & n) + (t >> j)
            t = 2 * t1 * t2
            t = (t & n) + (t >> j)
            X = (t & n) + (t >> j)
            t = (t1 - t2) * (t1 + t2)
            t = (t & n) + (t >> j)
            Z = (t & n) + (t >> j)
    else:
        for _ in range(times):
            t1 = X + Z
            t1 = t1 * t1 % n
            t2 = X - Z
            t2 = t2 * t2 % n
            X = 2 * t1 * t2 % n
            Z = (t1 - t2) * (t1 + t2) % n
    return X, Z


def _x_only_doublings_folded(X: int, Z: int, times: int, n: int, k: int, c: int) -> tuple[int, int]:
    """_x_only_doublings' division branch for n = c * 2^k - 1, each `%`
    replaced by fold, fold, `%` (X and Z gain c^6 per doubling)."""
    mask = (1 << k) - 1
    for _ in range(times):
        t = X + Z
        t = t * t
        t = (t >> k) + c * (t & mask)
        t1 = ((t >> k) + c * (t & mask)) % n
        t = X - Z
        t = t * t
        t = (t >> k) + c * (t & mask)
        t2 = ((t >> k) + c * (t & mask)) % n
        t = 2 * t1 * t2
        t = (t >> k) + c * (t & mask)
        X = ((t >> k) + c * (t & mask)) % n
        t = (t1 - t2) * (t1 + t2)
        t = (t >> k) + c * (t & mask)
        Z = ((t >> k) + c * (t & mask)) % n
    return X, Z


def _x_only_ladder(s: int, x: int, n: int, fold: tuple[int, int] | None) -> tuple[int, int]:
    """(X:Z) of s * P, x = x(P) in [0, n), by the ladder of the module
    docstring, reduced by `%` or, with fold = (k, c), as
    _x_only_doublings_folded reduces.  From (R0, R1) = (infinity, P), a 0
    bit takes them to (2 R0, R0 + R1) and a 1 bit, the same step on the
    swapped pair, to (R0 + R1, 2 R1).  A word-size x costs a word-size
    product; under `%` the doubling reuses X0 +- Z0, folded it is
    _x_only_doublings_folded.  Folded, a word-size x leaves the sum's Z
    unreduced, in [0, x n), so the end Z may be too."""
    X0, Z0, X1, Z1 = 1, 0, x, 1
    k, c = fold or (0, 1)
    mask = (1 << k) - 1
    scaled = fold is not None and x >= 1 << 16
    if scaled:
        x = (x << 2 * k) % n  # times c^-2, which the fold of its product undoes
    for bit in bin(s)[2:]:
        if bit == "1":
            X0, Z0, X1, Z1 = X1, Z1, X0, Z0
        u = X0 + Z0
        v = X0 - Z0
        if fold is None:
            a = v * (X1 + Z1) % n
            b = u * (X1 - Z1) % n
            X1 = a + b
            X1 = X1 * X1 % n
            Z1 = a - b
            Z1 = x * (Z1 * Z1 % n) % n
            u = u * u % n
            v = v * v % n
            X0 = 2 * u * v % n
            Z0 = (u - v) * (u + v) % n
        else:
            t = v * (X1 + Z1)
            t = (t >> k) + c * (t & mask)
            a = ((t >> k) + c * (t & mask)) % n
            t = u * (X1 - Z1)
            t = (t >> k) + c * (t & mask)
            b = ((t >> k) + c * (t & mask)) % n
            t = a + b
            t = t * t
            t = (t >> k) + c * (t & mask)
            X1 = ((t >> k) + c * (t & mask)) % n
            t = a - b
            t = t * t
            t = (t >> k) + c * (t & mask)
            Z1 = x * (((t >> k) + c * (t & mask)) % n)
            if scaled:
                t = (Z1 >> k) + c * (Z1 & mask)
                Z1 = ((t >> k) + c * (t & mask)) % n
            X0, Z0 = _x_only_doublings_folded(X0, Z0, 1, n, k, c)
        if bit == "1":
            X0, Z0, X1, Z1 = X1, Z1, X0, Z0
    return X0, Z0


def double_x_only_chain(n: int, x: int, times: int, s: int = 1) -> tuple[int, int]:
    """(X:Z) on E mod n (odd, >= 3) of 2^times * s*P, s >= 1, from
    x = x(P), Z unchecked (module docstring).  s > 1 takes s*P from the
    ladder.  The doublings run by shift-and-fold mod 2^j - 1
    (j >= MERSENNE_FOLD_BITS), else by the Riesel fold or `%`."""
    mersenne, fold = fold_shape(n)
    X, Z = (x % n, 1) if s == 1 else _x_only_ladder(s, x % n, n, fold)
    if fold is None or mersenne:
        return _x_only_doublings(X, Z, times, n, mersenne)
    return _x_only_doublings_folded(X, Z, times, n, *fold)


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
