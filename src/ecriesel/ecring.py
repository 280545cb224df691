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

One backend, two coordinate systems.  The affine double, add and
double_x_only invert each denominator as it arises.  The fast paths,
Jacobian ops and x-only doublings on (X:Z) (Montgomery 1987), multiply all
denominators into Z, and Z is a unit iff every denominator was.  A walk
(_checkpointed) takes a gcd after runs of 16, 32, 64, ... operations and
after the last one alone, and redoes a failing run one gcd per operation.
While the earlier Z is a unit, the new one is a unit multiple of this
operation's denominator, so the first non-unit Z marks the first operation
the affine walk cannot complete: deferring the gcd hides no failure and no
witness.  scalar_mul goes on from there by the affine double and add;
double_x_only_chain names a failing doubling (ChainFailure).  Curve
(checked when built), Point and ChainFailure are immutable named tuples.

The x-only ladder.  double_x_only_chain may first take s * Q, x(Q) = -1,
by a Montgomery ladder (_x_only_ladder): with R1 - R0 = Q throughout,
R0 + R1 = ((X0 X1 + m Z0 Z1)^2 : -(X0 Z1 - X1 Z0)^2) (Brier-Joye, PKC
2002, b = 0), and doubling is the chain's.  Mod a prime l | N at which m
is a unit, x = -1 lifts to R on the curve or its quadratic twist, and the
ladder gives x(s R), Z = 0 mod l iff s R is infinity: (0:0) would need
X^2 + m Z^2 = X Z (X^2 - m Z^2) = 0, or equal x, x^2 = -m and difference
x = -1.  Its Z is no running product (R0 + R1 is finite again after R0
meets infinity), so a checkpoint gcd inside it would depend on where runs
end: it is one kernel call with no gcd, and a non-unit end Z divides the
first doubling's 4 X Z (X^2 - m Z^2), so the walk names doubling 1.

Reduction.  On N = 2^j - 1, j >= 5, the chain's shift-and-fold keeps |X|,
|Z| < 2^(j+1) with no `%`.  Both kernels reduce any other N = c * 2^k - 1
of at least RIESEL_FOLD_BITS bits with bits(c) <= k + 16 (_riesel_fold: k
is the trailing zeros of N + 1) by the Riesel fold.  As c * 2^k = 1 mod N,
f(t) = (t >> k) + c * (t & (2^k - 1)) = c * t mod N for t of either sign,
so two folds and a `%` take t to c^2 * t mod N, in [0, N).  Every kernel
reduction takes some |t| < 16 N^2; two folds leave it below
(32 c / 2^k + 2) N in absolute value, so the `%` has a quotient below 2^22,
one CPython digit, and costs linear time where a full `%` costs quadratic.
Smaller moduli, where `%` is faster (the crossover table in CHANGES.md),
and other shapes are reduced by `%`.

Each fold reduction multiplies by the unit c^2.  The chain and the ladder
need no change of representation: (X:Z) is homogeneous, so with m taken
times c^-2 = 2^(2k), X and Z gain the same c^6 per doubling or ladder
addition and name the same point.
Jacobian (X:Y:Z) scale by different powers (x = X/Z^2, y = Y/Z^3), so
the Jacobian ops run in the domain x -> x * 2^(2k) mod N (Montgomery
1985): the point and m go in, each reduction of a sum of products of two
domain values gives the domain value of that sum, and X, Y and Z leave
it times c^2, for the affine tail.
Either way each Z is a unit multiple of the `%` kernel's Z, so every
checkpoint gcd, FactorFound divisor, ChainFailure step and divisor, the
operation order and every record byte stay those of the `%` kernels.  The
folded kernels copy the `%` formulas instead of taking a reducer, which
would cost a call per reduction on small moduli.
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


def _jacobian_ops(X: int, Y: int, Z: int, ops: str, n: int, m: int,
                  px: int, py: int) -> tuple[int, int, int]:
    """(X:Y:Z) after the ops: "D" doubles it, "A" adds the affine (px, py)."""
    for op in ops:
        if op == "D":
            # lambda = (3x^2 - m) / (2y): Z gains the factor 2*Y
            yy = Y * Y % n
            zz = Z * Z % n
            w = (3 * (X * X) - m * (zz * zz % n)) % n
            v = 4 * X * yy % n
            Z = 2 * Y * Z % n
            X = (w * w - 2 * v) % n
            Y = (w * (v - X) - 8 * (yy * yy)) % n
        else:
            # lambda = (py - y) / (px - x): Z gains the factor h
            zz = Z * Z % n
            h = (px * zz - X) % n
            r = (py * zz % n * Z - Y) % n
            hh = h * h % n
            hhh = hh * h % n
            v = X * hh % n
            Z = Z * h % n
            X = (r * r - hhh - 2 * v) % n
            Y = (r * (v - X) - Y * hhh) % n
    return X, Y, Z


def _riesel_fold(n: int) -> tuple[int, int] | None:
    """(k, c) with n = c * 2^k - 1 when the module docstring's fold reduces n, else None."""
    if n.bit_length() < RIESEL_FOLD_BITS:
        return None
    k = ((n + 1) & -(n + 1)).bit_length() - 1
    c = (n + 1) >> k
    return (k, c) if c.bit_length() <= k + 16 else None


def _jacobian_ops_folded(X: int, Y: int, Z: int, ops: str, n: int, m: int,
                         px: int, py: int, k: int, c: int) -> tuple[int, int, int]:
    """_jacobian_ops for n = c * 2^k - 1 in the domain x -> x * 2^(2k) mod n:
    X, Y, Z, m, px, py and the result are domain values (module docstring).
    """
    mask = (1 << k) - 1
    for op in ops:
        if op == "D":
            t = Y * Y
            t = (t >> k) + c * (t & mask)
            yy = ((t >> k) + c * (t & mask)) % n
            t = Z * Z
            t = (t >> k) + c * (t & mask)
            zz = ((t >> k) + c * (t & mask)) % n
            t = zz * zz
            t = (t >> k) + c * (t & mask)
            t = 3 * (X * X) - m * (((t >> k) + c * (t & mask)) % n)
            t = (t >> k) + c * (t & mask)
            w = ((t >> k) + c * (t & mask)) % n
            # 4 X yy stays a product for X', which subtracts it twice
            xyy = 4 * X * yy
            t = (xyy >> k) + c * (xyy & mask)
            v = ((t >> k) + c * (t & mask)) % n
            t = 2 * Y * Z
            t = (t >> k) + c * (t & mask)
            Z = ((t >> k) + c * (t & mask)) % n
            t = w * w - 2 * xyy
            t = (t >> k) + c * (t & mask)
            X = ((t >> k) + c * (t & mask)) % n
            t = w * (v - X) - 8 * (yy * yy)
            t = (t >> k) + c * (t & mask)
            Y = ((t >> k) + c * (t & mask)) % n
        else:
            t = Z * Z
            t = (t >> k) + c * (t & mask)
            zz = ((t >> k) + c * (t & mask)) % n
            t = px * zz
            t = (t >> k) + c * (t & mask)
            h = ((t >> k) + c * (t & mask)) % n - X
            t = py * zz
            t = (t >> k) + c * (t & mask)
            t = (((t >> k) + c * (t & mask)) % n) * Z
            t = (t >> k) + c * (t & mask)
            r = ((t >> k) + c * (t & mask)) % n - Y
            t = h * h
            t = (t >> k) + c * (t & mask)
            hh = ((t >> k) + c * (t & mask)) % n
            # hh * h and X hh stay products for X'; Y' takes them reduced
            hhh = hh * h
            t = (hhh >> k) + c * (hhh & mask)
            reduced = ((t >> k) + c * (t & mask)) % n
            xhh = X * hh
            t = (xhh >> k) + c * (xhh & mask)
            v = ((t >> k) + c * (t & mask)) % n
            t = Z * h
            t = (t >> k) + c * (t & mask)
            Z = ((t >> k) + c * (t & mask)) % n
            t = r * r - hhh - 2 * xhh
            t = (t >> k) + c * (t & mask)
            X = ((t >> k) + c * (t & mask)) % n
            t = r * (v - X) - Y * reduced
            t = (t >> k) + c * (t & mask)
            Y = ((t >> k) + c * (t & mask)) % n
    return X, Y, Z


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
    """s*P by left-to-right double-and-add (deterministic operation order).

    Jacobian coordinates (x = X/Z^2, y = Y/Z^3) under the checkpoint walk,
    in the fold's domain where _riesel_fold allows, then the affine double
    and add from the first failing operation on.
    """
    if s < 0:
        raise ValueError("scalar must be nonnegative")
    if s == 0 or point.is_infinity:
        return INFINITY
    # one D per bit after the leading one, an A after each 1 bit
    ops = bin(s)[3:].replace("1", "DA").replace("0", "D")
    if not ops:
        return point
    n = curve.modulus
    fold = _riesel_fold(n)
    k, c = fold or (0, 1)  # without a fold, the domain map is the identity
    px, py, m, z = ((v << 2 * k) % n for v in (point.x, point.y, curve.m, 1))

    def step(state, i, j):
        if fold is None:
            return _jacobian_ops(*state, ops[i:j], n, m, px, py)
        return _jacobian_ops_folded(*state, ops[i:j], n, m, px, py, k, c)

    state, done, _ = _checkpointed(step, (px, py, z), len(ops), n)
    X, Y, Z = (v * c * c % n for v in state)
    inv = pow(Z, -1, n)
    inv2 = inv * inv % n
    acc = Point(X * inv2 % n, Y * inv2 % n * inv % n)
    for op in ops[done:]:
        acc = double(curve, acc) if op == "D" else add(curve, acc, point)
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
    """_x_only_doublings' division branch for n = c * 2^k - 1, where m is
    the curve's m times 2^(2k) mod n, each `%` replaced by fold, fold, `%`
    (X and Z gain c^6 per doubling)."""
    mask = (1 << k) - 1
    for _ in range(times):
        t = X * X
        t = (t >> k) + c * (t & mask)
        xx = ((t >> k) + c * (t & mask)) % n
        t = Z * Z
        t = (t >> k) + c * (t & mask)
        t = m * (((t >> k) + c * (t & mask)) % n)
        t = (t >> k) + c * (t & mask)
        mzz = ((t >> k) + c * (t & mask)) % n
        t = 4 * X * Z
        t = (t >> k) + c * (t & mask)
        t = (((t >> k) + c * (t & mask)) % n) * (xx - mzz)
        t = (t >> k) + c * (t & mask)
        Z = ((t >> k) + c * (t & mask)) % n
        t = xx + mzz
        t = t * t
        t = (t >> k) + c * (t & mask)
        X = ((t >> k) + c * (t & mask)) % n
    return X, Z


def _x_only_ladder(s: int, n: int, m: int, fold: tuple[int, int] | None) -> tuple[int, int]:
    """(X:Z) of s * Q, x(Q) = -1, by the ladder of the module docstring,
    reduced by `%` or, with fold = (k, c), as _x_only_doublings_folded
    reduces (m is then the curve's m times 2^(2k) mod n).  From (R0, R1) =
    (infinity, Q), a 0 bit takes them to (2 R0, R0 + R1) and a 1 bit, the
    same step on the swapped pair, to (R0 + R1, 2 R1)."""
    X0, Z0, X1, Z1 = 1, 0, n - 1, 1
    k, c = fold or (0, 1)
    mask = (1 << k) - 1
    for bit in bin(s)[2:]:
        if bit == "1":
            X0, Z0, X1, Z1 = X1, Z1, X0, Z0
        if fold is None:
            t = (X0 * X1 + m * (Z0 * Z1 % n)) % n
            u = (X0 * Z1 - X1 * Z0) % n
            X1, Z1 = t * t % n, -(u * u) % n
            X0, Z0 = _x_only_doublings(X0, Z0, 1, n, m, False)
        else:
            t = Z0 * Z1
            t = (t >> k) + c * (t & mask)
            t = X0 * X1 + m * (((t >> k) + c * (t & mask)) % n)
            t = (t >> k) + c * (t & mask)
            a = ((t >> k) + c * (t & mask)) % n
            t = X0 * Z1 - X1 * Z0
            t = (t >> k) + c * (t & mask)
            u = ((t >> k) + c * (t & mask)) % n
            t = a * a
            t = (t >> k) + c * (t & mask)
            X1 = ((t >> k) + c * (t & mask)) % n
            t = -(u * u)
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

    s > 1 takes x = -1, and s*P comes from the ladder.  The doublings run
    under one checkpoint walk, by shift-and-fold mod 2^j - 1 (j >= 5),
    else by the Riesel fold or `%`."""
    n, m = curve.modulus, curve.m % curve.modulus
    fold = _riesel_fold(n)
    # folded, m times c^-2 = 2^(2k): m Z^2 folds to c^2 m Z^2, as X^2 to c^2 X^2
    mk = m if fold is None else (m << 2 * fold[0]) % n
    if s == 1:
        state = (x % n, 1)
    elif (x + 1) % n:
        raise ValueError("the ladder starts from x = -1")
    else:
        state = _x_only_ladder(s, n, mk, fold)
    mersenne = n & (n + 1) == 0 and n.bit_length() >= 5

    def step(state, i, j):
        if fold is None or mersenne:
            return _x_only_doublings(*state, j - i, n, m, mersenne)
        return _x_only_doublings_folded(*state, j - i, n, mk, *fold)

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
