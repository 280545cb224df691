"""Chord-and-tangent arithmetic on y^2 = x^3 - m*x over Z_N, N odd.

N may be composite: the formulas are applied blindly, and every division
goes through a three-way inversion.  A denominator sharing a proper factor
with N aborts the operation by raising FactorFound (that divisor is exactly
the compositeness witness the Goldwasser-Kilian idea extracts); a
denominator that vanishes mod N counts as reaching the point at infinity,
which matches the honest group law whenever N is prime.

One backend, two coordinate systems.  The affine double, add and
double_x_only invert each denominator as it arises.  The fast paths,
double_x_only_chain on (X:Z) (Montgomery 1987) and scalar_mul in Jacobian
coordinates, multiply all denominators into Z, and Z is a unit iff every
denominator was; then the result is the affine one exactly.  Both run one
checkpoint walk (_checkpointed): a gcd after operations 1, 3, 7, 15, ...,
the second-to-last and the last, and on a non-unit Z a redo of the run one
gcd per operation.  While the earlier Z is a unit, the new one is a unit
multiple of this operation's denominator, so the first non-unit Z marks the
first operation the affine walk cannot complete.  The chain names its step
and divisor (ChainFailure); scalar_mul hands the walk from there to the
affine double and add, which meet what an affine walk from the start meets.
Deferring the gcd hides no failure and no witness.  On N = 2^j - 1, j >= 5,
the chain's shift-and-fold keeps |X|, |Z| < 2^(j+1).  Curve (checked when
built), Point and ChainFailure are immutable named tuples.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .numtheory import mod_inverse


class FactorFound(Exception):
    """A curve operation exposed a proper divisor of the modulus.

    An outcome, not an error: callers convert it into a compositeness
    verdict with the divisor as witness.
    """

    def __init__(self, divisor: int, modulus: int):
        super().__init__(f"{divisor} divides {modulus}")
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
        # inverse pair, or (composite modulus only) equal x with unrelated
        # y: either way the chord denominator vanishes mod n
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


def _checkpointed(step, state: tuple, count: int, n: int) -> tuple[tuple, int, int]:
    """(state, done, g): step(state, i, j) applies operations i .. j - 1 to a state ending in Z.

    A run whose Z is not a unit is redone one operation at a time; then state
    is the last unit one, done its operation count and g the failing gcd (else 1).
    """
    done, run = 0, 1
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
    then the affine double and add from the first failing operation on.
    """
    if s < 0:
        raise ValueError("scalar must be nonnegative")
    if s == 0 or point.is_infinity:
        return INFINITY
    # one D per bit after the leading one, an A after each 1 bit
    ops = bin(s)[3:].replace("1", "DA").replace("0", "D")
    if not ops:
        return point
    n, m = curve.modulus, curve.m
    px, py = point.x % n, point.y % n
    (X, Y, Z), done, _ = _checkpointed(
        lambda state, i, j: _jacobian_ops(*state, ops[i:j], n, m, px, py),
        (px, py, 1), len(ops), n)
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


def double_x_only_chain(curve: Curve, x: int, times: int) -> int | ChainFailure:
    """x-coordinate of 2^times * P from that of P, with one inversion.

    (X:Z) under the checkpoint walk, about log2(times) gcds; a failed chain
    names the step and divisor that double_x_only would meet.  A modulus
    2^j - 1 with j >= 5 is reduced by shift-and-fold, which keeps |X| and
    |Z| below 2^(j+1), any other by division.
    """
    n, m = curve.modulus, curve.m % curve.modulus
    fold = n & (n + 1) == 0 and n.bit_length() >= 5
    (X, Z), done, g = _checkpointed(
        lambda state, i, j: _x_only_doublings(*state, j - i, n, m, fold),
        (x % n, 1), times, n)
    return ChainFailure(done + 1, g) if g != 1 else X * pow(Z, -1, n) % n


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
