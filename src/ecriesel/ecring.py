"""Chord-and-tangent arithmetic on y^2 = x^3 - m*x over Z_N, N odd.

N may be composite: the formulas are applied blindly, and every division
goes through a three-way inversion.  A denominator sharing a proper factor
with N aborts the operation by raising FactorFound (that divisor is exactly
the compositeness witness the Goldwasser-Kilian idea extracts); a
denominator that vanishes mod N counts as reaching the point at infinity,
which matches the honest group law whenever N is prime.

One backend, two coordinate systems.  The affine double, add and
double_x_only invert each denominator as it arises.  The fast paths defer
that work: double_x_only_chain runs x-only doubling on (X:Z) (Montgomery
1987), and scalar_mul keeps every operation but the last in Jacobian
coordinates.  Each multiplies all denominators into Z, and Z is a unit iff
every denominator was; then the result is the affine one exactly.
scalar_mul takes one gcd at the end, and on a non-unit Z its affine walk
runs again from the start and meets the failure where it happens: the
same FactorFound divisor, the same infinity.  The chain takes a gcd after
doublings 1, 2, 4, 8, ... and after the last, and on a non-unit Z redoes
only the doublings since its last unit checkpoint, one gcd each, which
names the exact failing step and its divisor (ChainFailure).  Deferring
the gcd moves where it is taken; it hides no failure and no witness.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class Curve:
    """y^2 = x^3 - m*x over Z_modulus, modulus odd >= 3, m nonzero mod modulus."""

    modulus: int
    m: int

    def __post_init__(self) -> None:
        if self.modulus < 3 or self.modulus % 2 == 0:
            raise ValueError("curve modulus must be odd and >= 3")
        if self.m % self.modulus == 0:
            raise ValueError("m must be nonzero mod the modulus")


@dataclass(frozen=True, slots=True)
class Point:
    """Affine point (x, y) or the point at infinity (both coordinates None)."""

    x: int | None
    y: int | None

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


def _double_and_add(curve: Curve, s: int, point: Point) -> Point:
    """s*P in affine coordinates, one inversion per operation (s >= 1)."""
    acc = point
    for bit in bin(s)[3:]:
        acc = double(curve, acc)
        if bit == "1":
            acc = add(curve, acc, point)
    return acc


def scalar_mul(curve: Curve, s: int, point: Point) -> Point:
    """s*P by left-to-right double-and-add (deterministic operation order).

    Every operation but the last runs in Jacobian coordinates
    (x = X/Z^2, y = Y/Z^3), so the only inversion is the one that returns
    to affine; the last double or add then runs affinely, which keeps an
    exact multiple that lands on infinity on this path.  A non-unit Z means
    some earlier denominator was not a unit, or a partial multiple was
    infinity: the affine double-and-add then reruns from the start and
    returns, or raises, exactly what it finds.
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
    X, Y, Z = px, py, 1
    for op in ops[:-1]:
        if op == "D":
            # lambda = (3x^2 - m) / (2y): Z gains the factor 2*Y
            yy = Y * Y % n
            zz = Z * Z % n
            w = (3 * X * X - m * (zz * zz % n)) % n
            v = 4 * X * yy % n
            Z = 2 * Y * Z % n
            X = (w * w - 2 * v) % n
            Y = (w * (v - X) - 8 * yy * yy) % n
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
    inv = mod_inverse(Z, n).inverse
    if inv is None:
        return _double_and_add(curve, s, point)
    inv2 = inv * inv % n
    acc = Point(X * inv2 % n, Y * inv2 % n * inv % n)
    return add(curve, acc, point) if ops[-1] == "A" else double(curve, acc)


@dataclass(frozen=True, slots=True)
class ChainFailure:
    """The first doubling of a chain whose denominator is not a unit.

    step counts doublings from 1; divisor is gcd(denominator, modulus),
    which is the modulus itself when that doubling reaches infinity.
    """

    step: int
    divisor: int


def _x_only_doublings(X: int, Z: int, times: int, n: int, m: int, fold: bool) -> tuple[int, int]:
    """(X:Z) doubled `times` times: X' = (X^2 + m Z^2)^2, Z' = 4 X Z (X^2 - m Z^2).

    With fold, n = 2^j - 1 and every product is reduced by shift-and-fold,
    since 2^j = 1 there; otherwise by division.
    """
    if fold:
        j = n.bit_length()
        # every folded value is below 4 n^2 < 2^(2j+2): two folds leave
        # it at most n + 4, and one subtraction brings it below n
        for _ in range(times):
            t = X * X
            t = (t & n) + (t >> j)
            t = (t & n) + (t >> j)
            xx = t - n if t >= n else t
            t = Z * Z
            t = (t & n) + (t >> j)
            t = (t & n) + (t >> j)
            t = m * (t - n if t >= n else t)
            t = (t & n) + (t >> j)
            t = (t & n) + (t >> j)
            mzz = t - n if t >= n else t
            t = X * Z
            t = (t & n) + (t >> j)
            t = (t & n) + (t >> j)
            d = xx - mzz
            t = 4 * (t - n if t >= n else t) * (d + n if d < 0 else d)
            t = (t & n) + (t >> j)
            t = (t & n) + (t >> j)
            Z = t - n if t >= n else t
            t = xx + mzz
            t = t * t
            t = (t & n) + (t >> j)
            t = (t & n) + (t >> j)
            X = t - n if t >= n else t
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

    Projective x-only doubling collects in Z every denominator that
    double_x_only would invert, and a non-unit Z stays one, so a gcd after
    doublings 1, 2, 4, 8, ... and after the last one finds a failed chain
    within twice its failing step, for about log2(times) gcds per chain.
    The failure is then pinned down by redoing the doublings since the last
    unit checkpoint one at a time, with a gcd after each: while the earlier
    Z is a unit, the new Z is a unit multiple of this doubling's
    denominator, so the first non-unit Z gives the exact step and divisor
    that double_x_only would meet.  A modulus 2^j - 1 with j >= 3 is
    reduced by shift-and-fold, any other by division.
    """
    n = curve.modulus
    m = curve.m % n
    fold = n & (n + 1) == 0 and n.bit_length() >= 3
    X, Z = x % n, 1
    done, checkpoint = 0, 1
    while done < times:
        run = min(checkpoint, times) - done
        X2, Z2 = _x_only_doublings(X, Z, run, n, m, fold)
        if gcd(Z2, n) != 1:
            for step in range(done + 1, done + run + 1):
                X, Z = _x_only_doublings(X, Z, 1, n, m, fold)
                g = gcd(Z, n)
                if g != 1:
                    return ChainFailure(step, g)
        X, Z = X2, Z2
        done += run
        checkpoint *= 2
    return X * pow(Z, -1, n) % n


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
