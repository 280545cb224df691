"""Exhaustive ground truth for curves y^2 = x^3 - m*x over small primes p = 3 (mod 4).

Checks, by direct enumeration and literal chord-and-tangent walks, the three
structural facts the primality tests lean on:

  1. the curve has exactly p + 1 points;
  2. the group is cyclic of order 2^k * n when m is a non-residue mod p and
     Z_2 x Z_{2^(k-1) * n} when m is a residue (p + 1 = 2^k * n, n odd);
  3. when m is a non-residue, every point whose x is a non-residue has
     order divisible by 2^k.

Everything is verified constructively: cyclicity by exhibiting a generator
whose walk visits all p + 1 points, the split case by exhibiting an
order-(p+1)/2 point plus an outside involution whose coset fills the rest.
Orders of walked points then follow from the verified generator order, so
the fact-3 sweep touches every point without quadratic blowup.
GroupStructure is an immutable named tuple.
"""

from __future__ import annotations

import random
from collections import namedtuple
from math import gcd

from .ecring import INFINITY, Curve, Point, add, on_curve
from .numtheory import is_prime_oracle, jacobi, sieve_primes

ENUMERATION_LIMIT = 5000
FULL_SWEEP_BELOW = 200

CYCLIC = "cyclic"
PRODUCT_OF_TWO = "product-of-two"


class GroupStructure(namedtuple("GroupStructure", "kind orders")):
    """Shape of the point group: cyclic of order p+1, or Z_2 x Z_{(p+1)/2}."""

    __slots__ = ()

    @property
    def total_order(self) -> int:
        r = 1
        for o in self.orders:
            r *= o
        return r


def _validated_curve(p: int, m: int) -> Curve:
    if p > ENUMERATION_LIMIT:
        raise ValueError(f"p = {p} exceeds the enumeration limit {ENUMERATION_LIMIT}")
    if p % 4 != 3:
        raise ValueError("p must be 3 mod 4")
    if not is_prime_oracle(p):
        raise ValueError(f"p = {p} is not prime")
    if m % p == 0:
        raise ValueError("m must be nonzero mod p")
    return Curve(p, m % p)


def enumerate_points(p: int, m: int) -> list[Point]:
    """All points of y^2 = x^3 - m*x over F_p, infinity first, then (x, y) ascending."""
    curve = _validated_curve(p, m)
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    points = [INFINITY]
    for x in range(p):
        rhs = x * ((x * x - curve.m) % p) % p
        for y in roots.get(rhs, ()):
            points.append(Point(x, y))
    return points


def point_order(p: int, m: int, point: Point) -> int:
    """Least s >= 1 with s*P = infinity, by plain repeated addition."""
    curve = _validated_curve(p, m)
    if point.is_infinity:
        return 1
    if not on_curve(curve, point):
        raise ValueError(f"{point} is not on y^2 = x^3 - {m}x mod {p}")
    acc = point
    order = 1
    while not acc.is_infinity:
        acc = add(curve, acc, point)
        order += 1
    return order


def _walk(curve: Curve, point: Point, cap: int) -> list[Point] | None:
    """[P, 2P, ...] up to and including the first infinity; None if cap exceeded."""
    orbit = [point]
    acc = point
    while not acc.is_infinity:
        if len(orbit) > cap:
            return None
        acc = add(curve, acc, point)
        orbit.append(acc)
    return orbit


def _two_torsion(points: list[Point]) -> list[Point]:
    return [pt for pt in points if not pt.is_infinity and pt.y == 0]


def group_structure(p: int, m: int) -> GroupStructure:
    """Classify the group by its 2-torsion and cross-check the residue prediction."""
    points = enumerate_points(p, m)
    torsion = len(_two_torsion(points))
    # x(x^2 - m) has one root when m is a non-residue, three when a residue
    assert torsion in (1, 3), (p, m, torsion)
    if torsion == 1:
        structure = GroupStructure(CYCLIC, (p + 1,))
        assert jacobi(m, p) == -1, (p, m)
    else:
        structure = GroupStructure(PRODUCT_OF_TWO, (2, (p + 1) // 2))
        assert jacobi(m, p) == 1, (p, m)
    return structure


def _find_order_witness(
    curve: Curve, points: list[Point], target: int
) -> tuple[Point, list[Point]] | None:
    """First affine point (scan order) whose orbit has exactly `target` elements."""
    for candidate in points:
        if candidate.is_infinity:
            continue
        orbit = _walk(curve, candidate, cap=len(points) + 1)
        if orbit is not None and len(orbit) == target:
            return candidate, orbit
    return None


def _check_curve(p: int, m: int, k: int, report: dict) -> None:
    curve = Curve(p, m)
    violations = report["violations"]
    points = enumerate_points(p, m)
    report["curves_checked"] += 1

    if len(points) != p + 1:
        violations.append(
            {"p": p, "m": m, "claim": "point-count", "detail": f"{len(points)} points"}
        )
        return

    torsion = _two_torsion(points)
    symbol = jacobi(m, p)
    expected_torsion = 1 if symbol == -1 else 3
    if len(torsion) != expected_torsion:
        violations.append(
            {
                "p": p,
                "m": m,
                "claim": "two-torsion-structure",
                "detail": f"(m/p) = {symbol} but {len(torsion)} involutions",
            }
        )
        return

    if symbol == -1:
        # cyclic branch: a generator's walk must cover the whole group
        found = _find_order_witness(curve, points, p + 1)
        if found is None or set(found[1]) != set(points):
            violations.append(
                {"p": p, "m": m, "claim": "max-order", "detail": "no generator found"}
            )
            return
        report["cyclic_curves"] += 1
        _, orbit = found
        # orbit[t-1] = t*G, so order(t*G) = (p+1)/gcd(t, p+1); the claim is
        # that a non-residue x forces 2^k to divide that order
        block = 1 << k
        for t in range(1, p + 1):
            x = orbit[t - 1].x
            if jacobi(x, p) == -1:
                report["nonresidue_points_checked"] += 1
                order = (p + 1) // gcd(t, p + 1)
                if order % block != 0:
                    violations.append(
                        {
                            "p": p,
                            "m": m,
                            "claim": "torsion-rule",
                            "detail": f"point {orbit[t - 1]} has order {order}",
                        }
                    )
    else:
        # split branch: an order-(p+1)/2 point plus an outside involution
        # must tile the group as two cosets
        half = (p + 1) // 2
        found = _find_order_witness(curve, points, half)
        if found is None:
            violations.append(
                {"p": p, "m": m, "claim": "max-order", "detail": f"no point of order {half}"}
            )
            return
        _, orbit = found
        orbit_set = set(orbit)
        inside = [pt for pt in torsion if pt in orbit_set]
        outside = [pt for pt in torsion if pt not in orbit_set]
        if len(inside) != 1 or len(outside) != 2:
            violations.append(
                {
                    "p": p,
                    "m": m,
                    "claim": "split-structure",
                    "detail": f"{len(inside)} involutions inside the index-2 subgroup",
                }
            )
            return
        coset = {add(curve, outside[0], q) for q in orbit}
        if orbit_set & coset or orbit_set | coset != set(points):
            violations.append(
                {
                    "p": p,
                    "m": m,
                    "claim": "split-structure",
                    "detail": "coset does not tile the group",
                }
            )
            return
        report["split_curves"] += 1


def _sample_ms(p: int, rng: random.Random) -> list[int]:
    """5 deterministic m values: 3 non-residues + 2 residues, so both branches run."""
    nonres: list[int] = []
    res: list[int] = []
    while len(nonres) < 3 or len(res) < 2:
        m = rng.randrange(1, p)
        if jacobi(m, p) == -1:
            if m not in nonres and len(nonres) < 3:
                nonres.append(m)
        elif m not in res and len(res) < 2:
            res.append(m)
    return sorted(nonres + res)


def verify_theorems(p_max: int) -> dict:
    """Check facts 1-3 for every prime p = 3 (mod 4) up to p_max <= ENUMERATION_LIMIT.

    Every m in 1..p-1 is checked below FULL_SWEEP_BELOW; above it, a
    stratified sample of 5 m values per prime, drawn by random.Random(p),
    so a report depends on p_max alone.  The report's `violations` list
    must come back empty.
    """
    if p_max > ENUMERATION_LIMIT:
        raise ValueError(f"p_max exceeds the enumeration limit {ENUMERATION_LIMIT}")
    report = {
        "p_max": p_max,
        "full_sweep_below": FULL_SWEEP_BELOW,
        "sampled_m_per_prime": 5,
        "primes_checked": 0,
        "curves_checked": 0,
        "cyclic_curves": 0,
        "split_curves": 0,
        "nonresidue_points_checked": 0,
        "violations": [],
    }
    for p in sieve_primes(p_max):
        if p % 4 != 3:
            continue
        report["primes_checked"] += 1
        k = ((p + 1) & -(p + 1)).bit_length() - 1
        if p < FULL_SWEEP_BELOW or (p - 1) // 2 < 3:
            ms = range(1, p)
        else:
            ms = _sample_ms(p, random.Random(p))
        for m in ms:
            _check_curve(p, m, k, report)
    return report
