"""Exact discrete geometry on Z^2 and the rational circle.

Directions are primitive integer vectors; every angular comparison is done
with integer (or Fraction) arithmetic, so orders, antipodes and open arcs of
directions are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

Site = tuple[int, int]


# ---------------------------------------------------------------------------
# directions


@dataclass(frozen=True)
class Direction:
    """A rational direction on the unit circle, stored as a reduced integer
    vector (a, b) with gcd(|a|, |b|) = 1.  Represents (a, b) / ||(a, b)||."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ValueError("zero vector is not a direction")
        if gcd(abs(self.a), abs(self.b)) != 1:
            raise ValueError(f"direction ({self.a},{self.b}) is not reduced")

    @staticmethod
    def of(a: int, b: int) -> "Direction":
        """Canonicalize an arbitrary nonzero integer vector."""
        if a == 0 and b == 0:
            raise ValueError("zero vector is not a direction")
        g = gcd(abs(a), abs(b))
        return Direction(a // g, b // g)

    def neg(self) -> "Direction":
        return Direction(-self.a, -self.b)

    def perp(self) -> "Direction":
        """Rotation by +90 degrees (counterclockwise)."""
        return Direction(-self.b, self.a)

    def dot(self, p: Site) -> int:
        return self.a * p[0] + self.b * p[1]

    def norm(self) -> float:
        return math.hypot(self.a, self.b)

    def angle_key(self):
        """Total order key by angle in [0, 2*pi), exact.

        First component: half-plane index (0 for angles in [0, pi)), second
        distinguishes the axis start of each half, third orders within a half
        by -a/b, which is a strictly increasing function of the angle there.
        """
        a, b = self.a, self.b
        if b == 0:
            return (0 if a > 0 else 1, 0, Fraction(0))
        return (0 if b > 0 else 1, 1, Fraction(-a, b))

    def angle(self) -> float:
        """Float angle in [0, 2*pi), for reports only."""
        t = math.atan2(self.b, self.a)
        return t if t >= 0 else t + 2 * math.pi

    def __repr__(self):
        return f"({self.a},{self.b})"


def cross(u: Direction, v: Direction) -> int:
    return u.a * v.b - u.b * v.a


def delta(u: Direction, v: Direction) -> Direction:
    """Direction whose angle is the counterclockwise angle from u to v.

    Complex multiplication v * conj(u) on the integer vectors; the result is
    reduced, so angular distances compare exactly via ``angle_key``.
    """
    return Direction.of(u.a * v.a + u.b * v.b, u.a * v.b - u.b * v.a)


def ccw_key(u: Direction, v: Direction):
    """Sort key for the counterclockwise angular distance from u to v."""
    return delta(u, v).angle_key()


def rotate(u: Direction, r: Direction) -> Direction:
    """Rotate u by the angle of r (complex multiplication)."""
    return Direction.of(u.a * r.a - u.b * r.b, u.a * r.b + u.b * r.a)


def direction_between(v: Direction, w: Direction) -> Direction:
    """Some rational direction strictly inside the open ccw arc from v to w.

    For v == w the arc is read as the full circle minus the point, so any
    direction other than v qualifies.
    """
    c = cross(v, w)
    if c > 0:
        # arc shorter than pi: any positive combination lies inside
        return Direction.of(v.a + w.a, v.b + w.b)
    # arc of length >= pi (or v == w): +90 degrees from v is strictly inside
    return v.perp()


def sort_directions(dirs: Iterable[Direction]) -> list[Direction]:
    return sorted(set(dirs), key=Direction.angle_key)


def strictly_between(a: Direction, b: Direction, d: Direction) -> bool:
    """d lies strictly inside the open ccw arc from a to b; for a == b that
    arc is the full circle minus a."""
    return d != a and (a == b or ccw_key(a, d) < ccw_key(a, b))


def open_arc_overlap(a: tuple[Direction, Direction],
                     b: tuple[Direction, Direction]) -> list[tuple[Direction, Direction]]:
    """The pieces of the intersection of two open ccw arcs, each an open arc
    (start, end), in the angle order of their starts.

    No endpoint of either arc lies in the intersection, so the pieces are
    exactly the gaps between consecutive endpoints that lie in both arcs.
    """
    ends = sort_directions([*a, *b])
    n = len(ends)
    gaps = [(ends[i], ends[(i + 1) % n]) for i in range(n)]
    return [g for g in gaps
            if strictly_between(*a, s := direction_between(*g)) and strictly_between(*b, s)]


# ---------------------------------------------------------------------------
# integer half-plane primitives


def line_index(p: Site, u: Direction) -> int:
    """Index j of the discrete line through p perpendicular to u.

    Because u is reduced, a*x + b*y takes every integer value on Z^2, so the
    j-th non-empty line is exactly {p : a*p.x + b*p.y = j} and the half-plane
    H_u is {p : line_index(p, u) < 0}.
    """
    return u.dot(p)


def euclid(p: Site, q: Site) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])
