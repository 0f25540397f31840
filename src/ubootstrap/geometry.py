"""Exact discrete geometry on Z^2 and the rational circle.

Directions are primitive integer vectors; every angular comparison is done
with integer (or Fraction) arithmetic, so arc computations are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

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


# ---------------------------------------------------------------------------
# integer half-plane primitives


def line_index(p: Site, u: Direction) -> int:
    """Index j of the discrete line through p perpendicular to u.

    Because u is reduced, a*x + b*y takes every integer value on Z^2, so the
    j-th non-empty line is exactly {p : a*p.x + b*p.y = j} and the half-plane
    H_u is {p : line_index(p, u) < 0}.
    """
    return u.dot(p)


# ---------------------------------------------------------------------------
# arcs


@dataclass(frozen=True)
class Arc:
    """Counterclockwise arc of the circle from ``start`` to ``end``.

    Degenerate forms: start == end with both endpoints closed is the single
    direction; start == end with both endpoints open is the full circle minus
    that direction; ``full`` marks the whole circle.
    """

    start: Direction
    end: Direction
    closed_start: bool = True
    closed_end: bool = True
    full: bool = False

    def __post_init__(self):
        if self.full:
            if self.start != self.end or not (self.closed_start and self.closed_end):
                raise ValueError("full arc must carry matching closed endpoints")
        elif self.start == self.end and self.closed_start != self.closed_end:
            raise ValueError("half-closed arc with equal endpoints is ambiguous")

    @staticmethod
    def full_circle() -> "Arc":
        e1 = Direction(1, 0)
        return Arc(e1, e1, True, True, full=True)

    @staticmethod
    def point(d: Direction) -> "Arc":
        return Arc(d, d, True, True)

    def is_point(self) -> bool:
        return not self.full and self.start == self.end and self.closed_start

    def contains(self, d: Direction) -> bool:
        if self.full:
            return True
        if self.start == self.end:
            inside = d == self.start
            return inside if self.closed_start else not inside
        if d == self.start:
            return self.closed_start
        if d == self.end:
            return self.closed_end
        return ccw_key(self.start, d) < ccw_key(self.start, self.end)

    def __repr__(self):
        if self.full:
            return "Arc(full)"
        if self.is_point():
            return f"Arc[{self.start}]"
        lo = "[" if self.closed_start else "("
        hi = "]" if self.closed_end else ")"
        return f"Arc{lo}{self.start},{self.end}{hi}"


def arc_contains(arcs: Sequence[Arc], d: Direction) -> bool:
    return any(a.contains(d) for a in arcs)


def _cut_points(arc_lists: Sequence[Sequence[Arc]]) -> list[Direction]:
    cuts = []
    for arcs in arc_lists:
        for a in arcs:
            if not a.full:
                cuts.append(a.start)
                cuts.append(a.end)
    return sort_directions(cuts)


def _assemble(cuts: list[Direction], pt_in: list[bool], gap_in: list[bool]) -> list[Arc]:
    """Rebuild a normalized arc list from membership on the circular
    arrangement: pt_in[i] for the cut direction, gap_in[i] for the open gap
    from cuts[i] to cuts[(i+1) % n]."""
    n = len(cuts)
    if all(pt_in) and all(gap_in):
        return [Arc.full_circle()]
    if not any(pt_in) and not any(gap_in):
        return []
    if n == 1:
        # single cut: either the point, the punctured circle, or handled above
        if pt_in[0] and not gap_in[0]:
            return [Arc.point(cuts[0])]
        return [Arc(cuts[0], cuts[0], False, False)]

    # pieces in circular order: pt 0, gap 0, pt 1, gap 1, ...
    member = []
    for i in range(n):
        member.append(("pt", i, pt_in[i]))
        member.append(("gap", i, gap_in[i]))
    m = len(member)
    # rotate to start just after an out->in transition
    start = None
    for i in range(m):
        if member[i][2] and not member[i - 1][2]:
            start = i
            break
    assert start is not None
    out: list[Arc] = []
    i = start
    seen = 0
    while seen < m:
        if not member[i][2]:
            i = (i + 1) % m
            seen += 1
            continue
        run = []
        while member[i][2] and seen < m:
            run.append(member[i])
            i = (i + 1) % m
            seen += 1
        kind0, i0, _ = run[0]
        kind1, i1, _ = run[-1]
        if kind0 == "pt":
            s, cs = cuts[i0], True
        else:
            s, cs = cuts[i0], False
        if kind1 == "pt":
            e, ce = cuts[i1], True
        else:
            e, ce = cuts[(i1 + 1) % n], False
        if s == e and len(run) == 1 and kind0 == "pt":
            out.append(Arc.point(s))
        elif s == e and not cs and not ce:
            out.append(Arc(s, e, False, False))
        else:
            out.append(Arc(s, e, cs, ce))
    out.sort(key=lambda a: a.start.angle_key())
    return out


def _rebuild(arc_lists: Sequence[Sequence[Arc]], predicate) -> list[Arc]:
    """Evaluate ``predicate(memberships)`` over the arrangement of all input
    arc lists and assemble the result.  memberships is a tuple of booleans,
    one per input list."""
    cuts = _cut_points(arc_lists)
    if not cuts:
        value = predicate(tuple(bool(arcs) and arcs[0].full for arcs in arc_lists))
        return [Arc.full_circle()] if value else []
    n = len(cuts)
    pt_in, gap_in = [], []
    for i in range(n):
        pt_in.append(predicate(tuple(arc_contains(arcs, cuts[i]) for arcs in arc_lists)))
        sample = direction_between(cuts[i], cuts[(i + 1) % n])
        gap_in.append(predicate(tuple(arc_contains(arcs, sample) for arcs in arc_lists)))
    return _assemble(cuts, pt_in, gap_in)


def arc_intersect(a: Sequence[Arc], b: Sequence[Arc]) -> list[Arc]:
    return _rebuild([a, b], lambda m: m[0] and m[1])


def open_semicircle(d: Direction) -> Arc:
    """Open semicircle {e : cross(d, e) > 0}, i.e. strictly ccw of d."""
    return Arc(d, d.neg(), False, False)


def closed_semicircle(d: Direction) -> Arc:
    return Arc(d, d.neg(), True, True)


def euclid(p: Site, q: Site) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])
