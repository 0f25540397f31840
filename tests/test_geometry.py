import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ubootstrap.family import StableSet
from ubootstrap.geometry import (
    Direction,
    ccw_key,
    cross,
    direction_between,
    line_index,
    open_arc_overlap,
    sort_directions,
    strictly_between,
)

E1 = Direction(1, 0)
E2 = Direction(0, 1)
W = Direction(-1, 0)
S = Direction(0, -1)


def small_directions(limit=7):
    out = []
    for a in range(-limit, limit + 1):
        for b in range(-limit, limit + 1):
            if (a, b) != (0, 0):
                out.append(Direction.of(a, b))
    return sort_directions(out)

ALL_DIRS = small_directions()

dir_st = st.sampled_from(ALL_DIRS)
site_st = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


# an open ccw arc (start, end); (p, p) is the circle minus p
open_arc_st = st.tuples(dir_st, dir_st)
AXES = (E1, E2, W, S)


class TestDirection:
    def test_canonical(self):
        assert Direction.of(4, -6) == Direction(2, -3)
        assert Direction.of(0, 5) == E2
        with pytest.raises(ValueError):
            Direction.of(0, 0)
        with pytest.raises(ValueError):
            Direction(2, 4)

    def test_angle_order_matches_atan2(self):
        keys = [d.angle_key() for d in ALL_DIRS]
        assert keys == sorted(keys)
        angles = [d.angle() for d in ALL_DIRS]
        assert angles == sorted(angles)

    def test_perp_is_ccw_quarter_turn(self):
        assert E1.perp() == E2
        assert E2.perp() == W
        assert Direction(1, 2).perp() == Direction(-2, 1)

    @given(dir_st, dir_st)
    def test_ccw_key_agrees_with_float_angles(self, u, v):
        exact = ccw_key(u, v)
        approx = (v.angle() - u.angle()) % (2 * math.pi)
        for w in ALL_DIRS:
            other = ccw_key(u, w)
            approx_w = (w.angle() - u.angle()) % (2 * math.pi)
            if abs(approx - approx_w) > 1e-9:
                assert (exact < other) == (approx < approx_w)

    @given(dir_st, dir_st)
    def test_direction_between(self, v, w):
        m = direction_between(v, w)
        assert m != v
        if v != w:
            assert m != w
            # strictly inside going ccw
            assert ccw_key(v, m) < ccw_key(v, w)


class TestHalfPlanePrimitives:
    def test_line_index_examples(self):
        assert line_index((0, 0), Direction(3, -2)) == 0
        assert line_index((1, 1), E1) == 1
        assert line_index((1, 2), Direction(2, -1)) == 0

    @given(site_st, site_st, dir_st)
    def test_additivity(self, p, q, u):
        s = (p[0] + q[0], p[1] + q[1])
        assert line_index(s, u) == line_index(p, u) + line_index(q, u)
        d = (p[0] - q[0], p[1] - q[1])
        assert line_index(d, u) == line_index(p, u) - line_index(q, u)


class TestArcs:
    # open ccw arcs of directions, and stable sets on the arrangement of the
    # axes: point i says whether AXES[i] is in, gap i whether the open
    # quadrant from AXES[i] to AXES[i + 1] is

    def test_point_and_full(self):
        p = StableSet(AXES, (True, False, False, False), (False,) * 4)
        assert p.contains(E1) and not p.contains(E2) and not p.contains(Direction(1, 1))
        assert p.isolated_points() == [E1] and p.arcs() == []
        f = StableSet(AXES, (True,) * 4, (True,) * 4)
        assert all(f.contains(d) for d in ALL_DIRS)

    def test_punctured_circle(self):
        assert not strictly_between(E1, E1, E1)
        assert strictly_between(E1, E1, E2) and strictly_between(E1, E1, W)

    def test_contains_quadrant(self):
        a = StableSet(AXES, (True, True, False, False), (True, False, False, False))
        assert a.contains(E1) and a.contains(E2)
        assert a.contains(Direction(1, 1))
        assert not a.contains(Direction(1, -1))
        assert not a.contains(W)
        assert a.arcs() == [(E1, E2)] and a.endpoint_directions() == [E1, E2]
        # the open quadrant
        assert strictly_between(E1, E2, Direction(1, 1))
        assert not any(strictly_between(E1, E2, d) for d in (E1, E2, Direction(1, -1), W))

    def test_intersect_abutting_closed_arcs_is_point(self):
        # the closed first quadrant meets the closed semicircle from E2 to
        # S in E2 alone
        a = StableSet(AXES, (True, True, False, False), (True, False, False, False))
        assert a.semicircle(E2, closed=True) == ([E2], False)
        assert a.semicircle(E2, closed=False) == ([], False)
        assert a.semicircle(S, closed=False) == ([], True)

    def test_complement_of_full_is_empty(self):
        empty = StableSet(AXES, (False,) * 4, (False,) * 4)
        assert empty.is_empty() and not any(empty.contains(d) for d in ALL_DIRS)
        full = StableSet(AXES, (True,) * 4, (True,) * 4)
        assert not full.is_empty()
        # the full circle has no ends
        assert full.arcs() == [] and full.endpoint_directions() == []
        assert full.semicircle(E1, closed=False) == ([], True)

    def test_union_of_abutting_closed_arcs_merges(self):
        # [E1, E2] and [E2, W] in, the open lower half out
        got = StableSet(AXES, (True, True, True, False), (True, True, False, False))
        assert got.arcs() == [(E1, W)]
        assert got.endpoint_directions() == [E1, W] and got.isolated_points() == []

    def test_union_of_open_abutting_leaves_hole(self):
        # the open upper half without E2: (E1, E2) and (E2, W)
        got = open_arc_overlap((E1, W), (E2, E2))
        assert got == [(E1, E2), (E2, W)]
        assert not any(strictly_between(*piece, E2) for piece in got)

    def test_complement_of_point(self):
        # one out-point gives the punctured circle, a second one two pieces
        assert open_arc_overlap((E2, E2), (E2, E2)) == [(E2, E2)]
        assert open_arc_overlap((E2, E2), (S, S)) == [(E2, S), (S, E2)]

    def test_isolated_in_point(self):
        got = StableSet(AXES, (False, True, False, False), (False,) * 4)
        assert got.isolated_points() == got.endpoint_directions() == [E2]
        assert got.arcs() == []
        assert got.semicircle(E1, closed=False) == ([E2], False)

    @given(open_arc_st, open_arc_st)
    @example((E2, E2), (E2, E2))
    @example((E2, E2), (E1, W))
    # two pieces, the second running through angle 0
    @example((E2, Direction(1, 1)), (Direction(1, -1), W))
    @settings(max_examples=150)
    def test_pointwise_semantics(self, a, b):
        got = open_arc_overlap(a, b)
        assert got == sorted(got, key=lambda piece: piece[0].angle_key())
        for d in ALL_DIRS:
            inside = sum(strictly_between(*piece, d) for piece in got)
            assert inside == (strictly_between(*a, d) and strictly_between(*b, d))

    def test_open_semicircle(self):
        assert strictly_between(E1, W, E2)
        assert not strictly_between(E1, W, E1) and not strictly_between(E1, W, W)
        assert not strictly_between(E1, W, S)
        axes = StableSet(AXES, (True,) * 4, (False,) * 4)
        assert axes.semicircle(E1, closed=False) == ([E2], False)
        assert axes.semicircle(E1, closed=True) == ([E1, E2, W], False)
