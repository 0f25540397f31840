import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ubootstrap.geometry import (
    Arc,
    Direction,
    _assemble,
    _rebuild,
    arc_contains,
    arc_intersect,
    ccw_key,
    cross,
    direction_between,
    line_index,
    open_semicircle,
    sort_directions,
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


def arcs_st():
    single = st.one_of(
        st.builds(Arc.point, dir_st),
        st.builds(
            lambda s, e, cs, ce: Arc(s, e, cs, ce) if s != e else Arc.point(s),
            dir_st, dir_st, st.booleans(), st.booleans(),
        ),
    )
    return st.lists(single, max_size=3)


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
    def test_point_and_full(self):
        p = Arc.point(E1)
        assert p.contains(E1) and not p.contains(E2)
        f = Arc.full_circle()
        assert all(f.contains(d) for d in ALL_DIRS)

    def test_punctured_circle(self):
        a = Arc(E1, E1, False, False)
        assert not a.contains(E1)
        assert a.contains(E2) and a.contains(W)

    def test_contains_quadrant(self):
        a = Arc(E1, E2)  # closed first quadrant
        assert a.contains(E1) and a.contains(E2)
        assert a.contains(Direction(1, 1))
        assert not a.contains(Direction(1, -1))
        assert not a.contains(W)

    def test_intersect_abutting_closed_arcs_is_point(self):
        a = [Arc(E1, E2)]
        b = [Arc(E2, W)]
        assert arc_intersect(a, b) == [Arc.point(E2)]

    # _assemble from cuts plus point and gap memberships: gap i is the open
    # arc from cuts[i] to cuts[i + 1], and the last one wraps round

    def test_complement_of_full_is_empty(self):
        cuts = [E1, E2, W, S]
        assert _assemble(cuts, [False] * 4, [False] * 4) == []
        assert _assemble(cuts, [True] * 4, [True] * 4) == [Arc.full_circle()]

    def test_union_of_abutting_closed_arcs_merges(self):
        # [E1, E2] and [E2, W] in, the open lower half out
        got = _assemble([E1, E2, W], [True, True, True], [True, True, False])
        assert got == [Arc(E1, W)]

    def test_union_of_open_abutting_leaves_hole(self):
        # [E1, E2) and (E2, W] in: E2 itself is out
        got = _assemble([E1, E2, W], [True, False, True], [True, True, False])
        assert got == [Arc(E1, E2, True, False), Arc(E2, W, False, True)]
        assert not arc_contains(got, E2)

    def test_complement_of_point(self):
        # one out-point gives the punctured circle, with or without more cuts
        assert _assemble([E2], [False], [True]) == [Arc(E2, E2, False, False)]
        got = _assemble([E1, E2, W, S], [True, False, True, True], [True] * 4)
        assert got == [Arc(E2, E2, False, False)]

    def test_isolated_in_point(self):
        assert _assemble([E2], [True], [False]) == [Arc.point(E2)]
        got = _assemble([E1, E2, W, S], [False, True, False, False], [False] * 4)
        assert got == [Arc.point(E2)]

    def test_normalize_overlapping(self):
        messy = [Arc(E1, W), Arc(E2, S)]  # overlap on second quadrant
        assert _rebuild([messy], lambda m: m[0]) == [Arc(E1, S)]

    @given(arcs_st(), arcs_st())
    @settings(max_examples=150)
    def test_pointwise_semantics(self, a, b):
        i = arc_intersect(a, b)
        for d in ALL_DIRS[::7]:
            assert arc_contains(i, d) == (arc_contains(a, d) and arc_contains(b, d))

    @given(arcs_st())
    @settings(max_examples=100)
    def test_normalize_idempotent(self, a):
        # the assembled form is normal: assembling its own memberships
        # gives it back
        n1 = _rebuild([a], lambda m: m[0])
        assert _rebuild([n1], lambda m: m[0]) == n1
        for d in ALL_DIRS[::7]:
            assert arc_contains(n1, d) == arc_contains(a, d)

    def test_open_semicircle(self):
        sc = open_semicircle(E1)
        assert sc.contains(E2)
        assert not sc.contains(E1) and not sc.contains(W)
        assert not sc.contains(S)
