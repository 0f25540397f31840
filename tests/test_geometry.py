import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ubootstrap.geometry import (
    Arc,
    Direction,
    UNormContext,
    arc_complement,
    arc_contains,
    arc_intersect,
    arc_normalize,
    arc_union,
    ccw_key,
    cross,
    direction_between,
    dot_sign,
    line_index,
    open_semicircle,
    sort_directions,
    u_norm,
    unorm_context,
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
    def test_dot_sign_examples(self):
        assert dot_sign((-1, 0), E1) == -1
        assert dot_sign((0, 5), E1) == 0
        assert dot_sign((2, 3), Direction(1, -1)) == -1

    def test_line_index_examples(self):
        assert line_index((0, 0), Direction(3, -2)) == 0
        assert line_index((1, 1), E1) == 1
        assert line_index((1, 2), Direction(2, -1)) == 0

    @given(site_st, dir_st)
    def test_antisymmetry(self, p, u):
        assert dot_sign(p, u) == -dot_sign(p, u.neg())

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

    def test_complement_of_full_is_empty(self):
        assert arc_complement([Arc.full_circle()]) == []

    def test_intersect_abutting_closed_arcs_is_point(self):
        a = [Arc(E1, E2)]
        b = [Arc(E2, W)]
        assert arc_intersect(a, b) == [Arc.point(E2)]

    def test_union_of_abutting_closed_arcs_merges(self):
        a = [Arc(E1, E2)]
        b = [Arc(E2, W)]
        assert arc_union(a, b) == [Arc(E1, W)]

    def test_union_of_open_abutting_leaves_hole(self):
        a = [Arc(E1, E2, True, False)]
        b = [Arc(E2, W, False, True)]
        got = arc_union(a, b)
        assert got == [Arc(E1, E2, True, False), Arc(E2, W, False, True)]
        assert not arc_contains(got, E2)

    def test_complement_of_point(self):
        got = arc_complement([Arc.point(E2)])
        assert got == [Arc(E2, E2, False, False)]

    def test_normalize_overlapping(self):
        messy = [Arc(E1, W), Arc(E2, S)]  # overlap on second quadrant
        got = arc_normalize(messy)
        assert got == [Arc(E1, S)]

    @given(arcs_st(), arcs_st())
    @settings(max_examples=150)
    def test_de_morgan(self, a, b):
        lhs = arc_complement(arc_union(a, b))
        rhs = arc_intersect(arc_complement(a), arc_complement(b))
        assert lhs == rhs

    @given(arcs_st(), arcs_st())
    @settings(max_examples=150)
    def test_pointwise_semantics(self, a, b):
        u = arc_union(a, b)
        i = arc_intersect(a, b)
        c = arc_complement(a)
        for d in ALL_DIRS[::7]:
            assert arc_contains(u, d) == (arc_contains(a, d) or arc_contains(b, d))
            assert arc_contains(i, d) == (arc_contains(a, d) and arc_contains(b, d))
            assert arc_contains(c, d) == (not arc_contains(a, d))

    @given(arcs_st())
    @settings(max_examples=100)
    def test_normalize_idempotent(self, a):
        n1 = arc_normalize(a)
        assert arc_normalize(n1) == n1

    def test_open_semicircle(self):
        sc = open_semicircle(E1)
        assert sc.contains(E2)
        assert not sc.contains(E1) and not sc.contains(W)
        assert not sc.contains(S)


class TestUNorm:
    def test_zero(self):
        ctx = UNormContext(E2, 0.5, True)
        assert u_norm((0, 0), ctx) == 0.0

    def test_euclidean_when_drift_off(self):
        ctx = UNormContext(E2, 0.5, False)
        assert u_norm((3, 4), ctx) == 5.0

    def test_drift_formula(self):
        ctx = UNormContext(E2, 0.5, True)
        assert u_norm((4, 1), ctx) == pytest.approx(1 + 0.5 * 4)

    def test_context_sigma(self):
        ctx = unorm_context(Direction(-1, 2), E2)
        assert ctx.sigma == pytest.approx(math.atan2(1, 2))
        assert unorm_context(E2, E2).sigma == 0.0

    @given(site_st, site_st)
    def test_triangle_inequality_and_sandwich(self, p, q):
        u = Direction(-1, 5)
        ctx = unorm_context(u, E2)
        s = (p[0] + q[0], p[1] + q[1])
        assert u_norm(s, ctx) <= u_norm(p, ctx) + u_norm(q, ctx) + 1e-9
        # |<p,u>| <= ||p||_u <= 2 ||p||_2
        inner = abs(u.dot(p)) / u.norm()
        assert inner <= u_norm(p, ctx) + 1e-9
        assert u_norm(p, ctx) <= 2 * math.hypot(*p) + 1e-9
