import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ubootstrap import family
from ubootstrap.families import builtin
from ubootstrap.family import (
    INFINITE_WITHIN_WINDOW,
    Classification,
    EmptyFamilyError,
    Kind,
    NoDriftDirectionError,
    NotCriticalError,
    SearchBudgetExceededError,
    UpdateFamily,
    alpha_star,
    classify,
    consecutive_pairs,
    difficulty,
    difficulty_side,
    iceberg_u0,
    is_stable,
    kappa,
    nu,
    quasi_stable_set,
    rho_bound,
    stable_set,
    voracious_check,
)
from ubootstrap.geometry import Direction, ccw_key, cross, direction_between, sort_directions
from ubootstrap.lattice import StripVerdict, strip_scan

U2 = builtin("two-neighbour")
DUARTE = builtin("duarte")
VEH = builtin("van-enter-hulshof")
R1 = builtin("r1")
R3 = builtin("r3")
E1, E2 = Direction(1, 0), Direction(0, 1)
# 1-4 rules of 1-3 sites within radius 2
OFFSETS = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
SMALL_FAMILIES = st.lists(st.lists(st.sampled_from(OFFSETS), min_size=1, max_size=3),
                          min_size=1, max_size=4).map(UpdateFamily.of)


def sample_directions(count):
    """Primitive integer vectors, by growing max-coordinate, then angle."""
    out = []
    lim = 1
    while len(out) < count:
        lim += 1
        out = [Direction.of(a, b)
               for a in range(-lim, lim + 1)
               for b in range(-lim, lim + 1)
               if (a, b) != (0, 0) and math.gcd(abs(a), abs(b)) == 1]
        out = sort_directions(out)
    return out[:count]


def stable_by_rules(d, U):
    """The definition: u is stable iff no rule lies inside H_u."""
    return all(any(d.dot(x) >= 0 for x in rule) for rule in U.rules)


class TestFamilyBasics:
    def test_nu_examples(self):
        assert nu(U2) == 2.0
        assert nu(UpdateFamily.of([[(1, 0)]])) == 1.0
        assert nu(DUARTE) == 2.0

    def test_nu_empty(self):
        with pytest.raises(EmptyFamilyError):
            nu(UpdateFamily(rules=()))

    def test_rules_deduplicated(self):
        U = UpdateFamily.of([[(1, 0), (0, 1)], [(0, 1), (1, 0)]])
        assert len(U.rules) == 1

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            UpdateFamily.of([[(0, 0), (1, 0)]])


class TestStability:
    def test_is_stable_examples(self):
        assert is_stable(E1, U2)
        assert not is_stable(Direction(1, 1), U2)
        assert not any(is_stable(d, R1) for d in sample_directions(40))

    def test_stable_set_two_neighbour(self):
        S = stable_set(U2)
        assert sorted(S.isolated_points(), key=Direction.angle_key) == [
            E1, E2, Direction(-1, 0), Direction(0, -1)]
        assert len(S.arcs) == 4

    def test_stable_set_r3_full(self):
        assert stable_set(R3).is_full()

    def test_stable_set_r1_empty(self):
        assert stable_set(R1).is_empty()

    def test_arc_membership_matches_is_stable(self):
        dirs = sample_directions(360)
        for U in (U2, DUARTE, VEH, R1, R3, builtin("mixed-arc"), builtin("asym-balanced")):
            S = stable_set(U)
            for d in dirs:
                assert S.contains(d) == stable_by_rules(d, U), (U.name, d)
                assert is_stable(d, U) == stable_by_rules(d, U), (U.name, d)

    @given(SMALL_FAMILIES)
    @settings(max_examples=60, deadline=None)
    def test_stable_set_matches_rule_definition_on_random_families(self, U):
        # every cut direction, one direction inside each gap between
        # consecutive cuts, and a fixed spread of directions
        perps = {Direction.of(*x).perp() for rule in U.rules for x in rule}
        cuts = sort_directions(perps | {d.neg() for d in perps})
        gaps = [direction_between(cuts[i], cuts[(i + 1) % len(cuts)]) for i in range(len(cuts))]
        S = stable_set(U)
        for d in cuts + gaps + sample_directions(360):
            assert S.contains(d) == stable_by_rules(d, U), d
            assert is_stable(d, U) == stable_by_rules(d, U), d


class TestDifficulty:
    def test_two_neighbour_axis(self):
        r = difficulty(E1, U2, window=3)
        assert r.value == 1
        assert r.witness is not None and len(r.witness) == 1
        assert voracious_check(r.witness, E1, U2, alpha_cap=1)

    def test_unstable_is_zero(self):
        r = difficulty(Direction(1, 1), U2)
        assert r.value == 0 and r.witness == frozenset()

    def test_duarte_drift_signature(self):
        r = difficulty(E2, DUARTE, window=6, max_cardinality=2)
        assert r.value is INFINITE_WITHIN_WINDOW
        assert r.plus.value == 1
        assert r.minus.value is INFINITE_WITHIN_WINDOW
        assert r.alpha_bar == 1

    def test_duarte_minus_exhaustive_window6(self):
        # exhaustive over |Z| <= 3 in the radius-6 box; the size-4 sweep is
        # exercised at a smaller radius to keep the suite quick
        r = difficulty_side(E2, "minus", DUARTE, window=6, max_cardinality=3)
        assert r.value is INFINITE_WITHIN_WINDOW
        r4 = difficulty_side(E2, "minus", DUARTE, window=3, max_cardinality=4)
        assert r4.value is INFINITE_WITHIN_WINDOW

    def test_duarte_side_certificates(self):
        # at u = (0, 1) the plus side resolves at 1 and the minus side does
        # not: alpha(u) >= 2 holds, but not both sides are >= 2
        from ubootstrap.family import _sides_below
        p, m = _sides_below(DUARTE, E2, 2, 8)
        assert p.resolved and p.value == 1
        assert not m.resolved
        assert not all(r.resolved for r in (p, m))
        assert any(r.resolved for r in (p, m))

    def test_candidate_cap_raises_typed_error(self, monkeypatch):
        # a window no other test uses: difficulty searches are cached
        monkeypatch.setattr(family, "CANDIDATE_CAP", 3)
        with pytest.raises(SearchBudgetExceededError):
            difficulty_side(E1, "plus", builtin("gg-two"), window=7, max_cardinality=2)

    def test_each_candidate_scanned_once(self, monkeypatch):
        # one strip scan decides both sides, and deepening the search
        # continues from the last cardinality searched; a name no other test
        # uses keeps the cached searches out
        calls = []

        def counted(u, Z, U):
            calls.append((u, frozenset(Z)))
            return strip_scan(u, Z, U)

        monkeypatch.setattr(family, "strip_scan", counted)
        gg = builtin("gg-two")
        c = classify(UpdateFamily.of(gg.rules, name="gg-two-scan-count"))
        assert c.alpha == 2 and c.balanced
        assert calls and len(calls) == len(set(calls))

    @given(SMALL_FAMILIES, st.sampled_from(sample_directions(16)))
    # (0, 0) marches right only and (0, 1) both ways: the plus witness comes
    # first, and the search must go on for the minus one at the same size
    @example(UpdateFamily.of([[(-2, 0), (0, -1)], [(1, 0), (2, 0), (0, -1)],
                              [(1, 1), (0, -1)], [(0, 1), (0, -1)]]), E2)
    @settings(max_examples=25, deadline=None)
    def test_search_matches_per_side_oracle(self, U, u):
        # the oracle is the search as it was before it shared scans: the
        # box's sites in (x, y) order, their combinations in lexicographic
        # order reduced under translation along the line, and one strip
        # scan per candidate and side
        window, cap = 3, 2
        sites = [(x, y) for x in range(-window, window + 1)
                 for y in range(-window, window + 1) if u.dot((x, y)) >= 0]

        def oracle(side):
            if not is_stable(u, U):
                return 0
            for k in range(1, cap + 1):
                seen = set()
                for combo in itertools.combinations(sites, k):
                    Z = family._canonical_translate(combo, u)
                    if Z in seen:
                        continue
                    seen.add(Z)
                    scan = strip_scan(u, Z, U)
                    if getattr(scan, "verdict_" + side) is StripVerdict.INFINITE_LINE:
                        return k
            return INFINITE_WITHIN_WINDOW

        for side in ("plus", "minus"):
            r = difficulty_side(u, side, U, window, cap)
            assert r.value == oracle(side), side
            if r.resolved and r.value > 0:
                scan = strip_scan(u, r.witness, U)
                assert getattr(scan, "verdict_" + side) is StripVerdict.INFINITE_LINE

    def test_veh_axis_difficulties(self):
        assert difficulty(E1, VEH, window=5).value == 1
        r = difficulty(E2, VEH, window=5)
        assert r.value == 2
        assert voracious_check(r.witness, E2, VEH, alpha_cap=2)

    def test_positive_iff_stable(self):
        for U in (U2, DUARTE, VEH):
            for d in sample_directions(24):
                r = difficulty_side(d, "plus", U, window=3, max_cardinality=1)
                if not is_stable(d, U):
                    assert r.value == 0
                else:
                    assert r.value is INFINITE_WITHIN_WINDOW or r.value >= 1


class TestClassification:
    def test_two_neighbour(self):
        c = classify(U2)
        assert c.kind is Kind.CRITICAL and c.alpha == 1 and c.balanced

    def test_duarte(self):
        c = classify(DUARTE)
        assert c.kind is Kind.CRITICAL and c.alpha == 1
        assert not c.balanced and c.drift
        assert c.u_star in (E2, Direction(0, -1))
        assert set(c.droplet_directions) == {E1, E2, Direction(-1, 0), Direction(0, -1)}

    def test_veh(self):
        c = classify(VEH)
        assert c.kind is Kind.CRITICAL and c.alpha == 1
        assert not c.balanced and not c.drift
        assert c.u_star in (E2, Direction(0, -1))

    def test_r1_supercritical(self):
        assert classify(R1).kind is Kind.SUPERCRITICAL

    def test_r3_subcritical(self):
        assert classify(R3).kind is Kind.SUBCRITICAL

    def test_stress_families(self):
        c = classify(builtin("asym-balanced"))
        assert c.kind is Kind.CRITICAL and c.alpha == 1 and c.balanced
        c = classify(builtin("mixed-arc"))
        assert c.kind is Kind.CRITICAL and c.alpha == 1 and c.balanced
        c = classify(builtin("gg-two"))
        assert c.kind is Kind.CRITICAL and c.alpha == 2 and c.balanced

    def test_balanced_directions_meet_every_open_semicircle(self):
        for name in ("two-neighbour", "asym-balanced", "mixed-arc", "gg-two"):
            c = classify(builtin(name))
            order = sort_directions(c.droplet_directions)
            pi_key = Direction(-1, 0).angle_key()
            for i, d in enumerate(order):
                nxt = order[(i + 1) % len(order)]
                assert ccw_key(d, nxt) < pi_key, (name, d, nxt)

    def test_unbalanced_star_exceeds_alpha(self):
        for name in ("duarte", "van-enter-hulshof"):
            c = classify(builtin(name))
            for d in (c.u_star, c.u_star.neg()):
                r = difficulty(d, builtin(name), window=6, max_cardinality=c.alpha)
                assert r.value is INFINITE_WITHIN_WINDOW or r.value > c.alpha

    @pytest.mark.parametrize("R,K", [(2, K) for K in range(2, 6)] + [(3, K) for K in range(3, 8)])
    def test_cross_threshold_closed_form(self, R, K):
        # radius-R cross, any K of its 4R sites: an axis direction has R
        # sites in its open half-plane and every other direction 2R, so the
        # family is supercritical for K <= R, subcritical for K > 2R, and in
        # between critical and balanced with alpha = K - R
        cross_sites = [(i * s, 0) for i in range(1, R + 1) for s in (1, -1)] + \
                      [(0, i * s) for i in range(1, R + 1) for s in (1, -1)]
        c = classify(UpdateFamily.of(itertools.combinations(cross_sites, K)))
        if K <= R:
            assert c.kind is Kind.SUPERCRITICAL
        elif K > 2 * R:
            assert c.kind is Kind.SUBCRITICAL
        else:
            assert c.kind is Kind.CRITICAL
            assert c.alpha == K - R and c.balanced

    def test_symmetry_covariance(self):
        # kind, alpha and balancedness are invariant under the 8 symmetries
        maps = [(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
                (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0)]
        for name in ("duarte", "asym-balanced", "mixed-arc"):
            base = classify(builtin(name))
            for m in maps:
                c = classify(builtin(name).transformed(m))
                assert c.kind is base.kind
                assert c.alpha == base.alpha
                assert c.balanced == base.balanced

    def test_stable_set_rotates_with_family(self):
        rot = (0, -1, 1, 0)  # 90 degrees ccw
        S0 = stable_set(DUARTE)
        S1 = stable_set(DUARTE.transformed(rot))
        for d in sample_directions(90):
            rd = Direction.of(-d.b, d.a)
            assert S0.contains(d) == S1.contains(rd)


class TestQuasiStable:
    def test_examples(self):
        assert set(quasi_stable_set(U2)) == {E1, E2, Direction(-1, 0), Direction(0, -1)}
        q = quasi_stable_set(UpdateFamily.of([[(1, 2)]]))
        assert set(q) == {Direction(-2, 1), Direction(2, -1)}
        assert set(quasi_stable_set(DUARTE)) == {E1, E2, Direction(-1, 0), Direction(0, -1)}

    def test_double_halfplane_guarantee(self):
        # consecutive directions of S union Q admit a rule in the closed
        # intersection of both half-planes
        for name in ("two-neighbour", "duarte", "van-enter-hulshof",
                     "asym-balanced", "mixed-arc", "gg-two"):
            U = builtin(name)
            S = stable_set(U)
            dirs = set(quasi_stable_set(U)) | set(S.endpoint_directions())
            order = sort_directions(dirs)
            for i, u in enumerate(order):
                v = order[(i + 1) % len(order)]
                gap = None
                # skip pairs whose open gap meets S (not consecutive in S u Q)
                from ubootstrap.geometry import Arc, arc_intersect
                if u != v:
                    inter = arc_intersect(list(S.arcs), [Arc(u, v, False, False)])
                    if inter:
                        continue
                ok = any(
                    all(u.dot(x) <= 0 and v.dot(x) <= 0 for x in rule)
                    for rule in U.rules
                )
                assert ok, (name, u, v)


class TestVoracity:
    def test_examples(self):
        assert voracious_check([(0, 0)], E1, U2, alpha_cap=1)
        assert not voracious_check([], E1, U2, alpha_cap=1)
        assert voracious_check([(0, 0)], E2, DUARTE, alpha_cap=1)

    def test_bounded_multiplicity(self):
        # a few translates of the witness fill a long стretch of the line
        from ubootstrap.lattice import Box, HalfPlane, Window, closure
        for name, u in [("two-neighbour", E1), ("duarte", E2), ("van-enter-hulshof", E2)]:
            U = builtin(name)
            Z = difficulty_side(u, "plus", U, window=5, max_cardinality=2).witness
            t = (u.b, -u.a)
            found = False
            for reps in range(1, 9):
                for spacing in (8, 12, 16):
                    sites = {(z[0] + k * spacing * t[0], z[1] + k * spacing * t[1])
                             for z in Z for k in range(reps)}
                    span = spacing * max(1, reps - 1) + 24
                    w = Window(Box(-span, -span, span + 1, span + 1), HalfPlane(u, 0))
                    got = closure(sites, w, U)
                    seg = [(i * t[0], i * t[1]) for i in range(0, spacing * (reps - 1) + 1)]
                    if all(s in got for s in seg):
                        found = True
                        break
                if found:
                    break
            assert found, name


class TestAlphaStarRhoKappa:
    def test_alpha_star_examples(self):
        assert alpha_star(U2, E2).value == 1
        assert alpha_star(DUARTE, E2).value == 1
        assert alpha_star(U2, Direction(1, 1)).value == 0
        assert alpha_star(VEH, E2).value == 2

    def test_rho_zero_for_alpha_one(self):
        c = classify(U2)
        rb = rho_bound(U2, c.droplet_directions, alpha=1)
        assert rb.value == 0.0
        rb = rho_bound(builtin("mixed-arc"), classify(builtin("mixed-arc")).droplet_directions, alpha=1)
        assert rb.value == 0.0

    def test_rho_enumeration_veh(self):
        # three-subset threshold family at difficulty two: helper sets of
        # size one never displace infections next to the hard axis
        rb = rho_bound(VEH, [E2, Direction(0, -1)], alpha=2, window=4)
        assert rb.value == 0.0

    def test_rho_measures_displacement(self):
        # crafted family: two below plus one far helper infects one site
        fam = UpdateFamily.of([
            [(0, -1), (0, -2), (2, 1)],
            [(0, -1), (0, -2), (-2, 1)],
            [(-2, 0), (-1, 0), (0, -1)],
            [(1, 0), (2, 0), (0, -1)],
        ])
        rb = rho_bound(fam, [E2], alpha=2, window=3)
        assert rb.value >= math.sqrt(5) - 1e-9

    def test_kappa(self):
        c2 = classify(U2)
        assert kappa(U2, c2, 0.0) == 4.0
        cd = classify(DUARTE)
        assert kappa(DUARTE, cd, 0.0) == 6.0
        with pytest.raises(NotCriticalError):
            kappa(R1, classify(R1), 0.0)

    def test_gg_two_rho(self):
        c = classify(builtin("gg-two"))
        rb = rho_bound(builtin("gg-two"), c.droplet_directions, alpha=2, window=3)
        assert rb.value == 0.0


class TestIcebergU0:
    def test_duarte(self):
        c = classify(DUARTE)
        S = stable_set(DUARTE)
        ustar = E2 if c.u_star == E2 else c.u_star
        u0 = iceberg_u0(DUARTE, E2, S)
        # strictly between u* and the nearest forbidden perpendicular (-1,1)
        assert cross(E2, u0) > 0
        assert ccw_key(E2, u0) < ccw_key(E2, Direction(-1, 1))
        assert S.contains(u0)

    def test_closedness_on_window(self):
        # triangles with faces u0, u*, u are closed next to the half-plane
        from ubootstrap.lattice import Box, HalfPlane, Window, closure
        from ubootstrap.geometry import line_index
        u0 = iceberg_u0(DUARTE, E2, stable_set(DUARTE))
        u = Direction.of(u0.a, u0.b + 8)  # between u0 and u*
        tri = set()
        for x in range(-80, 81):
            for y in range(-20, 21):
                if line_index((x, y), u) >= 0 and line_index((x, y), u0) < 18 \
                        and line_index((x, y), E2) < 6:
                    tri.add((x, y))
        # the construction must be looked at in full: no vertex beyond the box
        assert all(-70 < x < 70 and -15 < y < 15 for x, y in tri)
        w = Window(Box(-90, -90, 91, 91), HalfPlane(u, 0))
        got = closure(tri, w, DUARTE)
        assert got == tri

    def test_no_drift_family(self):
        with pytest.raises(NoDriftDirectionError):
            iceberg_u0(U2, E2, stable_set(U2))
        with pytest.raises(NoDriftDirectionError):
            iceberg_u0(VEH, E2, stable_set(VEH))
