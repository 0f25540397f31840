import functools
import hashlib
import itertools
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ubootstrap import family
from ubootstrap.families import FAMILY_IDS, builtin
from ubootstrap.family import (
    INFINITE_WITHIN_WINDOW,
    Classification,
    EmptyFamilyError,
    Kind,
    NoDriftDirectionError,
    NotCriticalError,
    SearchBudgetExceededError,
    StripHeightExceededError,
    UpdateFamily,
    classify,
    difficulty,
    iceberg_u0,
    is_stable,
    kappa,
    nu,
    quasi_stable_set,
    rho_bound,
    stable_set,
)
from ubootstrap.geometry import Direction, ccw_key, cross, direction_between, sort_directions
from ubootstrap.lattice import (
    Box,
    HalfPlane,
    StripVerdict,
    Torus,
    closure_rescan,
    strip_scan,
    sweep,
    torus_closure_grid,
)

U2 = builtin("two-neighbour")
DUARTE = builtin("duarte")
DUARTE_MIRROR = DUARTE.transformed((-1, 0, 0, 1))  # x -> -x swaps the sides of (0, 1)
VEH = builtin("van-enter-hulshof")
R1 = builtin("r1")
R3 = builtin("r3")
E1, E2 = Direction(1, 0), Direction(0, 1)
# 1-4 rules of 1-3 sites within radius 2
OFFSETS = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
SMALL_FAMILIES = st.lists(st.lists(st.sampled_from(OFFSETS), min_size=1, max_size=3),
                          min_size=1, max_size=4).map(UpdateFamily.of)


def _compose(m, n):
    """The map m after n, both as (m0, m1, m2, m3): (x, y) -> (m0 x + m1 y, m2 x + m3 y)."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


# GL2(Z) is generated by the shears and the two reflections below
UNIMODULAR = st.lists(st.sampled_from([(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1),
                                       (-1, 0, 0, 1), (0, 1, 1, 0)]),
                      max_size=4).map(lambda ms: functools.reduce(_compose, ms, (1, 0, 0, 1)))
# the 8 symmetries of the square lattice: 4 rotations, then 4 reflections
SYMMETRIES = [(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
              (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0)]


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


def cuts_by_rules(U, *extra):
    """The perpendiculars of every rule site, both ways, and ``extra``,
    sorted by angle."""
    perps = {Direction.of(*x).perp() for rule in U.rules for x in rule}
    return sort_directions(perps | {d.neg() for d in perps} | set(extra))


def voracious(Z, u, U):
    """H_u plus Z infects infinitely many sites of the boundary line."""
    scan = strip_scan(u, Z, U)
    return StripVerdict.INFINITE_LINE in scan.verdicts


def canonical_translate(Z, u):
    """Shift Z along the boundary line so the minimal line position lands in
    the fundamental domain [0, a^2 + b^2)."""
    k = min(u.b * x - u.a * y for x, y in Z) // (u.a * u.a + u.b * u.b)
    return frozenset((x - k * u.b, y + k * u.a) for x, y in Z)


def helper_sets(sites, u, k):
    """The size-k subsets of ``sites`` in lexicographic order of their
    combinations, each reduced under translation along the line, first
    occurrences only."""
    seen, out = set(), []
    for combo in itertools.combinations(sites, k):
        Z = canonical_translate(combo, u)
        if Z not in seen:
            seen.add(Z)
            out.append(Z)
    return out


class TestFamilyBasics:
    def test_nu_examples(self):
        assert nu(U2) == 2.0
        assert nu(UpdateFamily.of([[(1, 0)]])) == 1.0
        assert nu(DUARTE) == 2.0

    def test_nu_empty(self):
        with pytest.raises(EmptyFamilyError):
            nu(UpdateFamily(rules=()))

    def test_empty_family_compiles(self):
        U = UpdateFamily(rules=())
        assert U.hood == () and U.circuit == () and U.reach == 0
        for fn in (stable_set, quasi_stable_set):
            with pytest.raises(EmptyFamilyError):
                fn(U)
        with pytest.raises(EmptyFamilyError):
            difficulty(E1, U)

    def test_rules_deduplicated(self):
        U = UpdateFamily.of([[(1, 0), (0, 1)], [(0, 1), (1, 0)]])
        assert len(U.rules) == 1

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            UpdateFamily.of([[(0, 0), (1, 0)]])


class TestCompiledFamily:
    def test_hash_is_the_rules_hash(self):
        gg = builtin("gg-two")
        assert hash(gg) == hash(gg.rules)
        renamed = UpdateFamily.of(gg.rules, name="renamed")
        assert hash(renamed) == hash(gg) and renamed != gg

    def test_pickle_carries_no_memo(self):
        U = UpdateFamily.of(U2.rules, name="two-neighbour-pickled")
        classify(U)
        assert U.fires
        V = pickle.loads(pickle.dumps(U))
        assert V == U and hash(V) == hash(U) and not V.fires
        assert (V.hood, V.circuit, V.reach) == (U.hood, U.circuit, U.reach)

    def test_hash_is_the_same_in_every_process(self):
        src = str(Path(family.__file__).resolve().parents[1])
        code = 'from ubootstrap.families import builtin; print(hash(builtin("gg-two")))'
        outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, env={**os.environ, "PYTHONPATH": src,
                                                "PYTHONHASHSEED": seed}).stdout
                for seed in ("1", "2")}
        assert outs == {f"{hash(builtin('gg-two'))}\n"}


MOORE3 = sorted((x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0))
# up to 12 rules of 1-4 sites from at most 12 of the 48 Moore-3 offsets, so
# that every mask of N can be listed
MOORE3_FAMILIES = st.lists(st.sampled_from(MOORE3), min_size=1, max_size=12, unique=True).flatmap(
    lambda pool: st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=4),
                          min_size=1, max_size=12)).map(UpdateFamily.of)


def circuit_ops(U):
    """The ANDs and ORs of U's circuit: a node ANDs unless hi is true and
    ORs unless lo is false."""
    return sum((hi is not None) + (lo is not None) for _, hi, lo in U.circuit)


def circuit_table(U) -> int:
    """The circuit evaluated on every mask m of N at once, as the bits m of
    an int: plane i has bit m set when m has bit i."""
    full = 1 << (1 << len(U.hood))
    planes = [sum(1 << m for m in range(1 << len(U.hood)) if m >> i & 1)
              for i in range(len(U.hood))]
    vals = []
    for i, hi, lo in U.circuit:
        v = planes[i] & (full - 1 if hi is None else vals[hi])
        vals.append(v if lo is None else v | vals[lo])
    return vals[-1]


class TestCircuit:
    @given(MOORE3_FAMILIES)
    @settings(max_examples=80, deadline=None)
    def test_circuit_is_the_rule_function(self, U):
        masks = [sum(1 << U.hood.index(x) for x in rule) for rule in U.rules]
        table = circuit_table(U)
        for m in range(1 << len(U.hood)):
            assert bool(table >> m & 1) == any(r & m == r for r in masks) == U.fires[m], m
        assert circuit_ops(U) <= sum(map(len, U.rules))
        # every node reads earlier nodes only, and the last is the root
        assert all(k is None or k < n for n, (_, hi, lo) in enumerate(U.circuit) for k in (hi, lo))

    def test_corpus_circuits_are_shorter_than_the_rules(self):
        ops = [circuit_ops(builtin(name)) for name in ("gg-two", "two-neighbour", "duarte")]
        assert ops == [31, 7, 4]

    def test_disjoint_pairs_take_the_rule_chain(self):
        # pairing hood[i] with hood[i + 12] makes the expansion branch on
        # all twelve first members before any pair closes, about 2^12 nodes
        hood = MOORE3[:24]
        U = UpdateFamily.of([(hood[i], hood[i + 12]) for i in range(12)])
        assert U.hood == tuple(hood)
        assert len(U.circuit) == 24 and circuit_ops(U) == 23
        for seed in range(6):
            grid = np.random.default_rng(seed).random((9, 9)) < 0.35
            pts = {(x, y) for y in range(9) for x in range(9) if grid[y, x]}
            got = torus_closure_grid(grid, U)
            assert {(x, y) for y in range(9) for x in range(9) if got[y, x]} == \
                closure_rescan(pts, Torus(9), U)

    def test_empty_family_sweeps_nothing(self):
        U = UpdateFamily(rules=())
        assert U.circuit == ()
        newly = sweep(np.ones((4, 5), dtype=bool), U, (slice(1, 3), slice(0, 5)))
        assert newly.shape == (2, 5) and not newly.any()


class TestStability:
    def test_is_stable_examples(self):
        assert is_stable(E1, U2)
        assert not is_stable(Direction(1, 1), U2)
        assert not any(is_stable(d, R1) for d in sample_directions(40))

    def test_stable_set_two_neighbour(self):
        S = stable_set(U2)
        assert S.isolated_points() == S.endpoint_directions() == [
            E1, E2, Direction(-1, 0), Direction(0, -1)]
        assert S.arcs() == []

    def test_stable_set_r3_full(self):
        S = stable_set(R3)
        assert all(S.point) and all(S.gap)
        assert S.arcs() == [] and S.endpoint_directions() == []

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
        cuts = cuts_by_rules(U)
        gaps = [direction_between(cuts[i], cuts[(i + 1) % len(cuts)]) for i in range(len(cuts))]
        S = stable_set(U)
        for d in cuts + gaps + sample_directions(360):
            assert S.contains(d) == stable_by_rules(d, U), d
            assert is_stable(d, U) == stable_by_rules(d, U), d

    @given(SMALL_FAMILIES)
    @settings(max_examples=60, deadline=None)
    def test_semicircle_matches_rule_definition(self, U):
        # the oracle refines the cuts with d and -d, so the semicircle from
        # d to -d is a run of them, and samples each gap of the run
        S = stable_set(U)
        for d in family._sweep_candidates(S):
            cuts = cuts_by_rules(U, d, d.neg())
            i = cuts.index(d)
            run = [cuts[(i + k) % len(cuts)] for k in range(len(cuts) // 2 + 1)]
            assert run[-1] == d.neg()
            gaps = [stable_by_rules(direction_between(p, q), U) for p, q in zip(run, run[1:])]
            for closed in (False, True):
                pts = [p for k, p in enumerate(run)
                       if (closed or 0 < k < len(run) - 1) and stable_by_rules(p, U)
                       and not (k > 0 and gaps[k - 1]) and not (k < len(gaps) and gaps[k])]
                want = (sorted(pts, key=Direction.angle_key), any(gaps))
                assert S.semicircle(d, closed) == want, (d, closed)


class TestDifficulty:
    def test_two_neighbour_axis(self):
        r = difficulty(E1, U2, window=3)
        assert r.value == 1
        assert r.witness is not None and len(r.witness) == 1
        assert voracious(r.witness, E1, U2)

    def test_unstable_is_zero(self):
        r = difficulty(Direction(1, 1), U2)
        assert r.value == 0 and r.witness == frozenset()

    def test_duarte_drift_signature(self):
        r = difficulty(E2, DUARTE, window=6, max_cardinality=2)
        assert r.value is INFINITE_WITHIN_WINDOW
        assert r.plus.value == 1
        assert r.minus.value is INFINITE_WITHIN_WINDOW
        assert min(s.value for s in (r.plus, r.minus) if s.resolved) == 1

    def test_duarte_minus_exhaustive_window6(self):
        # exhaustive over |Z| <= 3 in the radius-6 box; the size-4 sweep is
        # exercised at a smaller radius to keep the suite quick
        r = difficulty(E2, DUARTE, window=6, max_cardinality=3).minus
        assert r.value is INFINITE_WITHIN_WINDOW
        r4 = difficulty(E2, DUARTE, window=3, max_cardinality=4).minus
        assert r4.value is INFINITE_WITHIN_WINDOW

    def test_duarte_side_certificates(self):
        # at u = (0, 1) the plus side resolves at 1 and the minus side does
        # not: alpha(u) >= 2 holds, but not both sides are >= 2
        r = difficulty(E2, DUARTE, 8, 1)
        p, m = r.plus, r.minus
        assert p.resolved and p.value == 1
        assert not m.resolved
        assert not r.resolved
        assert any(side.resolved for side in (p, m))

    def test_candidate_cap_raises_typed_error(self, monkeypatch):
        # a window no other test uses: difficulty searches are cached
        monkeypatch.setattr(family, "CANDIDATE_CAP", 3)
        with pytest.raises(SearchBudgetExceededError):
            difficulty(E1, builtin("gg-two"), window=7, max_cardinality=2)

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
                for Z in helper_sets(sites, u, k):
                    scan = strip_scan(u, Z, U)
                    if scan.verdicts[side] is StripVerdict.INFINITE_LINE:
                        return k
            return INFINITE_WITHIN_WINDOW

        d = difficulty(u, U, window, cap)
        for side, r in enumerate((d.plus, d.minus)):
            assert r.value == oracle(side), side
            if r.resolved and r.value > 0:
                scan = strip_scan(u, r.witness, U)
                assert scan.verdicts[side] is StripVerdict.INFINITE_LINE

    @pytest.mark.parametrize("u,window,k", [
        (E1, 2, 1), (E2, 3, 2), (Direction(1, 1), 2, 2), (Direction(-1, 2), 3, 1),
        (Direction(2, -1), 2, 3)])
    def test_canonical_witnesses_match_reduced_combinations(self, u, window, k):
        # rho_bound and the difficulty search enumerate helper sets through
        # _canonical_witnesses; the oracle reduces each combination of the
        # same sites by translation, and both keep first occurrences
        want = helper_sets(family._half_sites(u, window), u, k)
        assert list(family._canonical_witnesses(u, window, k)) == want

    def test_veh_axis_difficulties(self):
        assert difficulty(E1, VEH, window=5).value == 1
        r = difficulty(E2, VEH, window=5)
        assert r.value == 2
        assert voracious(r.witness, E2, VEH)

    def test_positive_iff_stable(self):
        for U in (U2, DUARTE, VEH):
            for d in sample_directions(24):
                r = difficulty(d, U, window=3, max_cardinality=1).plus
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
        for name in ("duarte", "asym-balanced", "mixed-arc"):
            base = classify(builtin(name))
            for m in SYMMETRIES:
                c = classify(builtin(name).transformed(m))
                assert c.kind is base.kind
                assert c.alpha == base.alpha
                assert c.balanced == base.balanced

    def test_classification_bytes_pinned(self):
        # every field classify records, each difficulty with its sorted
        # witness and both side results, and rho_bound over the droplet
        # directions of the critical ones, for the corpus under the 8
        # symmetries: a change meant to keep every output keeps this digest
        def res(r):
            if r is None:
                return None
            witness = None if r.witness is None else sorted(r.witness)
            return (repr(r.value), r.window_radius, witness, r.searched_cardinality,
                    res(r.plus), res(r.minus))

        dump = []
        for name in FAMILY_IDS:
            for m in SYMMETRIES:
                U = builtin(name).transformed(m)
                c = classify(U)
                diffs = sorted(c.difficulties.items(), key=lambda kv: kv[0].angle_key())
                dump.append((name, m, c.kind.value, repr(c.stable), c.window, c.alpha, c.balanced,
                             repr(c.u_star), repr(c.droplet_directions), c.drift,
                             [(repr(u), res(r)) for u, r in diffs], repr(c.balanced_witness)))
                if c.kind is Kind.CRITICAL:
                    rb = rho_bound(U, c.droplet_directions, c.alpha)
                    witness = None if rb.witness is None else sorted(rb.witness)
                    dump.append((rb.value, repr(rb.witness_direction), witness, rb.witness_site))
        digest = hashlib.sha256(repr(dump).encode()).hexdigest()
        assert digest == "05882f6173c03263c9343e1e11109e70ee7abb954b9d58cd30812089d7f86064", digest

    @given(SMALL_FAMILIES, UNIMODULAR)
    @example(DUARTE, (0, -1, 1, 0))  # 90 degrees ccw
    @settings(max_examples=60, deadline=None)
    def test_stable_set_rotates_with_family(self, U, m):
        # <v, Mx> = <M^T v, x>, so u is stable for U iff M^-T u is stable
        # for MU; a map of determinant -1 reverses the ccw order
        a, b, c, d = m
        det = a * d - b * c

        def carry(u):
            return Direction.of(det * (d * u.a - c * u.b), det * (a * u.b - b * u.a))

        S0 = stable_set(U)
        S1 = stable_set(U.transformed(m))
        for u in sample_directions(90):
            assert S0.contains(u) == S1.contains(carry(u))
        assert {carry(u) for u in S0.isolated_points()} == set(S1.isolated_points())
        assert {carry(u) for u in S0.endpoint_directions()} == set(S1.endpoint_directions())
        arcs = {(carry(s), carry(e)) if det == 1 else (carry(e), carry(s)) for s, e in S0.arcs()}
        assert arcs == set(S1.arcs())
        if det == 1:
            for u in family._sweep_candidates(S0):
                for closed in (False, True):
                    pts, has_arc = S0.semicircle(u, closed)
                    assert S1.semicircle(carry(u), closed) == (
                        sort_directions(carry(p) for p in pts), has_arc)


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
                # skip pairs whose open gap meets S (not consecutive in S u Q);
                # the gap lies inside one gap of S's cuts, so one sample decides
                if S.contains(direction_between(u, v)):
                    continue
                ok = any(
                    all(u.dot(x) <= 0 and v.dot(x) <= 0 for x in rule)
                    for rule in U.rules
                )
                assert ok, (name, u, v)


class TestVoracity:
    def test_examples(self):
        assert voracious([(0, 0)], E1, U2)
        assert not voracious([], E1, U2)
        assert voracious([(0, 0)], E2, DUARTE)

    def test_bounded_multiplicity(self):
        # a few translates of a witness fill a long stretch of the line in
        # the witness's marching direction, up to one spacing past the last
        # translate (between translates, growth marching either way would
        # do); checked by the rescan oracle, not the strip scan that found
        # it.  Every witness classify records, plus van Enter-Hulshof's
        # two-site one at (0, 1), which its cardinality-1 search leaves
        # unresolved
        cases = []
        for name in FAMILY_IDS:
            U = builtin(name)
            for u, res in classify(U).difficulties.items():
                cases += [(U, u, side, r.witness)
                          for side, r in (("plus", res.plus), ("minus", res.minus)) if r.resolved]
        veh = difficulty(E2, VEH, window=5, max_cardinality=2).plus
        cases.append((VEH, E2, "plus", veh.witness))
        assert len(cases) == 37

        def fills(U, u, side, Z, reps, spacing):
            a, b = u.a, u.b
            n2 = a * a + b * b
            sign = 1 if side == "plus" else -1
            t = (sign * b, -sign * a)
            sites = {(z[0] + k * spacing * t[0], z[1] + k * spacing * t[1])
                     for z in Z for k in range(reps)}
            length = spacing * reps
            # no site of the closure rises above the highest line of Z; along
            # the line, the translates and the segment widened by a margin
            top = max(a * x + b * y for x, y in Z)
            pos = [b * x - a * y for x, y in Z] + [0]
            lo = min(pos) + min(0, sign * length * n2) - 8
            hi = max(pos) + max(0, sign * length * n2) + 8
            xs = [(a * j + b * c) / n2 for j in (0, top) for c in (lo, hi)]
            ys = [(b * j - a * c) / n2 for j in (0, top) for c in (lo, hi)]
            box = Box(math.floor(min(xs)), math.floor(min(ys)),
                      math.ceil(max(xs)) + 1, math.ceil(max(ys)) + 1)
            got = closure_rescan(sites, box, U, HalfPlane(u, 0))
            return all((i * t[0], i * t[1]) in got for i in range(length + 1))

        for U, u, side, Z in cases:
            assert any(fills(U, u, side, Z, reps, spacing)
                       for reps in range(2, 9) for spacing in (8, 12, 16)), (U.name, u, side)


class TestAlphaStarRhoKappa:
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

    def test_rho_raises_on_a_march(self):
        # a helper set next to (0, 1) marches right for Duarte and left for
        # its mirror; an unstable direction marches with the empty set
        for U in (DUARTE, DUARTE_MIRROR):
            with pytest.raises(StripHeightExceededError):
                rho_bound(U, [E2], alpha=2, window=2)
        with pytest.raises(StripHeightExceededError):
            rho_bound(U2, [Direction(1, 1)], alpha=1)

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
        # at u* = (0, 1) only the plus side resolves for Duarte and only the
        # minus side for its mirror image; u0 is mirrored with the family
        u0 = iceberg_u0(DUARTE, E2, stable_set(DUARTE))
        assert iceberg_u0(DUARTE_MIRROR, E2, stable_set(DUARTE_MIRROR)) == Direction(-u0.a, u0.b)
        for U, v, spin in ((DUARTE, u0, 1), (DUARTE_MIRROR, Direction(-u0.a, u0.b), -1)):
            # strictly between u* and the nearest forbidden perpendicular
            # (-1, 1), or (1, 1) in the mirror
            assert cross(E2, v) * spin > 0
            assert min(ccw_key(E2, v), ccw_key(v, E2)) < ccw_key(E2, Direction(-1, 1))
            assert stable_set(U).contains(v)

    def test_closedness_on_window(self):
        # triangles with faces u0, u*, u are closed next to the half-plane
        from ubootstrap.geometry import line_index
        for U in (DUARTE, DUARTE_MIRROR):
            u0 = iceberg_u0(U, E2, stable_set(U))
            u = Direction.of(u0.a, u0.b + 8)  # between u0 and u*
            tri = set()
            for x in range(-80, 81):
                for y in range(-20, 21):
                    if line_index((x, y), u) >= 0 and line_index((x, y), u0) < 18 \
                            and line_index((x, y), E2) < 6:
                        tri.add((x, y))
            # the construction must be looked at in full: no vertex beyond the box
            assert all(-70 < x < 70 and -15 < y < 15 for x, y in tri)
            scan = strip_scan(u, tri, U)
            assert scan.periods == (None, None), U.name
            assert scan.infected == tri, U.name

    def test_no_drift_family(self):
        with pytest.raises(NoDriftDirectionError):
            iceberg_u0(U2, E2, stable_set(U2))
        with pytest.raises(NoDriftDirectionError):
            iceberg_u0(VEH, E2, stable_set(VEH))
