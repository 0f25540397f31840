import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ubootstrap import lattice
from ubootstrap.families import builtin
from ubootstrap.family import UpdateFamily
from ubootstrap.geometry import Direction
from ubootstrap.lattice import (
    TIMEOUT,
    Box,
    HalfPlane,
    OriginOutsideWindowError,
    StripUnresolvedError,
    StripVerdict,
    Torus,
    closure,
    closure_rescan,
    infection_time,
    is_stable,
    percolates_grid,
    strip_scan,
    torus_closure_grid,
)

U2 = builtin("two-neighbour")
DUARTE = builtin("duarte")
E1, E2 = Direction(1, 0), Direction(0, 1)
BOX = Box(-24, -24, 25, 25)
# 1-4 rules of 1-3 sites within radius 2
OFFSETS = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
SMALL_FAMILIES = st.lists(st.lists(st.sampled_from(OFFSETS), min_size=1, max_size=3),
                          min_size=1, max_size=4).map(UpdateFamily.of)
HALF_DIRECTIONS = [E1, E2, Direction(-1, 0), Direction(0, -1), Direction(1, 1), Direction(1, -2),
                   Direction(-1, 2), Direction(2, 1)]
HALF_CELLS = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]


class TestClosure:
    def test_empty(self):
        assert closure([], BOX, U2) == set()

    def test_single_site_is_closed(self):
        assert closure([(0, 0)], BOX, U2) == {(0, 0)}

    def test_diagonal_pair_fills_square(self):
        got = closure([(0, 0), (1, 1)], BOX, U2)
        assert got == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_matches_rescan_oracle_on_examples(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            pts = {(int(x), int(y)) for x, y in rng.integers(-8, 9, size=(12, 2))}
            w = Box(-10, -10, 11, 11)
            for fam in (U2, DUARTE):
                assert closure(pts, w, fam) == closure_rescan(pts, w, fam)

    def test_torus_matches_rescan(self):
        # every p_c trial runs the torus sweeps; the rescan oracle checks them
        for seed in range(8):
            rng = np.random.default_rng(seed)
            grid = rng.random((8, 8)) < 0.2
            pts = {(x, y) for y in range(8) for x in range(8) if grid[y, x]}
            want = closure_rescan(pts, Torus(8), U2)
            got = torus_closure_grid(grid, U2)
            assert {(x, y) for y in range(8) for x in range(8) if got[y, x]} == want

    @given(SMALL_FAMILIES, st.sampled_from([7, 9]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sweeps_match_rescan_on_random_families(self, fam, n, seed):
        grid = np.random.default_rng(seed).random((n, n)) < 0.2
        cells = lambda g: {(x, y) for y in range(n) for x in range(n) if g[y, x]}
        pts = cells(grid)
        assert cells(torus_closure_grid(grid, fam)) == closure_rescan(pts, Torus(n), fam)
        # the same cells in a blocked box centred on the origin
        h = n // 2
        box = Box(-h, -h, n - h, n - h)
        sites = {(x - h, y - h) for x, y in pts}
        want = closure_rescan(sites, box, fam)
        g = grid.copy()
        steps, t_origin = 0, (0 if g[h, h] else TIMEOUT)
        while (newly := lattice.sweep(g, fam, torus=False)).any():
            g |= newly
            steps += 1
            if t_origin is TIMEOUT and g[h, h]:
                t_origin = steps
        assert {(x - h, y - h) for x, y in cells(g)} == want
        assert (t_origin is not TIMEOUT) == ((0, 0) in want)
        assert infection_time(sites, fam, n * n, box) == t_origin

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_rescan_oracle_on_random_families(self, data):
        fam = data.draw(SMALL_FAMILIES)
        box = Box(-6, -6, 6, 6)
        cells = [(x, y) for x in range(-6, 6) for y in range(-6, 6)]
        seeds = set(data.draw(st.lists(st.sampled_from(cells), max_size=20)))
        assert closure(seeds, box, fam) == closure_rescan(seeds, box, fam)

    def test_large_neighbourhood_matches_rescan(self):
        # 24 offsets: masks over the neighbourhood go past 20 bits
        moore2 = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
        fam = UpdateFamily.of(itertools.combinations(moore2, 2))
        for seed in range(6):
            rng = np.random.default_rng(seed)
            pts = {(int(x), int(y)) for x, y in rng.integers(-9, 10, size=(4, 2))}
            w = Box(-10, -10, 11, 11)
            assert closure(pts, w, fam) == closure_rescan(pts, w, fam)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_monotone_and_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        pts = [(int(x), int(y)) for x, y in rng.integers(-6, 7, size=(10, 2))]
        small = set(pts[:6])
        big = small | set(pts[6:])
        c_small = closure(small, BOX, U2)
        c_big = closure(big, BOX, U2)
        assert c_small <= c_big
        assert closure(c_big, BOX, U2) == c_big

    def test_halfplane_boundary_not_materialized(self):
        # two helpers above H_(0,1) grow along the boundary line with the
        # half-plane's help, then stop; the half-plane's sites support that
        # growth but never appear
        fam = UpdateFamily.of([[(0, -1), (0, -2), (2, 1)], [(0, -1), (0, -2), (-2, 1)],
                               [(-2, 0), (-1, 0), (0, -1)], [(1, 0), (2, 0), (0, -1)]])
        scan = strip_scan(E2, [(0, 1), (0, 2)], fam)
        assert scan.period_plus is None and scan.period_minus is None
        assert all(s[1] >= 0 for s in scan.infected)
        assert {(0, 0), (4, 0), (-4, 0)} <= scan.infected

    def test_halfplane_dichotomy(self):
        # stable directions add nothing; unstable ones fill a central cone
        for U in (U2, DUARTE):
            for d in (E1, E2, Direction(1, 1), Direction(-1, 2), Direction(2, -1),
                      Direction(-1, 0), Direction(0, -1), Direction(-2, -3)):
                got = closure_rescan([], Box(-10, -10, 11, 11), U, HalfPlane(d, 0))
                stable = all(any(d.dot(x) >= 0 for x in rule) for rule in U.rules)
                assert is_stable(d, U) == stable
                if stable:
                    assert got == set()
                else:
                    assert (0, 0) in got and len(got) > 100


class TestPercolates:
    def test_full_and_empty(self):
        assert percolates_grid(np.ones((6, 6), dtype=bool), U2)
        assert not percolates_grid(np.zeros((6, 6), dtype=bool), U2)

    def test_diagonal_fills_torus(self):
        assert percolates_grid(np.eye(8, dtype=bool), U2)

    def test_single_site_does_not(self):
        grid = np.zeros((8, 8), dtype=bool)
        grid[3, 3] = True
        assert not percolates_grid(grid, U2)


class TestInfectionTime:
    def test_origin_already_infected(self):
        assert infection_time([(0, 0)], U2, 10, BOX) == 0

    def test_one_step(self):
        assert infection_time([(0, 1), (1, 0), (-1, 0)], U2, 10, BOX) == 1

    def test_empty_times_out(self):
        assert infection_time([], U2, 10, BOX) is TIMEOUT

    def test_origin_outside_window(self):
        with pytest.raises(OriginOutsideWindowError):
            infection_time([(6, 6)], U2, 10, Box(5, 5, 9, 9))

    def test_matches_synchronous_rescan(self):
        # tiny synchronous reference: step closure by hand
        rng = np.random.default_rng(3)
        pts = {(int(x), int(y)) for x, y in rng.integers(-5, 6, size=(25, 2))}
        w = Box(-12, -12, 13, 13)
        t = infection_time(pts, U2, 30, w)
        cur = {s for s in pts if w.contains(s)}
        expect = 0 if (0, 0) in cur else None
        step = 0
        while expect is None and step < 30:
            nxt = set(cur)
            for x in range(-12, 13):
                for y in range(-12, 13):
                    if (x, y) in cur:
                        continue
                    for rule in U2.rules:
                        if all((x + dx, y + dy) in cur for dx, dy in rule):
                            nxt.add((x, y))
                            break
            if nxt == cur:
                break
            cur = nxt
            step += 1
            if (0, 0) in cur:
                expect = step
        assert t == (expect if expect is not None else TIMEOUT)


class TestStripMachine:
    def test_two_neighbour_line_fills(self):
        scan = strip_scan(E1, [(0, 0)], U2)
        assert scan.verdict_plus is StripVerdict.INFINITE_LINE
        assert scan.verdict_minus is StripVerdict.INFINITE_LINE

    def test_stable_halfplane_closed(self):
        scan = strip_scan(E1, [], U2)
        assert scan.verdict_plus is StripVerdict.FINITE_LINE
        assert scan.verdict_minus is StripVerdict.FINITE_LINE

    def test_duarte_one_way(self):
        scan = strip_scan(E2, [(0, 0)], DUARTE)
        assert scan.verdict_plus is StripVerdict.INFINITE_LINE
        assert scan.verdict_minus is StripVerdict.FINITE_LINE

    def test_verdicts_stable_under_bigger_budgets(self, monkeypatch):
        for fam, u, Z in [
            (U2, E1, [(0, 0)]),
            (DUARTE, E2, [(0, 0)]),
            (DUARTE, E2, [(2, 1), (0, 0)]),
            (builtin("asym-balanced"), E1, [(0, 0)]),
            (builtin("van-enter-hulshof"), E2, [(0, 0), (1, 0)]),
        ]:
            small = strip_scan(u, Z, fam)
            with monkeypatch.context() as m:
                m.setattr(lattice, "MAX_COLUMNS", 8192)
                big = strip_scan(u, Z, fam)
            assert small.verdict_plus == big.verdict_plus
            assert small.verdict_minus == big.verdict_minus

    def test_column_budget_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(lattice, "MAX_COLUMNS", 4)
        with pytest.raises(StripUnresolvedError):
            strip_scan(E1, [(0, 0)], U2)

    def test_periodic_segment_repeats_forward(self):
        # semi-periodicity: the detected period's column pattern extends
        scan = strip_scan(E1, [(0, 0)], U2)
        assert scan.verdict_plus is StripVerdict.INFINITE_LINE
        assert scan.period_plus is not None
        j0, r = scan.period_plus
        w = scan.col_width
        a, b = E1.a, E1.b

        def col_pattern(i):
            out = set()
            for sx, sy in scan.infected:
                c = b * sx - a * sy
                if i * w <= c < (i + 1) * w:
                    out.add((a * sx + b * sy, c - i * w))
            return frozenset(out)

        for m in range(3 * r):
            assert col_pattern(j0 + m) == col_pattern(j0 + m % r)

    def test_unstable_direction_is_trivially_infinite(self):
        scan = strip_scan(Direction(1, 1), [], U2)
        assert scan.verdict_plus is StripVerdict.INFINITE_LINE
        assert scan.verdict_minus is StripVerdict.INFINITE_LINE

    def test_high_witness_is_scanned(self):
        # a lone site far above the line leaves it finite on both sides
        scan = strip_scan(E2, [(0, 9)], DUARTE)
        assert scan.verdict_plus is StripVerdict.FINITE_LINE
        assert scan.verdict_minus is StripVerdict.FINITE_LINE

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_stable_growth_stays_below_highest_witness_line(self, data):
        # the lemma behind the strip's height: next to a stable half-plane,
        # a site above every infected line has no support.  strip_scan stops
        # at that line, so the lemma is checked on the rescan oracle, which
        # does not
        fam = data.draw(SMALL_FAMILIES)
        u = data.draw(st.sampled_from([E1, E2, Direction(-1, 0), Direction(1, 1), Direction(1, -2)]))
        Z = [z for z in data.draw(st.lists(st.sampled_from(OFFSETS), max_size=3)) if u.dot(z) >= 0]
        assume(all(any(u.dot(x) >= 0 for x in rule) for rule in fam.rules))
        top = max((u.dot(z) for z in Z), default=-1)
        grown = closure_rescan(Z, Box(-10, -10, 11, 11), fam, HalfPlane(u, 0))
        assert all(0 <= u.dot(s) <= top for s in grown)
        assert all(0 <= u.dot(s) <= top for s in strip_scan(u, Z, fam).infected)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_rescan_next_to_halfplane(self, data):
        # the kernel's half-plane masks run only under strip_scan.  Without a
        # period the closure is finite; a site it misses would be within the
        # reach of N of the scan's sites (u is stable), so the rescan in a
        # box padded by more than that reach decides it exactly
        fam = data.draw(SMALL_FAMILIES)
        stable = [u for u in HALF_DIRECTIONS if is_stable(u, fam)]
        assume(stable)
        u = data.draw(st.sampled_from(stable))
        Z = {z for z in data.draw(st.lists(st.sampled_from(HALF_CELLS), max_size=4)) if u.dot(z) >= 0}
        scan = strip_scan(u, Z, fam)
        assume(scan.period_plus is None and scan.period_minus is None)
        xs = [s[0] for s in scan.infected] + [0]
        ys = [s[1] for s in scan.infected] + [0]
        box = Box(min(xs) - 3, min(ys) - 3, max(xs) + 4, max(ys) + 4)
        assert scan.infected == closure_rescan(Z, box, fam, HalfPlane(u, 0))

    def test_range_two_rules_periodicity(self):
        # vertical growth jumps by two; the column machine must still settle
        fam = builtin("asym-balanced")
        assert strip_scan(E1, [(0, 0)], fam).verdict_plus is StripVerdict.INFINITE_LINE
