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
# each u with the reflection across its axis, as (m0, m1, m2, m3): it fixes
# u and H_u and swaps the two sides of the boundary line
MIRRORS = [(E2, (-1, 0, 0, 1)), (Direction(0, -1), (-1, 0, 0, 1)), (E1, (1, 0, 0, -1)),
           (Direction(-1, 0), (1, 0, 0, -1)), (Direction(1, 1), (0, 1, 1, 0)),
           (Direction(1, -1), (0, -1, -1, 0))]


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
        # the same cells in a blocked box centred on the origin, zero-padded
        # by the reach of N
        h = n // 2
        box = Box(-h, -h, n - h, n - h)
        sites = {(x - h, y - h) for x, y in pts}
        want = closure_rescan(sites, box, fam)
        R = fam.reach
        g = np.pad(grid, R)
        core = (slice(R, R + n),) * 2
        steps, t_origin = 0, (0 if grid[h, h] else TIMEOUT)
        while (newly := lattice.sweep(g, fam, core)).any():
            g[core] |= newly
            steps += 1
            if t_origin is TIMEOUT and g[R + h, R + h]:
                t_origin = steps
        assert {(x - h, y - h) for x, y in cells(g[core])} == want
        assert (t_origin is not TIMEOUT) == ((0, 0) in want)
        assert infection_time(sites, fam, n * n, box) == t_origin

    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_torus_halo_matches_rescan(self, R, data):
        # the halo strips are copied from the core when the torus is at
        # least the reach wide, and the grid is re-wrapped whole below that
        within = [(x, y) for x in range(-R, R + 1) for y in range(-R, R + 1) if (x, y) != (0, 0)]
        far = data.draw(st.sampled_from([s for s in within if max(map(abs, s)) == R]))
        rules = data.draw(st.lists(st.lists(st.sampled_from(within), min_size=1, max_size=3),
                                   min_size=1, max_size=4))
        fam = UpdateFamily.of([rules[0] + [far]] + rules[1:])
        assert fam.reach == R
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # every grid of the narrow torus, one random grid of each wider one
        cells = (R - 1) ** 2
        narrow = [np.array([bits >> k & 1 for k in range(cells)], dtype=bool).reshape(R - 1, R - 1)
                  for bits in range(1 << cells)]
        for grid in narrow + [rng.random((n, n)) < 0.3 for n in (R, R + 1, 2 * R)]:
            n = len(grid)
            pts = {(x, y) for y in range(n) for x in range(n) if grid[y, x]}
            got = torus_closure_grid(grid, fam)
            assert {(x, y) for y in range(n) for x in range(n) if got[y, x]} == \
                closure_rescan(pts, Torus(n), fam), grid

    def test_sweep_rejects_a_core_without_padding(self):
        # the core shifted by the reach (1 for two-neighbour) must stay
        # inside the grid; numpy would wrap the negative bounds of the last
        # core silently, and the others' planes would not line up
        g = np.ones((8, 8), dtype=bool)
        for core in ((slice(0, 7), slice(1, 7)), (slice(1, 7), slice(1, 8)),
                     (slice(1, 8), slice(1, 7)), (slice(1, 7), slice(0, 1)),
                     (slice(-4, -1), slice(1, 7))):
            with pytest.raises(ValueError, match="shifted by reach"):
                lattice.sweep(g, U2, core)
        assert lattice.sweep(g, U2, (slice(1, 7), slice(1, 7))).shape == (6, 6)

    def test_sweep_keeps_the_grid_dtype(self):
        # a grid of unsigned integers packs one trial per bit, so the new
        # cells come back in the grid's dtype, with no rules too
        for dt in (bool, np.uint8, np.uint16, np.uint64):
            g = np.zeros((8, 8), dtype=dt)
            assert lattice.sweep(g, U2, (slice(1, 7),) * 2).dtype == dt
            assert lattice.sweep(g, UpdateFamily.of([]), (slice(0, 8),) * 2).dtype == dt

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
        assert scan.periods == (None, None)
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
        assert torus_closure_grid(np.ones((6, 6), dtype=bool), U2).all()
        assert not torus_closure_grid(np.zeros((6, 6), dtype=bool), U2).all()

    def test_diagonal_fills_torus(self):
        assert torus_closure_grid(np.eye(8, dtype=bool), U2).all()

    def test_single_site_does_not(self):
        grid = np.zeros((8, 8), dtype=bool)
        grid[3, 3] = True
        assert not torus_closure_grid(grid, U2).all()


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
        assert scan.verdicts == (StripVerdict.INFINITE_LINE, StripVerdict.INFINITE_LINE)

    def test_stable_halfplane_closed(self):
        scan = strip_scan(E1, [], U2)
        assert scan.verdicts == (StripVerdict.FINITE_LINE, StripVerdict.FINITE_LINE)

    def test_duarte_one_way(self):
        scan = strip_scan(E2, [(0, 0)], DUARTE)
        assert scan.verdicts == (StripVerdict.INFINITE_LINE, StripVerdict.FINITE_LINE)

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
            assert small.verdicts == big.verdicts

    def test_column_budget_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(lattice, "MAX_COLUMNS", 4)
        with pytest.raises(StripUnresolvedError):
            strip_scan(E1, [(0, 0)], U2)

    def test_periodic_segment_repeats_forward(self):
        # semi-periodicity: the detected period's column pattern extends
        scan = strip_scan(E1, [(0, 0)], U2)
        assert scan.verdicts[0] is StripVerdict.INFINITE_LINE
        assert scan.periods[0] is not None
        j0, r = scan.periods[0]
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
        assert scan.verdicts == (StripVerdict.INFINITE_LINE, StripVerdict.INFINITE_LINE)

    def test_high_witness_is_scanned(self):
        # a lone site far above the line leaves it finite on both sides
        scan = strip_scan(E2, [(0, 9)], DUARTE)
        assert scan.verdicts == (StripVerdict.FINITE_LINE, StripVerdict.FINITE_LINE)

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
        assume(scan.periods == (None, None))
        xs = [s[0] for s in scan.infected] + [0]
        ys = [s[1] for s in scan.infected] + [0]
        box = Box(min(xs) - 3, min(ys) - 3, max(xs) + 4, max(ys) + 4)
        assert scan.infected == closure_rescan(Z, box, fam, HalfPlane(u, 0))

    @given(SMALL_FAMILIES, st.sampled_from(MIRRORS), st.lists(st.sampled_from(HALF_CELLS), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_mirror_swaps_the_sides(self, fam, mirror, cells):
        # the scan of the mirror image reads the plus side where the scan
        # read the minus side.  A marching closure is cut off at the window
        # the scan stopped at, and reflection does not map the columns its
        # period search reads onto columns, so only a scan without a period
        # is compared site by site
        u, (m0, m1, m2, m3) = mirror
        reflect = lambda s: (m0 * s[0] + m1 * s[1], m2 * s[0] + m3 * s[1])
        Z = {z for z in cells if u.dot(z) >= 0}
        scan = strip_scan(u, Z, fam)
        seen = strip_scan(u, {reflect(z) for z in Z}, fam.transformed((m0, m1, m2, m3)))
        assert seen.verdicts == scan.verdicts[::-1]
        assert [p is None for p in seen.periods] == [p is None for p in scan.periods[::-1]]
        if scan.periods == (None, None):
            assert seen.infected == {reflect(s) for s in scan.infected}

    def test_range_two_rules_periodicity(self):
        # vertical growth jumps by two; the column machine must still settle
        fam = builtin("asym-balanced")
        assert strip_scan(E1, [(0, 0)], fam).verdicts[0] is StripVerdict.INFINITE_LINE
