import math
import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ubootstrap.families import builtin
from ubootstrap.family import UpdateFamily
from ubootstrap.lattice import TIMEOUT, Box, Torus, closure_rescan, infection_time, torus_closure_grid
from ubootstrap.montecarlo import (
    PcEstimate,
    _perc_trials,
    _ring_window_grid,
    estimate_pc,
    sample_tau,
    trial_rng,
    wilson_interval,
)

U2 = builtin("two-neighbour")


def _families_within(r):
    offsets = [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if (x, y) != (0, 0)]
    return st.lists(st.lists(st.sampled_from(offsets), min_size=1, max_size=3),
                    min_size=1, max_size=4)


# 1-4 rules of 1-3 sites within radius 1, 2 or 3; in most of them the reach
# of N (largest |dx| or |dy|) is below nu
RADIUS_3_FAMILIES = st.integers(1, 3).flatmap(_families_within).map(UpdateFamily.of)


def _full_window(r, r0, p, seed, trial):
    """The window of radius r that sample_tau reaches by doubling from r0:
    one ring step per doubling, each keeping the previous grid inside."""
    grid, rk, ring = None, r0, 0
    while True:
        grid = _ring_window_grid(grid, rk, ring, p, seed, trial)
        if rk == r:
            return grid
        rk, ring = 2 * rk, ring + 1


def assert_stacked_closure(fields, fam):
    """Close ``fields`` stacked one per bit of the smallest unsigned dtype
    that holds them, check each bit against the field's own closure, and
    return the per-field closures."""
    dt = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).bits >= len(fields))
    stacked = np.zeros(fields[0].shape, dtype=dt)
    for j, f in enumerate(fields):
        stacked |= f.astype(dt) << j
    closed = torus_closure_grid(stacked, fam)
    assert closed.dtype == dt
    alone = [torus_closure_grid(f, fam) for f in fields]
    for j, want in enumerate(alone):
        assert np.array_equal((closed >> j & 1).astype(bool), want), j
    return alone


class TestRng:
    def test_substreams_differ(self):
        a = trial_rng(1, 0).random(8)
        b = trial_rng(1, 1).random(8)
        c = trial_rng(2, 0).random(8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_substreams_reproducible(self):
        assert np.array_equal(trial_rng(7, 3).random(16), trial_rng(7, 3).random(16))

    def test_ring_window_interior_consistency(self):
        # doubling the window never resamples the interior
        small = _full_window(64, 64, 0.3, seed=9, trial=4)
        big = _full_window(256, 64, 0.3, seed=9, trial=4)
        inner = big[256 - 64:256 + 64, 256 - 64:256 + 64]
        assert np.array_equal(small, inner)


class TestPercolationProbability:
    """The p_c trials: p-random tori, percolating or not, closed together
    one bit per trial."""

    def test_p_one(self):
        assert all(_perc_trials((U2, 16, 1.0, 1, list(range(20)))))

    def test_p_zero(self):
        assert not any(_perc_trials((U2, 16, 0.0, 1, list(range(20)))))

    def test_well_above_threshold(self):
        succ = sum(_perc_trials((U2, 64, 0.2, 3, list(range(60)))))
        lo, hi = wilson_interval(succ, 60)
        assert succ / 60 > 0.9
        assert lo <= succ / 60 <= hi

    def test_matches_naive_simulator(self):
        # independent check, trial by trial: tiny torus, rescan closure on
        # python sets; the trials close in one chunk and in chunks of one
        n, p, seed = 8, 0.25, 11
        stacked = _perc_trials((U2, n, p, seed, list(range(40))))
        for t in range(40):
            grid = trial_rng(seed, t).random((n, n)) < p
            pts = {(x, y) for y in range(n) for x in range(n) if grid[y, x]}
            closed = closure_rescan(pts, Torus(n), U2)
            assert stacked[t] == _perc_trials((U2, n, p, seed, [t]))[0] == (len(closed) == n * n), t

    @given(RADIUS_3_FAMILIES, st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_torus_narrower_than_reach_matches_rescan(self, fam, n, seed):
        # the padding wraps round the torus more than once when n < reach
        grid = np.random.default_rng(seed).random((n, n)) < 0.3
        cells = lambda g: {(x, y) for y in range(n) for x in range(n) if g[y, x]}
        assert cells(torus_closure_grid(grid, fam)) == closure_rescan(cells(grid), Torus(n), fam)

    @given(RADIUS_3_FAMILIES, st.integers(1, 11), st.sampled_from([1, 7, 8, 9, 16, 17, 32, 33, 64]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stacked_closure_matches_each_trial(self, fam, n, k, seed):
        # bit j of the closure of k fields stacked one per bit is the
        # closure of field j alone, the torus narrower than the reach too;
        # densities spread from empty to full, so some fields fill and some
        # stall
        rng = np.random.default_rng(seed)
        fields = [rng.random((n, n)) < q for q in rng.random(k)]
        assert_stacked_closure(fields, fam)

    def test_stacked_closure_mixes_empty_full_filling_and_stalling(self):
        stall = np.zeros((8, 8), dtype=bool)
        stall[3, 4] = True
        fields = [np.zeros((8, 8), dtype=bool), np.ones((8, 8), dtype=bool), np.eye(8, dtype=bool), stall]
        got = assert_stacked_closure(fields, U2)
        assert [got[j].sum() for j in range(4)] == [0, 64, 64, 1]


class TestEstimatePc:
    def test_toy_family_decreases_with_n(self):
        # single east neighbour: percolation is driven by every row-cycle
        # containing at least one seed
        fam = UpdateFamily.of([[(1, 0)]], name="east")
        est16 = estimate_pc(fam, 16, trials=48, tol=0.01, seed=2)
        est64 = estimate_pc(fam, 64, trials=48, tol=0.01, seed=2)
        assert est64.p_hat < est16.p_hat
        assert est16.bracket_low <= est16.p_hat <= est16.bracket_high
        # analytic driver: percolates iff all n rows have a seed, so
        # P = (1 - (1-p)^n)^n = 1/2 at p = 1 - (1 - 2^(-1/n))^(1/n) ≈ 0.1793
        analytic = 1 - (1 - 0.5 ** (1.0 / 16)) ** (1.0 / 16)
        assert abs(est16.p_hat - analytic) < 0.05

    def test_two_neighbour_band(self):
        est = estimate_pc(U2, 64, trials=48, tol=0.008, seed=4)
        assert 0.2 <= est.p_hat * math.log(64) <= 0.6

    def test_deterministic_across_workers(self):
        # one pool per call runs the same trials in the same batches as the
        # serial path, split into one chunk per worker (11/11/10 for three),
        # and no worker outlives the call
        runs = []
        for workers in ("1", "2", "3"):
            with mock.patch.dict(os.environ, {"UBP_THREADS": workers}):
                runs.append(estimate_pc(U2, 24, trials=64, tol=0.02, seed=6))
        assert runs[0] == runs[1] == runs[2]
        assert multiprocessing.active_children() == []
        # the estimate read before the trials were closed one bit per trial
        assert runs[0] == PcEstimate(
            n=24, p_hat=0.0859375, bracket_low=0.078125, bracket_high=0.09375, trials_used=384,
            evaluations=((0.5, 64, 64), (0.25, 64, 64), (0.125, 64, 64), (0.0625, 8, 64),
                         (0.09375, 39, 64), (0.078125, 26, 64)))


class TestSampleTau:
    def test_p_one_tau_zero(self):
        stats = sample_tau(U2, 1.0, trials=10, t_max=10, seed=1)
        assert stats.median == 0 and stats.timeouts == 0

    def test_p_zero_all_timeout(self):
        stats = sample_tau(U2, 0.0, trials=10, t_max=10, seed=1)
        assert stats.timeouts == 10 and stats.median == math.inf

    def test_timeouts_are_right_censored(self):
        # east rule: P(tau <= 40) = 1 - 0.99^41 ~ 0.34 at p = 0.01, so the
        # median is above t_max; 10 of these 16 trials time out
        east = UpdateFamily.of([[(1, 0)]], name="east")
        stats = sample_tau(east, 0.01, trials=16, t_max=40, seed=1)
        assert stats.timeouts == 10 and stats.taus == (9, 9, 17, 22, 36, 40)
        assert stats.median == math.inf and stats.q3 == math.inf
        # the lower quartile falls between the 4th and 5th finished times
        assert stats.q1 == 22 + 0.75 * (36 - 22)

    def test_matches_direct_window_simulation(self):
        # adaptive windows agree with one big light-cone-safe window
        p, seed, t_max = 0.22, 21, 40
        stats = sample_tau(U2, p, trials=12, t_max=t_max, seed=seed, r0=16)
        direct = []
        for trial in range(12):
            big = _full_window(512, 16, p, seed, trial)
            pts = {(x - 512, y - 512) for y, x in np.argwhere(big)}
            w = Box(-512, -512, 512, 512)
            t = infection_time(pts, U2, t_max, w)
            direct.append(None if t is TIMEOUT else t)
        got = list(stats.taus)
        want = sorted(t for t in direct if t is not None)
        assert got == want
        assert stats.timeouts == sum(1 for t in direct if t is None)

    @given(RADIUS_3_FAMILIES, st.floats(0.05, 0.5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_light_cone_matches_full_box_on_random_families(self, fam, p, seed):
        # sample_tau sweeps only the origin's light cone in windows that
        # double from radius 8; infection_time sweeps the whole radius-64
        # box drawn from the same ring substreams
        r0, r_cap, trials = 8, 64, 6
        with mock.patch.dict(os.environ, {"UBP_THREADS": "1"}):
            stats = sample_tau(fam, p, trials, t_max=40, seed=seed, r0=r0, r_cap=r_cap)
        box = Box(-r_cap, -r_cap, r_cap, r_cap)
        direct = []
        for trial in range(trials):
            big = _full_window(r_cap, r0, p, seed, trial)
            pts = {(x - r_cap, y - r_cap) for y, x in np.argwhere(big)}
            direct.append(infection_time(pts, fam, stats.t_max, box))
        assert stats.taus == tuple(sorted(t for t in direct if t is not TIMEOUT))
        assert stats.timeouts == sum(t is TIMEOUT for t in direct)

    def test_deterministic_across_workers(self):
        old = os.environ.get("UBP_THREADS")
        try:
            os.environ["UBP_THREADS"] = "1"
            a = sample_tau(U2, 0.15, trials=8, t_max=50, seed=9, r0=16)
            os.environ["UBP_THREADS"] = "3"
            b = sample_tau(U2, 0.15, trials=8, t_max=50, seed=9, r0=16)
        finally:
            if old is None:
                os.environ.pop("UBP_THREADS", None)
            else:
                os.environ["UBP_THREADS"] = old
        assert a == b


class TestEmission:
    def test_wilson_basic(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        lo1, hi1 = wilson_interval(100, 100)
        assert hi1 == 1.0 and lo1 > 0.9


@pytest.mark.parametrize("call", [
    lambda: estimate_pc(U2, 0),
    lambda: estimate_pc(U2, 8, trials=0),
    lambda: sample_tau(U2, 0.1, trials=4, t_max=10, r0=0),
], ids=["n=0", "trials=0", "r0=0"])
def test_empty_sizes_rejected(call):
    # an empty torus would count as filled, no trials would divide by zero,
    # and a zero-radius window has no origin
    with pytest.raises(ValueError):
        call()
