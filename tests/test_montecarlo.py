import math
import multiprocessing
import os

import numpy as np
import pytest

from ubootstrap.families import builtin
from ubootstrap.family import UpdateFamily
from ubootstrap.lattice import TIMEOUT, Box, Torus, closure_rescan, infection_time
from ubootstrap.montecarlo import (
    _perc_trial,
    _ring_window_grid,
    estimate_pc,
    sample_tau,
    trial_rng,
    wilson_interval,
)

U2 = builtin("two-neighbour")


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
        small = _ring_window_grid(64, 64, 0.3, seed=9, trial=4)
        big = _ring_window_grid(256, 64, 0.3, seed=9, trial=4)
        inner = big[256 - 64:256 + 64, 256 - 64:256 + 64]
        assert np.array_equal(small, inner)


class TestPercolationProbability:
    """The p_c trial: one p-random torus, percolating or not."""

    def test_p_one(self):
        assert all(_perc_trial((U2, 16, 1.0, 1, t)) for t in range(20))

    def test_p_zero(self):
        assert not any(_perc_trial((U2, 16, 0.0, 1, t)) for t in range(20))

    def test_well_above_threshold(self):
        succ = sum(_perc_trial((U2, 64, 0.2, 3, t)) for t in range(60))
        lo, hi = wilson_interval(succ, 60)
        assert succ / 60 > 0.9
        assert lo <= succ / 60 <= hi

    def test_matches_naive_simulator(self):
        # independent check, trial by trial: tiny torus, rescan closure on
        # python sets
        n, p, seed = 8, 0.25, 11
        for t in range(40):
            grid = trial_rng(seed, t).random((n, n)) < p
            pts = {(x, y) for y in range(n) for x in range(n) if grid[y, x]}
            closed = closure_rescan(pts, Torus(n), U2)
            assert _perc_trial((U2, n, p, seed, t)) == (len(closed) == n * n), t

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
        # serial path, and no worker outlives the call
        old = os.environ.get("UBP_THREADS")
        try:
            os.environ["UBP_THREADS"] = "1"
            a = estimate_pc(U2, 24, trials=64, tol=0.02, seed=6)
            os.environ["UBP_THREADS"] = "2"
            b = estimate_pc(U2, 24, trials=64, tol=0.02, seed=6)
        finally:
            if old is None:
                os.environ.pop("UBP_THREADS", None)
            else:
                os.environ["UBP_THREADS"] = old
        assert a == b
        assert multiprocessing.active_children() == []


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
            big = _ring_window_grid(512, 16, p, seed, trial)
            pts = {(x - 512, y - 512) for y, x in np.argwhere(big)}
            w = Box(-512, -512, 512, 512)
            t = infection_time(pts, U2, t_max, w)
            direct.append(None if t is TIMEOUT else t)
        got = list(stats.taus)
        want = sorted(t for t in direct if t is not None)
        assert got == want
        assert stats.timeouts == sum(1 for t in direct if t is None)

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
