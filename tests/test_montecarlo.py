import math
import multiprocessing
import os

import numpy as np
import pytest

from ubootstrap.families import builtin
from ubootstrap.family import UpdateFamily, classify, nu
from ubootstrap.lattice import TIMEOUT, Box, Window, infection_time
from ubootstrap.montecarlo import (
    Fraction01,
    InsufficientDataError,
    ScalingReport,
    TrialConfig,
    _ring_window_grid,
    csv_rows,
    estimate_pc,
    percolation_probability,
    sample_tau,
    scaling_fit,
    transform_for,
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
    def test_p_one(self):
        cfg = TrialConfig(U2, 16, 1.0, seed=1, trials=20)
        assert percolation_probability(cfg).value == 1.0

    def test_p_zero(self):
        cfg = TrialConfig(U2, 16, 0.0, seed=1, trials=20)
        assert percolation_probability(cfg).value == 0.0

    def test_well_above_threshold(self):
        cfg = TrialConfig(U2, 64, 0.2, seed=3, trials=60)
        f = percolation_probability(cfg)
        assert f.value > 0.9
        assert f.ci_low <= f.value <= f.ci_high

    def test_matches_naive_simulator(self):
        # independent check: tiny torus, rescan closure on python sets
        from ubootstrap.lattice import Torus, Window, closure_rescan
        n, p, seed, trials = 8, 0.25, 11, 40
        naive = 0
        for t in range(trials):
            grid = trial_rng(seed, t).random((n, n)) < p
            pts = {(x, y) for y in range(n) for x in range(n) if grid[y, x]}
            closed = closure_rescan(pts, Window(Torus(n)), U2)
            naive += len(closed) == n * n
        cfg = TrialConfig(U2, n, p, seed=seed, trials=trials)
        assert percolation_probability(cfg).successes == naive

    def test_deterministic_across_workers(self):
        cfg = TrialConfig(U2, 32, 0.1, seed=5, trials=24)
        old = os.environ.get("UBP_THREADS")
        try:
            os.environ["UBP_THREADS"] = "1"
            a = percolation_probability(cfg)
            os.environ["UBP_THREADS"] = "4"
            b = percolation_probability(cfg)
        finally:
            if old is None:
                os.environ.pop("UBP_THREADS", None)
            else:
                os.environ["UBP_THREADS"] = old
        assert a == b


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
            w = Window(Box(-512, -512, 512, 512))
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


class TestScalingFit:
    def test_exact_balanced_inversion(self):
        alpha, c = 1, 2.5
        samples = [(p, math.exp(c * p ** (-alpha))) for p in (0.05, 0.08, 0.1)]
        rep = scaling_fit(samples, "balanced", alpha=alpha)
        assert rep.spread == pytest.approx(1.0)

    def test_exact_unbalanced_inversion(self):
        alpha, c = 1, 0.4
        samples = [(p, math.exp(c * p ** (-alpha) * math.log(1 / p) ** 2))
                   for p in (0.05, 0.08, 0.12)]
        rep = scaling_fit(samples, "unbalanced", alpha=alpha)
        assert rep.spread == pytest.approx(1.0)
        # the wrong transform must show a larger spread
        rep2 = scaling_fit(samples, "balanced", alpha=alpha)
        assert rep2.spread > rep.spread

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            scaling_fit([(0.1, 10.0)], "balanced")

    def test_transform_for(self):
        assert transform_for(classify(U2)) == "balanced"
        assert transform_for(classify(builtin("duarte"))) == "unbalanced"

    def test_bound_flag(self):
        samples = [(0.1, 100.0), (0.2, 10.0), (0.3, 5.0)]
        rep = scaling_fit(samples, "balanced", bound=1000.0)
        assert rep.passed is True


class TestEmission:
    def test_csv_shape(self):
        text = csv_rows([("two-neighbour", 64, 0.05, 100, 0.5, 0.4, 0.6, 7)])
        lines = text.strip().split("\n")
        assert lines[0].startswith("family,")
        assert lines[1] == "two-neighbour,64,0.05,100,0.5,0.4,0.6,7"

    def test_wilson_basic(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        lo1, hi1 = wilson_interval(100, 100)
        assert hi1 == 1.0 and lo1 > 0.9
