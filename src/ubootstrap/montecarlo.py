"""Monte Carlo harness: percolation probability curves, critical-probability
bisection on tori, infection-time sampling on light-cone-exact windows, and
the scaling transforms for the universality laws.

Every trial draws from its own counter-based substream (Philox keyed by seed
and trial index), and aggregation reduces in trial order, so results are
byte-identical no matter how many workers run (UBP_THREADS).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .family import Classification, Kind, UpdateFamily, nu
from .lattice import percolates_grid, sweep


class BudgetExhaustedError(RuntimeError):
    def __init__(self, msg, bracket=None):
        super().__init__(msg)
        self.bracket = bracket


class InsufficientDataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration and result records


@dataclass(frozen=True)
class TrialConfig:
    family: UpdateFamily
    n: int
    p: float
    seed: int
    trials: int

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must be a probability")
        if self.trials < 1:
            raise ValueError("at least one trial")


@dataclass(frozen=True)
class Fraction01:
    value: float
    ci_low: float
    ci_high: float
    successes: int
    trials: int


@dataclass(frozen=True)
class PcEstimate:
    """p_hat is the midpoint of the last bisection bracket [bracket_low,
    bracket_high].  The bracket is not a confidence interval: each step
    follows one noisy estimate of the percolation probability, so the true
    p_c can lie outside it."""

    n: int
    p_hat: float
    bracket_low: float
    bracket_high: float
    trials_used: int
    evaluations: tuple = ()


@dataclass(frozen=True)
class TauStats:
    """Infection times of the finished trials (sorted) and the number of
    timeouts.  The quantiles are over all trials, each timeout right-censored
    at t_max: a quantile that falls on a censored trial is math.inf, meaning
    "> t_max"."""

    taus: tuple
    timeouts: int
    t_max: int
    median: float
    q1: float
    q3: float


@dataclass(frozen=True)
class ScalingReport:
    transform: str
    points: tuple  # (x, statistic, transformed)
    spread: float
    bound: Optional[float]
    passed: Optional[bool]


# ---------------------------------------------------------------------------
# counter-based randomness


MAX_RINGS = 64


def trial_rng(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    """Philox substream for one trial: order-independent across workers."""
    key = np.array([np.uint64(seed & (2 ** 64 - 1)),
                    np.uint64(((trial << 8) | (stream & 0xFF)) & (2 ** 64 - 1))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_torus_grid(n: int, p: float, seed: int, trial: int) -> np.ndarray:
    return trial_rng(seed, trial).random((n, n)) < p


def _ring_window_grid(r: int, r0: int, p: float, seed: int, trial: int) -> np.ndarray:
    """p-random grid on the box [-r, r)^2 assembled from independent ring
    substreams, so enlarging the window never resamples the interior."""
    size = 2 * r
    grid = np.zeros((size, size), dtype=bool)
    rk = r0
    ring = 0
    while True:
        draw = trial_rng(seed, trial, stream=ring + 1).random((2 * rk, 2 * rk)) < p
        o = r - rk
        if ring == 0:
            grid[o:o + 2 * rk, o:o + 2 * rk] = draw
        else:
            prev = rk // 2
            inner = rk - prev
            block = grid[o:o + 2 * rk, o:o + 2 * rk]
            keep = block[inner:inner + 2 * prev, inner:inner + 2 * prev].copy()
            block[:, :] = draw
            block[inner:inner + 2 * prev, inner:inner + 2 * prev] = keep
        if rk == r:
            return grid
        rk *= 2
        ring += 1
        if ring > MAX_RINGS:
            raise RuntimeError("window escalation ran away")


# ---------------------------------------------------------------------------
# the worker pool


def worker_count() -> int:
    env = os.environ.get("UBP_THREADS", "")
    if env.strip():
        return max(1, int(env))
    return os.cpu_count() or 1


def parallel_map(fn, args: Sequence) -> list:
    """Ordered map over independent trial arguments; the reduction order is
    the argument order regardless of the worker count."""
    workers = worker_count()
    if workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
        return list(pool.map(fn, args, chunksize=max(1, len(args) // (4 * workers))))


def _perc_trial(arg) -> bool:
    fam, n, p, seed, trial = arg
    return percolates_grid(random_torus_grid(n, p, seed, trial), fam)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, min(centre - half, phat)), min(1.0, max(centre + half, phat)))


def percolation_probability(cfg: TrialConfig) -> Fraction01:
    """Fraction of p-random torus configurations that percolate."""
    if cfg.p >= 1.0:
        return Fraction01(1.0, 1.0, 1.0, cfg.trials, cfg.trials)
    args = [(cfg.family, cfg.n, cfg.p, cfg.seed, t) for t in range(cfg.trials)]
    results = parallel_map(_perc_trial, args)
    succ = sum(bool(r) for r in results)
    lo, hi = wilson_interval(succ, cfg.trials)
    return Fraction01(succ / cfg.trials, lo, hi, succ, cfg.trials)


# ---------------------------------------------------------------------------
# critical probability by bisection


def _perc_fraction_batched(fam, n, p, seed, eval_idx, trials, pool, batch=32):
    """Sequential batches with a deterministic early stop once the Wilson
    interval separates from one half.  The trials run on ``pool`` (in this
    process when it is None)."""
    done = 0
    succ = 0
    while done < trials:
        take = min(batch, trials - done)
        args = [(fam, n, p, seed, (eval_idx << 24) | (done + i)) for i in range(take)]
        if pool is None:
            results = map(_perc_trial, args)
        else:
            results = pool.map(_perc_trial, args, chunksize=max(1, take // (4 * worker_count())))
        succ += sum(bool(r) for r in results)
        done += take
        lo, hi = wilson_interval(succ, done)
        if done >= 2 * batch and (hi < 0.5 or lo > 0.5):
            break
    return succ, done


def estimate_pc(family: UpdateFamily, n: int, trials: int = 64, tol: float = 0.004,
                seed: int = 0, max_evals: int = 40) -> PcEstimate:
    """Bisection for the density where the percolation probability crosses
    one half; the true curve is monotone in p, which justifies bisection.
    One worker pool serves every evaluation of the call."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = 0.0, 1.0
    evals = []
    used = 0
    k = 0
    workers = worker_count()
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        while hi - lo > tol:
            if k >= max_evals:
                raise BudgetExhaustedError(
                    f"bisection budget exhausted at bracket [{lo}, {hi}]", bracket=(lo, hi))
            mid = (lo + hi) / 2
            succ, done = _perc_fraction_batched(family, n, mid, seed, k, trials, pool)
            used += done
            evals.append((mid, succ, done))
            if succ / done >= 0.5:
                hi = mid
            else:
                lo = mid
            k += 1
    return PcEstimate(n, (lo + hi) / 2, lo, hi, used, tuple(evals))


# ---------------------------------------------------------------------------
# infection-time sampling


def _tau_trial(arg):
    fam, p, seed, trial, t_max, r0, r_cap, nu_val = arg
    r = r0
    while True:
        grid = _ring_window_grid(r, r0, p, seed, trial)
        origin = (r, r)  # grid[y + r, x + r]
        t_lim = int((r - 1) / nu_val)
        horizon = min(t_max, t_lim)
        if grid[origin]:
            return 0
        g = grid
        t = 0
        while t < horizon:
            newly = sweep(g, fam, torus=False)
            if not newly.any():
                break
            g |= newly
            t += 1
            if g[origin]:
                return t
        if t_lim >= t_max:
            return None  # exact timeout: the light cone covered the horizon
        if r >= r_cap:
            return None  # truncated horizon (documented window cap)
        r *= 2


def effective_t_max(U: UpdateFamily, t_max: int, r_cap: int = 2048) -> int:
    return min(t_max, int((r_cap - 1) / nu(U)))


def sample_tau(family: UpdateFamily, p: float, trials: int, t_max: int,
               seed: int = 0, r0: int = 64, r_cap: int = 2048) -> TauStats:
    """Per-trial infection times of the origin on fresh p-random windows.

    The window doubles until the realized time fits its light cone, so every
    reported value is the exact infection time on the infinite lattice; the
    horizon is capped by the window memory limit."""
    nu_val = nu(family)
    horizon = effective_t_max(family, t_max, r_cap)
    args = [(family, p, seed, t, horizon, r0, r_cap, nu_val) for t in range(trials)]
    results = parallel_map(_tau_trial, args)
    taus = sorted(r for r in results if r is not None)
    timeouts = len(results) - len(taus)
    q1, med, q3 = (_censored_quantile(taus, len(results), q) for q in (0.25, 0.5, 0.75))
    return TauStats(tuple(taus), timeouts, horizon, med, q1, q3)


def _censored_quantile(taus: Sequence[int], trials: int, q: float) -> float:
    """The q-quantile of ``trials`` infection times by numpy's default
    (linear) rule, where ``taus`` are the sorted finished ones and the rest
    timed out, so they sort last: math.inf when the quantile needs a timed
    out trial, nan when there are no trials."""
    if trials == 0:
        return math.nan
    h = (trials - 1) * q
    lo, hi = math.floor(h), math.ceil(h)
    if hi >= len(taus):
        return math.inf
    return float(taus[lo] + (taus[hi] - taus[lo]) * (h - lo))


# ---------------------------------------------------------------------------
# scaling transforms


def scaling_fit(samples: Sequence[tuple[float, float]], transform: str,
                alpha: int = 1, bound: Optional[float] = None) -> ScalingReport:
    """Apply the classification-appropriate transform and report the spread
    (max/min ratio) of the transformed statistic.

    transforms: 'balanced' and 'unbalanced' expect (p, tau) samples and use
    p^alpha log(tau), with the extra (log 1/p)^-2 factor in the unbalanced
    case; 'pc-balanced' and 'pc-unbalanced' expect (n, p_c) samples.
    """
    if len(samples) < 3:
        raise InsufficientDataError("need at least three sample points")
    pts = []
    for x, stat in samples:
        if transform == "balanced":
            val = (x ** alpha) * math.log(stat)
        elif transform == "unbalanced":
            val = (x ** alpha) * math.log(stat) / (math.log(1.0 / x) ** 2)
        elif transform == "pc-balanced":
            val = stat * (math.log(x) ** (1.0 / alpha))
        elif transform == "pc-unbalanced":
            val = stat * ((math.log(x) / (math.log(math.log(x)) ** 2)) ** (1.0 / alpha))
        else:
            raise ValueError(f"unknown transform {transform!r}")
        pts.append((x, stat, val))
    vals = [v for _, _, v in pts]
    if min(vals) <= 0:
        raise InsufficientDataError("transformed statistic must stay positive")
    spread = max(vals) / min(vals)
    return ScalingReport(transform, tuple(pts), spread, bound,
                         None if bound is None else spread <= bound)


def transform_for(c: Classification, statistic: str = "tau") -> str:
    if c.kind is not Kind.CRITICAL:
        raise ValueError("scaling transforms apply to critical families")
    if statistic == "tau":
        return "balanced" if c.balanced else "unbalanced"
    return "pc-balanced" if c.balanced else "pc-unbalanced"


# ---------------------------------------------------------------------------
# emission


CSV_HEADER = "family,n,p,trials,statistic,ci_low,ci_high,seed"


def csv_rows(rows: Iterable[tuple]) -> str:
    out = [CSV_HEADER]
    for row in rows:
        out.append(",".join(_cell(v) for v in row))
    return "\n".join(out) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)
