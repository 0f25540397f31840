"""Monte Carlo harness: critical-probability bisection on tori and
infection-time sampling on light-cone-exact windows.

Every trial draws from its own counter-based substream (Philox keyed by seed
and trial index), and aggregation reduces in trial order, so results are
byte-identical no matter how many workers run (UBP_THREADS).  The p_c trials
of a batch are split into one contiguous chunk per worker, and a chunk's
tori close together as one grid in which bit j is trial j's field.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .family import UpdateFamily, nu
from .lattice import sweep, torus_closure_grid


class BudgetExhaustedError(RuntimeError):
    def __init__(self, msg, bracket=None):
        super().__init__(msg)
        self.bracket = bracket


# ---------------------------------------------------------------------------
# result records


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


# ---------------------------------------------------------------------------
# counter-based randomness


def trial_rng(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    """Philox substream for one trial: order-independent across workers."""
    key = np.array([np.uint64(seed & (2 ** 64 - 1)),
                    np.uint64(((trial << 8) | (stream & 0xFF)) & (2 ** 64 - 1))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_torus_grid(n: int, p: float, seed: int, trial: int) -> np.ndarray:
    return trial_rng(seed, trial).random((n, n)) < p


def _ring_window_grid(inner: Optional[np.ndarray], r: int, ring: int, p: float, seed: int,
                      trial: int) -> np.ndarray:
    """p-random grid on the box [-r, r)^2: ring ``ring``'s substream drawn
    at side 2r, with ``inner`` (the previous ring's grid, None for ring 0)
    put back at the centre, so enlarging the window never resamples the
    interior."""
    grid = trial_rng(seed, trial, stream=ring + 1).random((2 * r, 2 * r)) < p
    if inner is not None:
        o = r - len(inner) // 2
        grid[o:o + len(inner), o:o + len(inner)] = inner
    return grid


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


def _perc_trials(arg) -> list[bool]:
    """Whether each trial's p-random torus fills.  Trial j's field is bit j
    of one grid of the smallest unsigned dtype that holds the chunk, and one
    closure serves them all; trial j fills iff bit j of the AND over the
    closure is set."""
    fam, n, p, seed, trials = arg
    dt = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
              if np.iinfo(t).bits >= len(trials))
    grid = np.zeros((n, n), dtype=dt)
    for j, t in enumerate(trials):
        grid |= random_torus_grid(n, p, seed, t).astype(dt) << j
    filled = int(np.bitwise_and.reduce(torus_closure_grid(grid, fam), axis=None))
    return [bool(filled >> j & 1) for j in range(len(trials))]


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, min(centre - half, phat)), min(1.0, max(centre + half, phat)))


# ---------------------------------------------------------------------------
# critical probability by bisection


def _perc_fraction_batched(fam, n, p, seed, eval_idx, trials, pool, batch=32):
    """Sequential batches with a deterministic early stop once the Wilson
    interval separates from one half.  A batch runs on ``pool`` as one
    contiguous chunk of trials per worker (in this process, as one chunk,
    when it is None), and the verdicts are counted in trial order."""
    done = 0
    succ = 0
    while done < trials:
        take = min(batch, trials - done)
        ids = [(eval_idx << 24) | (done + i) for i in range(take)]
        chunks = np.array_split(ids, 1 if pool is None else worker_count())
        args = [(fam, n, p, seed, c.tolist()) for c in chunks if c.size]
        results = map(_perc_trials, args) if pool is None else pool.map(_perc_trials, args)
        succ += sum(r for chunk in results for r in chunk)
        done += take
        lo, hi = wilson_interval(succ, done)
        if done >= 2 * batch and (hi < 0.5 or lo > 0.5):
            break
    return succ, done


def estimate_pc(family: UpdateFamily, n: int, trials: int = 64, tol: float = 0.004,
                seed: int = 0, max_evals: int = 40) -> PcEstimate:
    """Bisection for the density where the percolation probability crosses
    one half; the true curve is monotone in p, which justifies bisection.
    One worker pool serves every evaluation of the call.  Each batch of 32
    trials runs as one chunk per worker, and each chunk closes its tori
    together, bit j of one grid being trial j; every trial keeps its own
    substream, so the estimate is identical for any worker count."""
    if n < 1:
        raise ValueError("torus size must be positive")
    if trials < 1:
        raise ValueError("at least one trial per evaluation")
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
    R = fam.reach
    r, ring, drawn = r0, 0, None
    while True:
        drawn = _ring_window_grid(drawn, r, ring, p, seed, trial)  # origin at [r, r]
        g = drawn.copy()
        t_lim = int((r - 1) / nu_val)
        horizon = min(t_max, t_lim)
        if g[r, r]:
            return 0
        for t in range(1, horizon + 1):
            k = R * (horizon - t)  # only this light cone can reach the origin in time
            core = (slice(r - k, r + k + 1),) * 2
            newly = sweep(g, fam, core)
            if not newly.any():
                break
            g[core] |= newly
            if g[r, r]:
                return t
        if t_lim >= t_max:
            return None  # exact timeout: the light cone covered the horizon
        if r >= r_cap:
            return None  # truncated horizon (documented window cap)
        r, ring = 2 * r, ring + 1


def effective_t_max(U: UpdateFamily, t_max: int, r_cap: int = 2048) -> int:
    return min(t_max, int((r_cap - 1) / nu(U)))


def sample_tau(family: UpdateFamily, p: float, trials: int, t_max: int,
               seed: int = 0, r0: int = 64, r_cap: int = 2048) -> TauStats:
    """Per-trial infection times of the origin on fresh p-random windows.

    The window doubles until the realized time fits its light cone, so every
    reported value is the exact infection time on the infinite lattice; the
    horizon is capped by the window memory limit.  Only the origin's light
    cone is swept: step t updates the box of half-width reach*(horizon - t).
    nu pairs each offset of N with the origin, so reach <= nu, and a window
    of radius r >= nu*horizon + 1 holds the first box and its reads; each box
    reads only the previous one, which was exact.  A step that changes
    nothing in its box changes no later box, so the trial stops there."""
    if r0 < 1:
        raise ValueError("initial window radius must be positive")
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
