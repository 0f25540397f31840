"""Seeded inputs, operations and correctness gates for each workload.

The library only ever receives what the generators here produce from the
workload seed.  Where a gate needs a reference that depends on the input
(τ samples, covering and iceberg pieces), the seed selects inputs from a
pool whose references ``record.py`` stored in ``reference.json``; the pool
is indexed, so the same seed always yields the same inputs.

Calls into the library go through module attributes (``fam.classify``,
not a bound name) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ubootstrap import droplets as drp
from ubootstrap import families as fams
from ubootstrap import family as fam
from ubootstrap import montecarlo as mc
from ubootstrap.geometry import Direction

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# --------------------------------------------------------------------------
# families

CORPUS = tuple(fams.FAMILY_IDS)


def _cross(r):
    return [(i * s, 0) for i in range(1, r + 1) for s in (1, -1)] + \
           [(0, i * s) for i in range(1, r + 1) for s in (1, -1)]


NEIGHBOURHOODS = {
    "cross2": _cross(2),
    "cross3": _cross(3),
    "moore1": [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != (0, 0)],
    "diamond2": [(x, y) for x in range(-2, 3) for y in range(-2, 3) if 0 < abs(x) + abs(y) <= 2],
}

# symmetric threshold families: "<neighbourhood>-t<K>" fires on any K-subset
THRESHOLD = ("cross2-t3", "moore1-t4", "diamond2-t5", "cross3-t4", "cross3-t5")

# the 8 lattice symmetries as (m0, m1, m2, m3): (x, y) -> (m0 x + m1 y, m2 x + m3 y)
DIHEDRAL = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
            (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0))

EAST = "east"  # [(1, 0)]: percolates on the n-torus exactly when every row has a seed


@cache
def base_family(name: str) -> fam.UpdateFamily:
    if name == EAST:
        return fam.UpdateFamily.of([[(1, 0)]], name=EAST)
    if name in THRESHOLD:
        hood, k = name.rsplit("-t", 1)
        return fam.UpdateFamily.of(combinations(NEIGHBOURHOODS[hood], int(k)), name=name)
    return fams.load_family(name)[0]


def family_instance(name: str, sym: int) -> fam.UpdateFamily:
    return base_family(name).transformed(DIHEDRAL[sym])


def corpus_expected(name: str) -> Optional[dict]:
    return fams.BUILTIN_METADATA.get(name, {}).get("expected")


def east_pc(n: int) -> float:
    """Median threshold of the east rule on the n-torus: (1-(1-p)^n)^n = 1/2."""
    return 1.0 - (1.0 - 2.0 ** (-1.0 / n)) ** (1.0 / n)


# --------------------------------------------------------------------------
# sizes (why each workload exists is recorded in BENCHMARK.json and below)

# classify-light: the rule-algebra layers alone; alpha = 1 families end after a
# few dozen strip scans, so this is mostly stable sets and arc algebra
CLASSIFY_LIGHT = tuple(n for n in CORPUS if n != "gg-two") + \
    ("cross2-t3", "moore1-t4", "diamond2-t5", "cross3-t4")
# classify-heavy: alpha = 2 families run the full witness search, which is
# almost all strip_line_decision
CLASSIFY_HEAVY = ("gg-two", "cross3-t5")

# pc: a 6-rule family on a 128^2 torus is bound by numpy array work; the east
# rule is an exact anchor for the estimator
PC_OPS = (("two-neighbour", 128, 64, 0.004), (EAST, 16, 64, 0.004))
# pc-dense: a 70-rule family on a small torus is bound by the per-rule loop.
# On a 24^2 torus a sweep costs about what it does at 32^2, trials end sooner,
# and the 48 trials per evaluation keep the batch steady across seeds.
PC_DENSE_OPS = (("gg-two", 24, 48, 0.016),)
# tau: blocked windows that double.  The cost of a trial is heavy-tailed (it
# is set by the last window), so a batch needs many trials to be steady across
# seeds.  At two-neighbour p = 0.06 a trial costs five times what it does at
# 0.07, mostly in 512^2 and larger windows; at p = 0.07 and Duarte p = 0.15
# about half of the trials still double.  Do not lower p.
TAU_OPS = (("two-neighbour", 0.07, 512), ("duarte", 0.15, 512))
TAU_T_MAX = 10 ** 6  # effective horizon is capped by the window memory limit
TAU_POOL = 32

# cover: two-neighbour (kappa = 4).  In the small p-random boxes every site
# ends in one droplet and each merge joins the first pair tested, so their cost
# is minimal droplets and dilation.  The large boxes are where the quadratic
# pair rescan shows: clusters of random sites on a jittered grid, each of which
# merges into one droplet that stays apart from the others, so every merge
# rescans pairs that can never be bridged (about 2,700 pair tests per merge).
# Sparse p-random large boxes do not do this: a merged droplet is the bounding
# box of its parts, so their droplets cascade into one that spans the box (a
# 1024^2 box of 300 sites ran out of memory that way).  A fixed |K| per box
# keeps the cost comparable across seeds.
COVER_SMALL = (48, 23, 40)   # box side, |K| (p ~ 0.01), boxes per batch
# clusters per side, grid spacing, sites per cluster, boxes per batch.  A
# cluster's sites lie within CLUSTER_RADIUS of a grid point moved by up to
# CLUSTER_JITTER, so its droplet (the sites dilated by the 25-wide seed
# droplet) is at most 37 wide, and neighbouring droplets are at least 44
# apart, beyond the reach of one bridging droplet (25 wide, plus kappa on
# each side).
COVER_LARGE = (8, 88, 3, 4)
CLUSTER_RADIUS = 6
CLUSTER_JITTER = 4
COVER_SMALL_POOL = 200
COVER_LARGE_POOL = 24
# span: Duarte (kappa = 6), the merge loop and the component formulation
SPAN_BOX = (96, 184, 10)     # p ~ 0.02
# iceberg: Duarte with the drift context of the tests; boxes sit just above the
# base half-plane.  Iceberg site caches grow fast, so the boxes stay small.
ICE_BOX = (32, 10, 30)       # p ~ 0.01
ICE_LIFT = 5
ICE_POOL = 100

SALT = {"classify-light": 1, "classify-heavy": 2, "pc": 3, "pc-dense": 4, "tau": 5,
        "cover": 6, "span": 7, "iceberg": 8, "cover-small-pool": 9,
        "cover-large-pool": 10, "ice-pool": 11}


def _rng(seed: int, salt: str, batch: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed & (2 ** 63 - 1), SALT[salt], batch])


def random_sites(side: int, count: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """``count`` distinct sites drawn uniformly from the side x side box."""
    idx = rng.choice(side * side, size=count, replace=False)
    return sorted((int(i % side), int(i // side)) for i in idx)


def clustered_sites(grid: int, spacing: int, per_cluster: int,
                    rng: np.random.Generator) -> list[tuple[int, int]]:
    """``grid`` x ``grid`` clusters of ``per_cluster`` distinct sites, drawn
    uniformly within CLUSTER_RADIUS of jittered grid points."""
    r, offset = CLUSTER_RADIUS, CLUSTER_RADIUS + CLUSTER_JITTER
    sites = []
    for cx in range(grid):
        for cy in range(grid):
            jx, jy = rng.integers(-CLUSTER_JITTER, CLUSTER_JITTER + 1, size=2)
            cell = random_sites(2 * r + 1, per_cluster, rng)
            sites += [(cx * spacing + offset + int(jx) + x - r, cy * spacing + offset + int(jy) + y - r)
                      for x, y in cell]
    return sorted(sites)


def pool_box(pool: str, index: int) -> list[tuple[int, int]]:
    rng = _rng(index, pool)
    if pool == "cover-large-pool":
        return clustered_sites(*COVER_LARGE[:3], rng)
    side, count, _ = {"cover-small-pool": COVER_SMALL, "ice-pool": ICE_BOX}[pool]
    sites = random_sites(side, count, rng)
    if pool == "ice-pool":
        sites = [(x, y + ICE_LIFT) for x, y in sites]
    return sites


# --------------------------------------------------------------------------
# generators: plain data, deterministic in the seed


def generate(workload: str, seed: int, batch: int = 0) -> list[tuple]:
    """The operations of a run's ``batch``-th batch as plain tuples (op kind
    first).  Each batch of a run draws new inputs, so the run's median batch
    time averages over inputs as well as over repeats."""
    rng = _rng(seed, workload, batch)
    if workload in ("classify-light", "classify-heavy"):
        names = CLASSIFY_LIGHT if workload == "classify-light" else CLASSIFY_HEAVY
        order = rng.permutation(len(names))
        syms = rng.integers(0, len(DIHEDRAL), size=len(names))
        return [("classify", names[i], int(syms[i])) for i in order]
    if workload in ("pc", "pc-dense"):
        ops = PC_OPS if workload == "pc" else PC_DENSE_OPS
        return [("pc", name, n, trials, tol, int(rng.integers(0, 2 ** 31)))
                for name, n, trials, tol in ops]
    if workload == "tau":
        pool_seed = int(rng.integers(0, TAU_POOL))
        return [("tau", name, p, trials, pool_seed) for name, p, trials in TAU_OPS]
    if workload == "cover":
        small = rng.choice(COVER_SMALL_POOL, size=COVER_SMALL[2], replace=False)
        large = rng.choice(COVER_LARGE_POOL, size=COVER_LARGE[3], replace=False)
        return [("cover", "cover-small-pool", int(i)) for i in small] + \
               [("cover", "cover-large-pool", int(i)) for i in large]
    if workload == "span":
        side, count, boxes = SPAN_BOX
        return [("span", tuple(random_sites(side, count, rng))) for _ in range(boxes)]
    if workload == "iceberg":
        picks = rng.choice(ICE_POOL, size=ICE_BOX[2], replace=False)
        return [("iceberg", "ice-pool", int(i)) for i in picks]
    raise KeyError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# gates: each returns None when the output is correct, else a reason


def verdict(c) -> dict:
    return {"kind": c.kind.value, "alpha": c.alpha, "balanced": c.balanced,
            "drift": c.drift, "u_star": None if c.u_star is None else [c.u_star.a, c.u_star.b]}


def check_verdict(got: dict, ref: dict, expected: Optional[dict]) -> Optional[str]:
    for key, want in (expected or {}).items():
        if got.get(key) != want:
            return f"{key}={got.get(key)!r}, corpus metadata says {want!r}"
    if got != ref:
        return f"verdict {got} differs from reference {ref}"
    return None


def check_pc(p_hat: float, ref: dict) -> Optional[str]:
    if abs(p_hat - ref["pc"]) > ref["tolerance"]:
        return f"p_hat {p_hat:.5f} is more than {ref['tolerance']:.5f} from {ref['pc']:.5f}"
    return None


def tau_record(ts) -> dict:
    """Every field of a TauStats, with the sorted τ values as a digest."""
    taus = hashlib.sha256(json.dumps(list(ts.taus)).encode()).hexdigest()
    return {"taus_sha256": taus, "samples": len(ts.taus), "timeouts": ts.timeouts,
            "t_max": ts.t_max, "median": ts.median, "q1": ts.q1, "q3": ts.q3}


def check_tau(got: dict, ref: dict) -> Optional[str]:
    if got != ref:
        diff = [k for k in ref if got.get(k) != ref[k]]
        return f"TauStats differ from reference in {diff}"
    return None


def pieces_digest(pieces) -> str:
    """Digest of the sorted final pieces, independent of the merge order."""
    text = "\n".join(sorted(repr(p) for p in pieces))
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(got: str, ref: str) -> Optional[str]:
    return None if got == ref else f"pieces digest {got[:12]} != reference {ref[:12]}"


def check_span(merge_droplets, component_droplets) -> Optional[str]:
    a = sorted(map(repr, merge_droplets))
    b = sorted(map(repr, component_droplets))
    return None if a == b else f"spanning_algorithm gave {len(a)} droplets, span_components {len(b)}"


# --------------------------------------------------------------------------
# prerequisites and runnable operations


@dataclass
class DropletContext:
    """Classification-derived inputs of the droplet algorithms."""
    u2_dirs: tuple
    u2_alpha: int
    u2_kappa: float
    duarte_dirs: tuple
    duarte_kappa: float
    u: Direction
    u0: Direction
    u_star: Direction


def droplet_context() -> DropletContext:
    """classify and rho_bound on two-neighbour and Duarte, plus the Duarte
    drift context used by the iceberg tests."""
    u2, duarte = base_family("two-neighbour"), base_family("duarte")
    c2 = fam.classify(u2)
    rho2 = fam.rho_bound(u2, c2.droplet_directions, c2.alpha).value
    cd = fam.classify(duarte)
    rhod = fam.rho_bound(duarte, cd.droplet_directions, cd.alpha).value
    u_star = Direction(0, 1)
    u0 = fam.iceberg_u0(duarte, u_star, fam.stable_set(duarte))
    return DropletContext(
        c2.droplet_directions, c2.alpha, fam.kappa(u2, c2, rho2),
        cd.droplet_directions, fam.kappa(duarte, cd, rhod),
        Direction.of(u0.a, u0.b + 6), u0, u_star)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def prepare(workload: str, seed: int, batch: int, reference: dict) -> list[Op]:
    """Everything up to the first timed operation: inputs, prerequisites and
    the references the gates compare against."""
    specs = generate(workload, seed, batch)
    ctx = droplet_context() if workload in ("cover", "span", "iceberg") else None
    return [_op(spec, reference, ctx) for spec in specs]


def _op(spec: tuple, reference: dict, ctx: Optional[DropletContext]) -> Op:
    kind = spec[0]
    if kind == "classify":
        _, name, sym = spec
        U = family_instance(name, sym)
        ref = reference["classify"][name][sym]
        return Op(f"classify {name} sym{sym}", lambda: fam.classify(U),
                  lambda c: check_verdict(verdict(c), ref, corpus_expected(name)))
    if kind == "pc":
        _, name, n, trials, tol, s = spec
        U = base_family(name)
        ref = reference["pc"][f"{name}/{n}"]
        return Op(f"estimate_pc {name} n={n} seed={s}",
                  lambda: mc.estimate_pc(U, n, trials=trials, tol=tol, seed=s),
                  lambda est: check_pc(est.p_hat, ref))
    if kind == "tau":
        _, name, p, trials, s = spec
        U = base_family(name)
        ref = reference["tau"][name][s]
        return Op(f"sample_tau {name} p={p} seed={s}",
                  lambda: mc.sample_tau(U, p, trials, TAU_T_MAX, seed=s),
                  lambda ts: check_tau(tau_record(ts), ref))
    if kind == "cover":
        _, pool, i = spec
        K = pool_box(pool, i)
        U = base_family("two-neighbour")
        ref = reference[pool][i]
        return Op(f"covering {pool}[{i}]",
                  lambda: drp.covering_algorithm(K, U, ctx.u2_dirs, ctx.u2_alpha, ctx.u2_kappa),
                  lambda res: check_digest(pieces_digest(res.droplets), ref))
    if kind == "span":
        # both formulations are timed: the merge loop, and closure plus
        # kappa-components; each is the other's oracle
        K = list(spec[1])
        U = base_family("duarte")
        args = (K, U, ctx.duarte_dirs, ctx.duarte_kappa)
        return Op(f"spanning |K|={len(K)}",
                  lambda: (drp.spanning_algorithm(*args).droplets, drp.span_components(*args)),
                  lambda res: check_span(*res))
    if kind == "iceberg":
        _, pool, i = spec
        K = pool_box(pool, i)
        U = base_family("duarte")
        ref = reference[pool][i]
        return Op(f"iceberg {pool}[{i}]",
                  lambda: drp.iceberg_algorithm(K, ctx.u, ctx.u0, ctx.u_star, U, ctx.duarte_kappa),
                  lambda res: check_digest(pieces_digest(res.pieces), ref))
    raise KeyError(f"unknown op kind {kind!r}")

