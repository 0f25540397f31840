"""Closure engines for bootstrap dynamics on finite boxes, tori and
half-plane-assisted strips.

Every engine reads a family in one compiled form (``_compile_family``): its
neighbourhood N, the union of its rules, each rule as indices into N, and a
memo from masks over N (which offsets of a site are infected) to whether
some rule fires, filled lazily from the rules' own masks.
``is_stable`` is one memo read; the frontier kernel ``_grow`` pays |N|
lookups and one memo read per candidate site, however many rules the family
has.  ``closure`` runs the kernel in a box with a blocked boundary, and
``strip_scan``, the only engine next to an infected half-plane, runs it in
the strip next to H_u, column window by column window, with
``_column_width`` read off N.  Synchronous numpy sweeps run the torus and
blocked-box dynamics of the Monte Carlo harness: one shifted plane per
offset of N, ANDed per rule.  ``closure_rescan`` stays a naive full-rescan
fixed point over the rules one by one, in a box or on a torus and
optionally next to a half-plane, kept as the independent oracle for the
kernel, the strip and the sweeps.  Closure is update-order independent by
monotonicity, so the kernel and the sweeps must agree exactly; infection
times are defined by the synchronous sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .geometry import Direction, Site, line_index

# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class Box:
    """Half-open box x0 <= x < x1, y0 <= y < y1."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("degenerate box")

    def contains(self, s: Site) -> bool:
        return self.x0 <= s[0] < self.x1 and self.y0 <= s[1] < self.y1


@dataclass(frozen=True)
class Torus:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("torus size must be positive")


@dataclass(frozen=True)
class HalfPlane:
    """Boundary condition of the rescan oracle: every site with line_index <
    offset is permanently infected (and never materialized in outputs)."""

    u: Direction
    offset: int = 0


class _Timeout:
    def __repr__(self):
        return "TIMEOUT"


TIMEOUT = _Timeout()


class OriginOutsideWindowError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the compiled family and the frontier closure kernel


class _FireMemo(dict):
    """Mask over a neighbourhood -> whether it covers some rule's mask."""

    def __init__(self, rule_masks: tuple[int, ...]):
        super().__init__()
        self.rule_masks = rule_masks

    def __missing__(self, mask: int) -> bool:
        fire = any(r & mask == r for r in self.rule_masks)
        self[mask] = fire
        return fire


@dataclass(frozen=True)
class _CompiledFamily:
    """A family as its neighbourhood N, each rule as the indices of its
    offsets in N, plus the fire memo: bit i of a mask stands for the offset
    hood[i]."""

    hood: tuple[Site, ...]
    rule_indices: tuple[tuple[int, ...], ...]
    fires: _FireMemo


@lru_cache(maxsize=256)
def _compile_family(U) -> _CompiledFamily:
    hood = tuple(sorted(set().union(*U.rules)))
    index = {x: i for i, x in enumerate(hood)}
    rule_indices = tuple(tuple(sorted(index[x] for x in rule)) for rule in U.rules)
    return _CompiledFamily(hood, rule_indices,
                           _FireMemo(tuple(sum(1 << i for i in r) for r in rule_indices)))


@lru_cache(maxsize=256)
def _kernel_hood(U, normals) -> tuple[tuple, _FireMemo]:
    """_grow's view of U under the half-plane normal and the two band normals.
    For each offset x of N: x with its three projections, the bit of x, and
    every other offset of N as (bit, x, y, projection on the half-plane
    normal) for building a candidate's mask; then the fire memo."""
    (a, b), (a0, b0), (a1, b1) = normals
    fam = _compile_family(U)
    lifted = [(1 << i, ex, ey, a * ex + b * ey) for i, (ex, ey) in enumerate(fam.hood)]
    hood = tuple((dx, dy, a * dx + b * dy, a0 * dx + b0 * dy, a1 * dx + b1 * dy, 1 << i,
                  tuple(lifted[:i] + lifted[i + 1:]))
                 for i, (dx, dy) in enumerate(fam.hood))
    return hood, fam.fires


def _grow(inf: set[Site], sources: Iterable[Site], U, half: tuple[int, int, int],
          bands) -> list[Site]:
    """Grow ``inf`` in place to its closure under U; return the added sites
    in order.

    ``half = (a, b, off)``: sites with a*x + b*y < off count as infected
    ((0, 0, 0) means no half-plane).  ``bands`` holds two bounds
    (a_i, b_i, lo_i, hi_i): only sites with lo_i <= a_i*x + b_i*y < hi_i are
    added, and the bands must keep every added site out of the half-plane.

    ``sources`` are the sites whose neighbourhoods need examining: every site
    of ``inf`` that may support a new one.  Each site c = s - x, for x in the
    neighbourhood N, is a candidate; its mask (which of its N-offsets are
    infected; x is, through s) is looked up in the family's fire memo, so a
    rule fires once its last support site is examined.
    """
    a, b, off = half
    (a0, b0, lo0, hi0), (a1, b1, lo1, hi1) = bands
    hood, fires = _kernel_hood(U, ((a, b), (a0, b0), (a1, b1)))
    frontier = list(sources)
    start = len(frontier)
    # the list grows while it is iterated: a FIFO queue without a deque
    for sx, sy in frontier:
        sh, s0, s1 = a * sx + b * sy, a0 * sx + b0 * sy, a1 * sx + b1 * sy
        for dx, dy, dh, d0, d1, mask, others in hood:
            c = (sx - dx, sy - dy)
            if c in inf:
                continue
            c0 = s0 - d0
            if c0 < lo0 or c0 >= hi0:
                continue
            c1 = s1 - d1
            if c1 < lo1 or c1 >= hi1:
                continue
            cx, cy = c
            below = off - sh + dh  # an offset e is in the half-plane iff e's projection < below
            for bit, ex, ey, eh in others:
                if eh < below or (cx + ex, cy + ey) in inf:
                    mask |= bit
            if fires[mask]:
                inf.add(c)
                frontier.append(c)
    return frontier[start:]


def closure(A: Iterable[Site], box: Box, U) -> set[Site]:
    """Least fixed point of the bootstrap dynamics inside ``box``, blocked
    boundary.  Torus closures run on the synchronous sweeps
    (``torus_closure_grid``); next to a half-plane, ``strip_scan``."""
    inf = {s for s in A if box.contains(s)}
    _grow(inf, list(inf), U, (0, 0, 0), ((1, 0, box.x0, box.x1), (0, 1, box.y0, box.y1)))
    return inf


def closure_rescan(A: Iterable[Site], shape: Box | Torus, U,
                   hp: Optional[HalfPlane] = None) -> set[Site]:
    """Naive fixed-point iteration in a Box or on a Torus, optionally next to
    the half-plane ``hp``: rescan every site each pass.  Independent oracle
    for the frontier kernel, the strip and the sweeps; only for small
    shapes."""
    if isinstance(shape, Torus):
        n = shape.n
        sites = [(x, y) for x in range(n) for y in range(n)]
        wrap = lambda s: (s[0] % n, s[1] % n)
        occupied_raw = lambda s, inf: wrap(s) in inf
    else:
        sites = [(x, y) for x in range(shape.x0, shape.x1) for y in range(shape.y0, shape.y1)]
        wrap = lambda s: s
        occupied_raw = lambda s, inf: s in inf

    if hp is not None:
        in_half = lambda s: line_index(s, hp.u) < hp.offset
    else:
        in_half = lambda s: False

    infected = {wrap(s) for s in A if not in_half(wrap(s))}
    if not isinstance(shape, Torus):
        infected = {s for s in infected if shape.contains(s)}
    changed = True
    while changed:
        changed = False
        for s in sites:
            if s in infected or in_half(s):
                continue
            for rule in U.rules:
                if all(in_half((s[0] + dx, s[1] + dy)) or occupied_raw((s[0] + dx, s[1] + dy), infected)
                       for dx, dy in rule):
                    infected.add(s)
                    changed = True
                    break
    return infected


# ---------------------------------------------------------------------------
# synchronous numpy sweeps


def _roll(grid: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Torus shift: out[y, x] = grid[y + dy, x + dx]."""
    return np.roll(np.roll(grid, -dy, axis=0), -dx, axis=1)


def _shift(grid: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Blocked-boundary shift, zero fill: out[y, x] = grid[y + dy, x + dx]."""
    h, w = grid.shape
    out = np.zeros_like(grid)
    ys = slice(max(0, dy), min(h, h + dy))
    xs = slice(max(0, dx), min(w, w + dx))
    yd = slice(max(0, -dy), min(h, h - dy))
    xd = slice(max(0, -dx), min(w, w - dx))
    if ys.start < ys.stop and xs.start < xs.stop:
        out[yd, xd] = grid[ys, xs]
    return out


def sweep(grid: np.ndarray, U, torus: bool) -> np.ndarray:
    """One synchronous update; returns the mask of newly infected cells.
    The grid is shifted once per offset of N, and each rule ANDs its
    offsets' planes."""
    shiftf = _roll if torus else _shift
    fam = _compile_family(U)
    planes = [shiftf(grid, dx, dy) for dx, dy in fam.hood]
    newly = np.zeros_like(grid)
    for first, *rest in fam.rule_indices:
        m = planes[first]
        for i in rest:
            m = m & planes[i]
        newly |= m
    newly &= ~grid
    return newly


def torus_closure_grid(grid: np.ndarray, U) -> np.ndarray:
    g = grid.copy()
    while True:
        newly = sweep(g, U, torus=True)
        if not newly.any():
            return g
        g |= newly
        if g.all():
            return g


def percolates_grid(grid: np.ndarray, U) -> bool:
    return bool(torus_closure_grid(grid, U).all())


def infection_time(A: Iterable[Site], U, t_max: int, box: Box):
    """Smallest t <= t_max with the origin in A_t under synchronous updates
    in ``box`` (blocked boundary), else TIMEOUT.  Exact on Z^2 whenever the
    box radius dominates the light cone of the origin (caller's
    responsibility, see the harness)."""
    if not box.contains((0, 0)):
        raise OriginOutsideWindowError("origin not inside the window")
    grid = np.zeros((box.y1 - box.y0, box.x1 - box.x0), dtype=bool)
    for x, y in A:
        if box.contains((x, y)):
            grid[y - box.y0, x - box.x0] = True
    oy, ox = -box.y0, -box.x0
    if grid[oy, ox]:
        return 0
    for t in range(1, t_max + 1):
        newly = sweep(grid, U, torus=False)
        if not newly.any():
            return TIMEOUT
        grid |= newly
        if grid[oy, ox]:
            return t
    return TIMEOUT


# ---------------------------------------------------------------------------
# the strip machine: deciding line infection by semi-periodicity

# the scan gives up after this many column widths on either side
MAX_COLUMNS = 4096


class StripVerdict(Enum):
    INFINITE_LINE = "InfiniteLine"
    FINITE_LINE = "FiniteLine"


class StripUnresolvedError(RuntimeError):
    """The marching scan hit its horizontal budget without finding a repeat;
    does not happen for stable directions at sane budgets."""


@dataclass
class StripScan:
    verdict_plus: StripVerdict
    verdict_minus: StripVerdict
    infected: set[Site]
    col_width: int
    period_plus: Optional[tuple[int, int]]  # (first column j0, period r)
    period_minus: Optional[tuple[int, int]]


def is_stable(u: Direction, U) -> bool:
    """True iff no rule fits inside the open half-plane H_u: the mask of the
    offsets x of N with <u, x> < 0 fires no rule."""
    fam = _compile_family(U)
    return not fam.fires[sum(1 << i for i, x in enumerate(fam.hood) if u.dot(x) < 0)]


@lru_cache(maxsize=1024)
def _column_width(u: Direction, U) -> Optional[int]:
    """The strip's column width for a stable u: twice the reach of N along
    the boundary line; None when u is unstable."""
    if not is_stable(u, U):
        return None
    return 2 * max([1] + [abs(u.b * dx - u.a * dy) for dx, dy in _compile_family(U).hood])


def strip_scan(u: Direction, Z: Iterable[Site], U) -> StripScan:
    """Simulate [H_u ∪ Z] next to the boundary line and resolve, for each
    horizontal direction, whether the infection marches forever (detected by
    a repeated column state, then re-verified three periods forward) or dies
    out.

    For a stable u no site of the closure rises above the highest line of
    Z, so the scan runs on the lines 0..max line(Z), column window by column
    window, doubling the window up to MAX_COLUMNS column widths.
    """
    a, b = u.a, u.b
    Z = {tuple(z) for z in Z}
    idx = lambda s: a * s[0] + b * s[1]
    cpos = lambda s: b * s[0] - a * s[1]
    if any(idx(z) < 0 for z in Z):
        raise ValueError("witness set must avoid the half-plane")

    W = _column_width(u, U)
    if W is None:
        # the half-plane alone fills everything
        return StripScan(StripVerdict.INFINITE_LINE, StripVerdict.INFINITE_LINE,
                         set(Z), 1, (0, 1), (0, 1))

    top = max(map(idx, Z), default=-1) + 1

    infected: set[Site] = set(Z)

    cz = [cpos(z) for z in Z] or [0]
    C = max(max(map(abs, cz)) + 4 * W, 6 * W)
    fronts = [max(cz), min(cz)]

    def run_fixpoint(seeds):
        added = _grow(infected, seeds, U, (a, b, 0), ((a, b, 0, top), (b, -a, -C, C + 1)))
        if added:
            cs = [b * x - a * y for x, y in added]
            fronts[0] = max(fronts[0], max(cs))
            fronts[1] = min(fronts[1], min(cs))

    def snapshot():
        cols: dict[int, list] = {}
        for sx, sy in infected:
            c = b * sx - a * sy
            i = c // W
            item = (a * sx + b * sy, c - i * W)
            if i in cols:
                cols[i].append(item)
            else:
                cols[i] = [item]
        return {i: frozenset(v) for i, v in cols.items()}

    def find_period(snap, prev, sign):
        """Period search on settled columns beyond the witness region, in the
        marching direction given by sign (+1 right, -1 left).  Columns count
        as settled only once unchanged across a doubling of the window."""
        if not infected or prev is None:
            return None
        jz = max(cz) // W if sign > 0 else min(cz) // W
        front = fronts[0] // W if sign > 0 else fronts[1] // W
        # settled: unchanged since previous doubling, 2 columns off the front
        lo, hi = (jz + 1, front - 2) if sign > 0 else (front + 2, jz - 1)
        cols = list(range(lo, hi + 1)) if sign > 0 else list(range(hi, lo - 1, -1))
        pats = []
        for i in cols:
            p = snap.get(i, frozenset())
            if prev is not None and prev.get(i, frozenset()) != p:
                break
            pats.append((i, p))
        seen: dict[frozenset, int] = {}
        for k, (i, p) in enumerate(pats):
            if p in seen:
                j0 = seen[p]
                r = k - j0
                # verify the repeat holds for three more periods of columns
                if k + 3 * r <= len(pats):
                    if all(pats[j0 + m][1] == pats[j0 + (m % r)][1]
                           for m in range(k + 3 * r - j0)):
                        return (pats[j0][0], r)
                return None
            seen[p] = k
        return None

    run_fixpoint(list(Z))
    prev = None
    period_plus = period_minus = None
    verdict_plus = verdict_minus = None

    while True:
        fp, fm = fronts
        plus_stalled = fp <= C - 2 * W
        minus_stalled = fm >= -(C - 2 * W)
        snap = None if (plus_stalled and minus_stalled) else snapshot()

        if plus_stalled and minus_stalled:
            verdict_plus = verdict_plus or StripVerdict.FINITE_LINE
            verdict_minus = verdict_minus or StripVerdict.FINITE_LINE
            break

        if verdict_plus is None and not plus_stalled:
            period_plus = find_period(snap, prev, +1)
            if period_plus is not None:
                j0, r = period_plus
                occupied = any(
                    idx(s) == 0 and j0 * W <= cpos(s) < (j0 + r) * W for s in infected
                )
                verdict_plus = StripVerdict.INFINITE_LINE if occupied else StripVerdict.FINITE_LINE
        if verdict_minus is None and not minus_stalled:
            period_minus = find_period(snap, prev, -1)
            if period_minus is not None:
                j0, r = period_minus
                occupied = any(
                    idx(s) == 0 and (j0 - r + 1) * W <= cpos(s) < (j0 + 1) * W for s in infected
                )
                verdict_minus = StripVerdict.INFINITE_LINE if occupied else StripVerdict.FINITE_LINE

        plus_done = verdict_plus is not None or plus_stalled
        minus_done = verdict_minus is not None or minus_stalled
        if plus_done and minus_done:
            # a stalled side may still grow while the other marches; keep
            # going until the marching side's period is confirmed, then the
            # stalled side's tail is exact by the adjacency argument
            verdict_plus = verdict_plus or StripVerdict.FINITE_LINE
            verdict_minus = verdict_minus or StripVerdict.FINITE_LINE
            break

        prev = snap
        C *= 2
        if C > MAX_COLUMNS * W:
            raise StripUnresolvedError(
                f"no repeat within {MAX_COLUMNS} columns for u=({a},{b})")
        edge = [s for s in infected if abs(cpos(s)) >= C // 2 - 2 * W]
        run_fixpoint(edge)

    return StripScan(verdict_plus, verdict_minus, infected, W, period_plus, period_minus)
