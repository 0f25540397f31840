"""Closure engines for bootstrap dynamics on finite boxes, tori and
half-plane-assisted strips.

Every engine but the oracle reads the compiled form that ``UpdateFamily``
builds once: N, the rule function as an AND/OR circuit over N, the reach of
N (its largest |dx| or |dy|) and the lazy fire memo over masks of N.
``is_stable`` is one memo read; the frontier kernel ``_grow`` pays |N|
lookups and one memo read per candidate site, however many rules the family
has.  ``closure`` runs the kernel in a box with a blocked boundary, and
``strip_scan``, the only engine next to an infected half-plane, runs it in
the strip next to H_u, column window by column window, with
``_column_width`` read off N, and decides both sides of the boundary line
in one scan, as the pair (plus, minus).  ``sweep`` is the one synchronous
numpy step: it updates a core of a grid padded by the reach of N,
evaluating the circuit over one contiguous plane per offset of N.  A grid
of unsigned integers packs one trial per bit (bit j of every cell is trial
j's field), and the circuit's ANDs and ORs step every trial in one pass.  The torus pads
once and copies only its halo strips from the core after each sweep,
``infection_time`` zero-pads and ``sample_tau`` sweeps only the origin's
light cone.  ``closure_rescan`` stays a naive full-rescan
fixed point over the rules one by one, in a box or on a torus and optionally
next to a half-plane, kept as the independent oracle for the kernel, the
strip and the sweeps.  Closure is update-order independent by monotonicity,
so the kernel and the sweeps must agree exactly; infection times are
defined by the synchronous sweep.
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
# the frontier closure kernel


@lru_cache(maxsize=256)
def _kernel_hood(U, normals) -> tuple:
    """_grow's view of N under the half-plane normal and the two band
    normals.  For each offset x of N: x with its three projections, the bit
    of x, and every other offset of N as (bit, x, y, projection on the
    half-plane normal) for building a candidate's mask."""
    (a, b), (a0, b0), (a1, b1) = normals
    lifted = [(1 << i, ex, ey, a * ex + b * ey) for i, (ex, ey) in enumerate(U.hood)]
    return tuple((dx, dy, a * dx + b * dy, a0 * dx + b0 * dy, a1 * dx + b1 * dy, 1 << i,
                  tuple(lifted[:i] + lifted[i + 1:]))
                 for i, (dx, dy) in enumerate(U.hood))


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
    hood, fires = _kernel_hood(U, ((a, b), (a0, b0), (a1, b1))), U.fires
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


def sweep(g: np.ndarray, U, core: tuple[slice, slice]) -> np.ndarray:
    """The cells of ``g[core]`` that the next synchronous step infects: the
    family's circuit evaluated on one contiguous plane of ``g`` per offset
    of N.  ``core`` is two slices with int bounds; shifted by the reach of N
    it must stay inside ``g``, or numpy would wrap a negative start
    silently.

    ``g`` is bool, or unsigned integers whose bit j in every cell is trial
    j's field: the circuit is ANDs and ORs, so one pass steps every bit at
    once, and the result has ``g``'s dtype."""
    (y0, y1), (x0, x1) = (core[0].start, core[0].stop), (core[1].start, core[1].stop)
    R, (h, w) = U.reach, g.shape
    if y0 < R or x0 < R or y1 + R > h or x1 + R > w:
        raise ValueError(f"core {core} shifted by reach {R} leaves the {h}x{w} grid")
    if not U.circuit:
        return np.zeros((y1 - y0, x1 - x0), dtype=g.dtype)
    planes = [np.ascontiguousarray(g[y0 + dy:y1 + dy, x0 + dx:x1 + dx]) for dx, dy in U.hood]
    # a plane may be a view of g, so only fresh arrays are updated in place
    vals = []
    for i, hi, lo in U.circuit:
        if hi is None:
            v = planes[i] if lo is None else planes[i] | vals[lo]
        else:
            v = planes[i] & vals[hi]
            if lo is not None:
                v |= vals[lo]
        vals.append(v)
    return vals[-1] & ~g[core]  # fires and is not yet infected


def torus_closure_grid(grid: np.ndarray, U) -> np.ndarray:
    """The closure of ``grid`` on its torus, bit by bit: bit j of an
    unsigned-integer grid is trial j's field and closes on its own, so one
    closure serves every trial packed in the grid.  The grid is padded by
    the reach of N once; after each sweep only the halo strips are copied
    from the core, rows first and then whole columns, so the corners wrap
    too.  A torus narrower than the reach wraps more than once round, and
    is re-wrapped whole.  The loop stops when no bit changes, or when every
    trial that started with an infected cell has filled: the AND over the
    core equals the OR over the initial core."""
    h, w = grid.shape
    R = U.reach
    iy, ix = np.arange(-R, h + R) % h, np.arange(-R, w + R) % w
    core = (slice(R, R + h), slice(R, R + w))
    g = grid.take(iy, 0).take(ix, 1)
    c = g[core]
    full = np.bitwise_or.reduce(c, axis=None)
    while True:
        newly = sweep(g, U, core)
        if not newly.any():
            break
        c |= newly
        if np.bitwise_and.reduce(c, axis=None) == full:
            break
        if h < R or w < R:
            g = c.take(iy, 0).take(ix, 1)
            c = g[core]
        else:
            g[:R] = g[h:h + R]
            g[R + h:] = g[R:2 * R]
            g[:, :R] = g[:, w:w + R]
            g[:, R + w:] = g[:, R:2 * R]
    return c.copy()


def infection_time(A: Iterable[Site], U, t_max: int, box: Box):
    """Smallest t <= t_max with the origin in A_t under synchronous updates
    in ``box`` (blocked boundary), else TIMEOUT.  Exact on Z^2 whenever the
    box radius dominates the light cone of the origin (caller's
    responsibility, see the harness); the full-box oracle for ``sample_tau``."""
    if not box.contains((0, 0)):
        raise OriginOutsideWindowError("origin not inside the window")
    R = U.reach
    y0, x0 = box.y0 - R, box.x0 - R  # the zero padding's corner
    grid = np.zeros((box.y1 + R - y0, box.x1 + R - x0), dtype=bool)
    for x, y in A:
        if box.contains((x, y)):
            grid[y - y0, x - x0] = True
    core, oy, ox = (slice(R, box.y1 - y0), slice(R, box.x1 - x0)), -y0, -x0
    if grid[oy, ox]:
        return 0
    for t in range(1, t_max + 1):
        newly = sweep(grid, U, core)
        if not newly.any():
            return TIMEOUT
        grid[core] |= newly
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
    """One scan's verdicts on both sides of the boundary line.  Index 0 is
    the plus side (rightward looking along u) and index 1 the minus side;
    ``periods[i]`` is (first column j0, period r) when side i marches, and
    None when it stalls."""

    verdicts: tuple[StripVerdict, StripVerdict]
    infected: set[Site]
    col_width: int
    periods: tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]


def is_stable(u: Direction, U) -> bool:
    """True iff no rule fits inside the open half-plane H_u: the mask of the
    offsets x of N with <u, x> < 0 fires no rule."""
    return not U.fires[sum(1 << i for i, x in enumerate(U.hood) if u.dot(x) < 0)]


def _column_width(u: Direction, U) -> Optional[int]:
    """The strip's column width for a stable u: twice the reach of N along
    the boundary line; None when u is unstable."""
    if not is_stable(u, U):
        return None
    return 2 * max([1] + [abs(u.b * dx - u.a * dy) for dx, dy in U.hood])


def strip_scan(u: Direction, Z: Iterable[Site], U) -> StripScan:
    """Simulate [H_u ∪ Z] next to the boundary line and resolve both of its
    sides in one scan, plus (index 0, rightward looking along u) and minus
    (index 1): whether the infection marches forever along that side
    (detected by a repeated column state, then re-verified three periods
    forward) or dies out.  One loop serves both sides, each with its sign
    along the line.

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
        return StripScan((StripVerdict.INFINITE_LINE,) * 2, set(Z), 1, ((0, 1),) * 2)

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
    verdicts: list = [None, None]
    periods: list = [None, None]

    while True:
        stalled = (fronts[0] <= C - 2 * W, fronts[1] >= -(C - 2 * W))
        snap = None if all(stalled) else snapshot()
        for side, sign in enumerate((1, -1)):
            if verdicts[side] is not None or stalled[side]:
                continue
            periods[side] = find_period(snap, prev, sign)
            if periods[side] is not None:
                j0, r = periods[side]
                lo = j0 if sign > 0 else j0 - r + 1  # the period's leftmost column
                occupied = any(idx(s) == 0 and lo * W <= cpos(s) < (lo + r) * W for s in infected)
                verdicts[side] = StripVerdict.INFINITE_LINE if occupied else StripVerdict.FINITE_LINE

        if all(v is not None or stall for v, stall in zip(verdicts, stalled)):
            # a stalled side may still grow while the other marches; keep
            # going until the marching side's period is confirmed, then the
            # stalled side's tail is exact by the adjacency argument
            break

        prev = snap
        C *= 2
        if C > MAX_COLUMNS * W:
            raise StripUnresolvedError(
                f"no repeat within {MAX_COLUMNS} columns for u=({a},{b})")
        edge = [s for s in infected if abs(cpos(s)) >= C // 2 - 2 * W]
        run_fixpoint(edge)

    return StripScan(tuple(v or StripVerdict.FINITE_LINE for v in verdicts), infected, W,
                     tuple(periods))
