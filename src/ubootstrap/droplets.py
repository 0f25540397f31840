"""Droplets, icebergs and the three closure-approximation algorithms
(covering, spanning, iceberg), plus the internal-span predicate, the
definitional oracle that spanning is checked against.

A droplet is the lattice restriction of a convex polygon cut out by
half-planes with normals in a fixed direction set; an iceberg is the drift
variant resting on an infected half-plane.  Merge conditions are decided
exactly on lattice sites (strong connectivity in the kappa-disc graph); the
translate-existence tests are Minkowski dilations, computed as integer-valued
FFT convolutions on offset grids.

All three algorithms run one loop, ``_merge_loop``: steps in priority order,
lowest index pair first, merging until no step applies.  Each test reads only
the pieces it is given, so a pair that failed a step is never tested again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.signal import fftconvolve

from .geometry import Direction, Site, ccw_key, cross, line_index, sort_directions
from .lattice import Box, closure


class UnboundedDropletError(ValueError):
    pass


class NotDriftFamilyError(ValueError):
    pass


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _directions_bound_plane(dirs: Sequence[Direction]) -> bool:
    """Every ccw gap strictly below pi, so the half-plane intersection is
    bounded (equivalently the direction set meets every open semicircle)."""
    order = sort_directions(dirs)
    if len(order) < 3:
        return False
    pi_key = Direction(-1, 0).angle_key()
    for i, d in enumerate(order):
        if ccw_key(d, order[(i + 1) % len(order)]) >= pi_key:
            return False
    return True


def _region_sites(constraints: Sequence[tuple[int, int, int]]) -> list[Site]:
    """Lattice points of {x : a x + b y <= c for each (a, b, c)}; the real
    polytope must be bounded."""
    verts = []
    n = len(constraints)
    for i in range(n):
        a1, b1, c1 = constraints[i]
        for j in range(i + 1, n):
            a2, b2, c2 = constraints[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = Fraction(c1 * b2 - c2 * b1, det)
            y = Fraction(a1 * c2 - a2 * c1, det)
            if all(a * x + b * y <= c for a, b, c in constraints):
                verts.append((x, y))
    if not verts:
        return []
    y_lo = min(math.floor(v[1]) for v in verts)
    y_hi = max(math.ceil(v[1]) for v in verts)
    x_min = min(math.floor(v[0]) for v in verts)
    x_max = max(math.ceil(v[0]) for v in verts)
    out = []
    for y in range(y_lo, y_hi + 1):
        x_lo, x_hi = x_min, x_max
        ok = True
        for a, b, c in constraints:
            r = c - b * y
            if a > 0:
                x_hi = min(x_hi, r // a)
            elif a < 0:
                x_lo = max(x_lo, _ceil_div(-r, -a))
            elif r < 0:
                ok = False
                break
        if ok:
            out.extend((x, y) for x in range(x_lo, x_hi + 1))
    return out


def _hull(points: Sequence[Site]) -> list[Site]:
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(iterable):
        h = []
        for p in iterable:
            while len(h) >= 2 and (
                (h[-1][0] - h[-2][0]) * (p[1] - h[-2][1])
                - (h[-1][1] - h[-2][1]) * (p[0] - h[-2][0])
            ) <= 0:
                h.pop()
            h.append(p)
        return h

    return half(pts)[:-1] + half(reversed(pts))[:-1]


def _diam(points: Sequence[Site]) -> float:
    h = _hull(points)
    best = 0.0
    for i in range(len(h)):
        for j in range(i + 1, len(h)):
            best = max(best, math.hypot(h[i][0] - h[j][0], h[i][1] - h[j][1]))
    return best


# ---------------------------------------------------------------------------
# droplets


@dataclass(frozen=True)
class Droplet:
    """Intersection of translated half-planes {x : line_index(x, u) < a_u}
    over a direction set meeting every open semicircle."""

    directions: tuple[Direction, ...]
    offsets: tuple[int, ...]

    def __post_init__(self):
        if len(self.directions) != len(self.offsets):
            raise ValueError("directions and offsets must align")
        if not _directions_bound_plane(self.directions):
            raise UnboundedDropletError(
                "direction set misses an open semicircle; droplets are unbounded")

    def constraints(self) -> list[tuple[int, int, int]]:
        return [(u.a, u.b, o - 1) for u, o in zip(self.directions, self.offsets)]

    def sites(self) -> frozenset:
        return _droplet_sites(self)

    def contains(self, s: Site) -> bool:
        return all(line_index(s, u) < o for u, o in zip(self.directions, self.offsets))

    def translate(self, v: Site) -> "Droplet":
        return Droplet(self.directions,
                       tuple(o + line_index(v, u) for u, o in zip(self.directions, self.offsets)))

    def proj(self, u: Direction) -> float:
        vals = [line_index(s, u) for s in self.sites()]
        return (max(vals) - min(vals)) / u.norm()

    def diam(self) -> float:
        return _diam(list(self.sites()))

    def __repr__(self):
        faces = ", ".join(f"{u}<{o}" for u, o in zip(self.directions, self.offsets))
        return f"Droplet({faces})"


@lru_cache(maxsize=8192)
def _droplet_sites(d: Droplet) -> frozenset:
    return frozenset(_region_sites(d.constraints()))


def minimal_droplet(K: Iterable[Site], T: Sequence[Direction]) -> Droplet:
    """The unique smallest T-droplet containing K (tight offsets)."""
    K = list(K)
    if not K:
        raise ValueError("minimal droplet of an empty set")
    dirs = tuple(sort_directions(T))
    offsets = tuple(1 + max(line_index(s, u) for s in K) for u in dirs)
    return Droplet(dirs, offsets)


# ---------------------------------------------------------------------------
# offset grids: boolean masks anchored to lattice coordinates


@dataclass
class OGrid:
    arr: np.ndarray  # bool, indexed [y - y0, x - x0]
    x0: int
    y0: int

    @staticmethod
    def from_sites(sites: Iterable[Site]) -> "OGrid":
        pts = list(sites)
        xs = [s[0] for s in pts]
        ys = [s[1] for s in pts]
        x0, y0 = min(xs), min(ys)
        arr = np.zeros((max(ys) - y0 + 1, max(xs) - x0 + 1), dtype=bool)
        for x, y in pts:
            arr[y - y0, x - x0] = True
        return OGrid(arr, x0, y0)

    def dilate(self, kernel: "OGrid") -> "OGrid":
        # Minkowski sum via integer-valued convolution; counts are integers,
        # so thresholding at 0.5 is exact despite the FFT round trip
        conv = fftconvolve(self.arr.astype(np.float64), kernel.arr.astype(np.float64))
        return OGrid(conv > 0.5, self.x0 + kernel.x0, self.y0 + kernel.y0)

    def intersect(self, other: "OGrid") -> Optional["OGrid"]:
        x0 = max(self.x0, other.x0)
        y0 = max(self.y0, other.y0)
        x1 = min(self.x0 + self.arr.shape[1], other.x0 + other.arr.shape[1])
        y1 = min(self.y0 + self.arr.shape[0], other.y0 + other.arr.shape[0])
        if x0 >= x1 or y0 >= y1:
            return None
        a = self.arr[y0 - self.y0:y1 - self.y0, x0 - self.x0:x1 - self.x0]
        b = other.arr[y0 - other.y0:y1 - other.y0, x0 - other.x0:x1 - other.x0]
        return OGrid(a & b, x0, y0)

    def union(self, other: "OGrid") -> "OGrid":
        x0 = min(self.x0, other.x0)
        y0 = min(self.y0, other.y0)
        x1 = max(self.x0 + self.arr.shape[1], other.x0 + other.arr.shape[1])
        y1 = max(self.y0 + self.arr.shape[0], other.y0 + other.arr.shape[0])
        arr = np.zeros((y1 - y0, x1 - x0), dtype=bool)
        arr[self.y0 - y0:self.y0 - y0 + self.arr.shape[0],
            self.x0 - x0:self.x0 - x0 + self.arr.shape[1]] |= self.arr
        arr[other.y0 - y0:other.y0 - y0 + other.arr.shape[0],
            other.x0 - x0:other.x0 - x0 + other.arr.shape[1]] |= other.arr
        return OGrid(arr, x0, y0)

    def any(self) -> bool:
        return bool(self.arr.any())

    def first_site(self) -> Optional[Site]:
        idx = np.argwhere(self.arr)
        if idx.size == 0:
            return None
        iy, ix = idx[0]
        return (int(ix) + self.x0, int(iy) + self.y0)

    def first_site_with_index_at_most(self, u: Direction, bound: int) -> Optional[Site]:
        h, w = self.arr.shape
        xs = np.arange(self.x0, self.x0 + w)
        ys = np.arange(self.y0, self.y0 + h)
        idxplane = u.a * xs[None, :] + u.b * ys[:, None]
        hit = np.argwhere(self.arr & (idxplane <= bound))
        if hit.size == 0:
            return None
        iy, ix = hit[0]
        return (int(ix) + self.x0, int(iy) + self.y0)


def disc_offsets(kappa: float) -> list[Site]:
    k = int(math.floor(kappa + 1e-9))
    k2 = kappa * kappa + 1e-9
    return [(dx, dy) for dx in range(-k, k + 1) for dy in range(-k, k + 1)
            if dx * dx + dy * dy <= k2]


def _kappa_index(sites: Iterable[Site], kappa: float) -> tuple[dict, int, float]:
    """Bucket grid over ``sites`` for the graph joining sites within
    Euclidean distance kappa: (buckets, cell side, squared radius)."""
    cell = max(1, int(math.floor(kappa + 1e-9)))
    buckets: dict[tuple[int, int], list[Site]] = {}
    for s in sites:
        buckets.setdefault((s[0] // cell, s[1] // cell), []).append(s)
    return buckets, cell, kappa * kappa + 1e-9


def _kappa_bfs(start: Site, index, limit: Optional[int] = None) -> list[Site]:
    """Indexed sites reachable from ``start`` in the kappa graph, in
    breadth-first order; each site's new neighbours join the queue sorted.
    With ``limit`` the search stops expanding once that many sites are
    found."""
    buckets, cell, kap2 = index
    order = [start]
    seen = {start}
    for sx, sy in order:
        if limit is not None and len(order) >= limit:
            break
        bx, by = sx // cell, sy // cell
        new = []
        for gx in range(bx - 2, bx + 3):
            for gy in range(by - 2, by + 3):
                for t in buckets.get((gx, gy), ()):
                    if t not in seen:
                        dx, dy = sx - t[0], sy - t[1]
                        if dx * dx + dy * dy <= kap2:
                            seen.add(t)
                            new.append(t)
        new.sort()
        order.extend(new)
    return order


def strongly_connected_components(sites: Iterable[Site], kappa: float) -> list[frozenset]:
    """Components of the graph joining sites within Euclidean distance kappa,
    listed in lexicographic order of their minimal site."""
    pts = set(sites)
    index = _kappa_index(pts, kappa)
    seen: set[Site] = set()
    comps = []
    for start in sorted(pts):
        if start not in seen:
            comp = frozenset(_kappa_bfs(start, index))
            seen |= comp
            comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# alpha clusters


def alpha_clusters(K: Iterable[Site], alpha: int, kappa: float) -> tuple[list[frozenset], frozenset]:
    """Maximal collection of disjoint strongly connected alpha-site clusters,
    chosen by lexicographic scan; returns (clusters, dust).  Every strongly
    connected dust component has fewer than alpha sites."""
    if alpha < 1:
        raise ValueError("alpha must be positive")
    remaining = set(K)
    index = _kappa_index(remaining, kappa)
    buckets, cell, _ = index
    clusters: list[frozenset] = []
    # one pass is maximal: removing a cluster only shrinks the components of
    # the seeds that failed before it
    for seed in sorted(remaining):
        if seed in remaining:
            prefix = _kappa_bfs(seed, index, limit=alpha)
            if len(prefix) >= alpha:
                cl = frozenset(prefix[:alpha])
                clusters.append(cl)
                remaining -= cl
                for s in cl:
                    buckets[s[0] // cell, s[1] // cell].remove(s)
    return clusters, frozenset(remaining)


# ---------------------------------------------------------------------------
# covering algorithm


def default_dhat(directions: Sequence[Direction], kappa: float, alpha: int = 1) -> Droplet:
    """The fixed large droplet used for seeding and bridging: the minimal
    droplet containing a Euclidean ball of radius max(3, alpha - 1) * kappa
    (large enough to hold any alpha-cluster)."""
    r = max(max(3.0, float(alpha - 1)) * kappa, 1.0)
    k = int(math.ceil(r))
    ball = [(x, y) for x in range(-k, k + 1) for y in range(-k, k + 1)
            if x * x + y * y <= r * r + 1e-9]
    return minimal_droplet(ball, directions)


@dataclass(frozen=True)
class MergeEvent:
    step: int
    left: int
    right: int
    bridge: Optional[Site]
    result: object  # Droplet or Iceberg


def _first_site(r: Optional[OGrid]) -> Optional[Site]:
    return r.first_site() if r is not None and r.any() else None


def _merge_loop(pieces: list, steps: Sequence[tuple], record=None):
    """The find-and-merge loop of the droplet algorithms: steps in priority
    order, lowest index pair first.

    ``steps`` lists ``(test, merge, pairwise)``.  Each round applies the
    first step whose test holds, at its lowest index i, or for a pairwise
    step its lowest pair i < j.  ``test`` returns None or a witness: True, or
    the bridge site to log.  ``merge`` returns (new piece, logged result);
    the new piece takes index i and a pairwise merge drops j (a unary one
    logs right = -1).  A test must read only its own pieces, so a (step,
    piece, piece) that failed stays failed: it is kept by the pieces' serial
    numbers and never tested again.  With ``record``, a piece's history is
    ``[record(p)]``, and after a merge that of i, then of j, then
    ``record(new)``.  Returns (pieces, merge log, histories or None).
    """
    pieces = list(pieces)
    serials = list(range(len(pieces)))
    histories = [[record(p)] for p in pieces] if record else None
    failed: set[tuple[int, int, int]] = set()
    log: list[MergeEvent] = []

    def find():
        for k, (test, merge, pairwise) in enumerate(steps):
            for i in range(len(pieces)):
                for j in range(i + 1, len(pieces)) if pairwise else (-1,):
                    key = (k, serials[i], serials[j] if j >= 0 else -1)
                    if key not in failed:
                        args = (pieces[i], pieces[j]) if j >= 0 else (pieces[i],)
                        witness = test(*args)
                        if witness is not None:
                            return i, j, witness, merge(*args)
                        failed.add(key)
        return None

    made = len(pieces)
    while (hit := find()) is not None:
        i, j, witness, (new, result) = hit
        log.append(MergeEvent(len(log), i, j, None if witness is True else witness, result))
        pieces[i], serials[i] = new, made
        made += 1
        if histories is not None:
            histories[i] = histories[i] + (histories[j] if j >= 0 else []) + [record(new)]
        if j >= 0:
            del pieces[j], serials[j]
            if histories is not None:
                del histories[j]
    return pieces, log, histories


@dataclass
class CoverResult:
    droplets: list[Droplet]
    clusters: list[frozenset]
    dust: frozenset
    merge_log: list[MergeEvent]
    ancestors: list[list[Droplet]]  # per output droplet: its whole merge tree
    d_hat: Droplet


def _bridge_kernel(kappa: float, d_hat) -> OGrid:
    """Offsets v with (v + d_hat) within kappa of the origin: the kernel whose
    dilation of a site set S yields {x : dist(x + d_hat, S) <= kappa}."""
    disc = OGrid.from_sites(disc_offsets(kappa))
    hat_neg = OGrid.from_sites([(-x, -y) for x, y in d_hat.sites()])
    return disc.dilate(hat_neg)


def _droplet_merge(directions: Sequence[Direction]):
    """Merge step: two droplets become the minimal droplet of their union."""
    def merge(a: Droplet, b: Droplet):
        new = minimal_droplet(a.sites() | b.sites(), directions)
        return new, new
    return merge


def covering_algorithm(K: Iterable[Site], U, directions: Sequence[Direction],
                       alpha: int, kappa: float) -> CoverResult:
    """Covering loop: seed a copy of the fixed droplet on each alpha-cluster
    and repeatedly replace two droplets bridgeable by one translate of that
    droplet with the minimal droplet of their union.  One step, applied at
    the lowest index pair first.

    The bridge test is exact: x + d_hat comes within kappa of both droplets
    for some lattice x iff their bridge-kernel dilations overlap.  It reads
    only the two droplets, so a pair that failed it is never tested again.
    """
    K = sorted(set(K))
    clusters, dust = alpha_clusters(K, alpha, kappa)
    d_hat = default_dhat(directions, kappa, alpha)
    if not clusters:
        return CoverResult([], [], dust, [], [], d_hat)

    kernel = _bridge_kernel(kappa, d_hat)
    reach: dict[Droplet, OGrid] = {}

    def reach_of(d: Droplet) -> OGrid:
        if d not in reach:
            reach[d] = OGrid.from_sites(d.sites()).dilate(kernel)
        return reach[d]

    def bridge(a: Droplet, b: Droplet) -> Optional[Site]:
        return _first_site(reach_of(a).intersect(reach_of(b)))

    seeds = [d_hat.translate(min(cl)) for cl in clusters]
    live, log, ancestors = _merge_loop(seeds, [(bridge, _droplet_merge(directions), True)],
                                       record=lambda d: d)
    return CoverResult(live, clusters, dust, log, ancestors, d_hat)


# ---------------------------------------------------------------------------
# spanning algorithm


@dataclass
class SpanResult:
    droplets: list[Droplet]
    components: list[frozenset]  # the closed merged site sets
    merge_log: list[MergeEvent]
    histories: list[list[frozenset]]  # per component: seed-set snapshots


def _span_window(K, dirs, kappa) -> Box:
    hull = minimal_droplet(K, dirs)
    pad = int(math.ceil(kappa + 4))
    xs = [s[0] for s in hull.sites()]
    ys = [s[1] for s in hull.sites()]
    return Box(min(xs) - pad, min(ys) - pad, max(xs) + pad + 1, max(ys) + pad + 1)


class _SpanPart(NamedTuple):
    seeds: frozenset
    closed: set  # closure of the seeds
    grid: OGrid  # the closed sites
    dil: OGrid  # their kappa-dilation


def spanning_algorithm(K: Iterable[Site], U, directions: Sequence[Direction],
                       kappa: float) -> SpanResult:
    """Spanning loop: start from singletons, merge two parts while the union
    of their closures is strongly connected, return the minimal droplets of
    the closed parts.  One step, applied at the lowest index pair first; the
    test reads only the two closures, so a pair that failed it is never
    tested again.  Must agree with ``span_components``."""
    K = sorted(set(K))
    if not K:
        return SpanResult([], [], [], [])
    dirs = tuple(sort_directions(directions))
    box = _span_window(K, dirs, kappa)
    disc = OGrid.from_sites(disc_offsets(kappa))

    def part(seeds: frozenset, closed: set) -> _SpanPart:
        grid = OGrid.from_sites(closed)
        return _SpanPart(seeds, closed, grid, grid.dilate(disc))

    def joined(a: _SpanPart, b: _SpanPart) -> Optional[bool]:
        return True if _first_site(a.dil.intersect(b.grid)) is not None else None

    def merge(a: _SpanPart, b: _SpanPart):
        new = part(a.seeds | b.seeds, closure(a.closed | b.closed, box, U))
        return new, minimal_droplet(new.closed, dirs)

    singletons = [part(frozenset({s}), closure({s}, box, U)) for s in K]
    parts, log, histories = _merge_loop(singletons, [(joined, merge, True)],
                                        record=lambda p: p.seeds)
    droplets = [minimal_droplet(p.closed, dirs) for p in parts]
    return SpanResult(droplets, [frozenset(p.closed) for p in parts], log, histories)


def span_components(K: Iterable[Site], U, directions: Sequence[Direction],
                    kappa: float) -> list[Droplet]:
    """The component formulation: minimal droplets of the strongly connected
    components of the closure of K.  Must equal the merge-loop output."""
    K = sorted(set(K))
    if not K:
        return []
    dirs = tuple(sort_directions(directions))
    box = _span_window(K, dirs, kappa)
    closed = closure(set(K), box, U)
    return [minimal_droplet(c, dirs) for c in strongly_connected_components(closed, kappa)]


# ---------------------------------------------------------------------------
# the internal-span predicate


def is_internally_spanned(D: Droplet, A: Iterable[Site], U, kappa: float) -> bool:
    """Some strongly connected component of the closure of D intersect A has
    D as its minimal droplet."""
    seeds = D.sites() & set(A)
    if not seeds:
        return False
    xs = [s[0] for s in D.sites()]
    ys = [s[1] for s in D.sites()]
    closed = closure(seeds, Box(min(xs), min(ys), max(xs) + 1, max(ys) + 1), U)
    for comp in strongly_connected_components(closed, kappa):
        if minimal_droplet(comp, D.directions) == D:
            return True
    return False


# ---------------------------------------------------------------------------
# icebergs


@dataclass(frozen=True)
class Iceberg:
    """Triangle (H_{u0}(a) ∩ H_{u*}(b)) minus H_u: faces perpendicular to u0
    and u*, resting on the base half-plane boundary of u."""

    u: Direction
    u0: Direction
    u_star: Direction
    offset0: int
    offset_star: int

    def constraints(self) -> list[tuple[int, int, int]]:
        return [
            (self.u0.a, self.u0.b, self.offset0 - 1),
            (self.u_star.a, self.u_star.b, self.offset_star - 1),
            (-self.u.a, -self.u.b, 0),
        ]

    def sites(self) -> frozenset:
        return _iceberg_sites(self)

    def __repr__(self):
        return (f"Iceberg(u={self.u}, {self.u0}<{self.offset0}, "
                f"{self.u_star}<{self.offset_star})")


@lru_cache(maxsize=8192)
def _iceberg_sites(j: Iceberg) -> frozenset:
    return frozenset(_region_sites(j.constraints()))


def smallest_iceberg(X: Iterable[Site], u: Direction, u0: Direction,
                     u_star: Direction) -> Iceberg:
    """J_u(X): the smallest u-iceberg with X inside H_u union the iceberg."""
    above = [s for s in X if line_index(s, u) >= 0]
    if not above:
        raise ValueError("set lies entirely in the half-plane")
    return Iceberg(
        u, u0, u_star,
        1 + max(line_index(s, u0) for s in above),
        1 + max(line_index(s, u_star) for s in above),
    )


@lru_cache(maxsize=None)
def _halfplane_distance_table(u: Direction, kappa: float) -> int:
    """Largest line index j such that a site on line j is within kappa of the
    half-plane {line_index < 0}: one below the deepest reach of the disc."""
    return -min(u.dot(d) for d in disc_offsets(kappa)) - 1


@dataclass
class IcebergResult:
    pieces: list[object]  # Droplet | Iceberg
    merge_log: list[MergeEvent]
    d_hat: Droplet
    step_counts: dict


def iceberg_algorithm(K: Iterable[Site], u: Direction, u0: Direction,
                      u_star: Direction, U, kappa: float) -> IcebergResult:
    """Drift-side covering: three steps in priority order, each applied at
    the lowest index (pair) first.  Step 1 absorbs a droplet joinable to the
    half-plane into an iceberg, step 2 merges a piece pair joinable together
    with the plane into an iceberg, step 3 merges a droplet pair; stops when
    no step applies.  Each test reads only its pieces, so a piece or pair
    that failed a step is never tested for it again.

    Requires u strictly between u0 and u_star, so icebergs are finite.
    """
    if cross(u, u_star) == 0 or cross(u, u0) == 0:
        raise NotDriftFamilyError("base direction must lie strictly between u0 and u*")
    K = sorted(set(K))
    if any(line_index(s, u) < 0 for s in K):
        raise ValueError("seeds must avoid the half-plane")
    directions = (u_star, u_star.neg(), u_star.perp(), u_star.perp().neg())
    d_hat = default_dhat(directions, kappa)
    if not K:
        return IcebergResult([], [], d_hat, {1: 0, 2: 0, 3: 0})

    kernel = _bridge_kernel(kappa, d_hat)
    # half-plane proximity reduces to line-index thresholds: a set reaches the
    # plane within kappa iff its minimal index is at most j_direct, and some
    # translate x + d_hat does iff index(x) is at most j_bridge
    j_direct = _halfplane_distance_table(u, kappa)
    j_bridge = j_direct - min(line_index(s, u) for s in d_hat.sites())

    disc = OGrid.from_sites(disc_offsets(kappa))
    cache: dict[object, tuple[bool, OGrid, OGrid, OGrid]] = {}

    def info(p):
        # (within kappa of the plane, raw grid, kappa-dilation, bridge reach)
        if p not in cache:
            sites = p.sites()
            g = OGrid.from_sites(sites)
            cache[p] = (min(line_index(s, u) for s in sites) <= j_direct, g,
                        g.dilate(disc), g.dilate(kernel))
        return cache[p]

    def near_half(r: Optional[OGrid]) -> Optional[Site]:
        if r is None:
            return None
        return r.first_site_with_index_at_most(u, j_bridge)

    def to_plane(p):
        # step 1: a droplet joinable to the half-plane through one translate
        if not isinstance(p, Droplet):
            return None
        touches, _, _, r = info(p)
        return True if touches else near_half(r)

    def with_plane(a, b):
        # step 2: two pieces whose union with the plane and one translate is
        # strongly connected: the translate must reach every component of
        # {W_a, W_b, H} under direct kappa-adjacency
        ta, _, da, ra = info(a)
        tb, gb, _, rb = info(b)
        direct = _first_site(da.intersect(gb)) is not None
        if (direct and (ta or tb)) or (ta and tb):
            # one component: any placement near the plane works
            return near_half(ra) or near_half(rb) or _first_site(ra)
        if direct:
            return near_half(ra.union(rb))
        if ta:
            return _first_site(ra.intersect(rb)) or near_half(rb)
        if tb:
            return _first_site(ra.intersect(rb)) or near_half(ra)
        return near_half(ra.intersect(rb))

    def droplet_pair(a, b):
        # step 3: two droplets joinable without the plane
        if not (isinstance(a, Droplet) and isinstance(b, Droplet)):
            return None
        _, _, da, ra = info(a)
        _, gb, _, rb = info(b)
        if _first_site(da.intersect(gb)) is not None:
            return True
        return _first_site(ra.intersect(rb))

    def iceberg_of(a, b=None):
        new = smallest_iceberg(a.sites() if b is None else a.sites() | b.sites(), u, u0, u_star)
        return new, new

    steps = [(to_plane, iceberg_of, False), (with_plane, iceberg_of, True),
             (droplet_pair, _droplet_merge(directions), True)]
    pieces, log, _ = _merge_loop([d_hat.translate(s) for s in K], steps)
    counts = {1: 0, 2: 0, 3: 0}
    for e in log:
        counts[1 if e.right < 0 else 2 if isinstance(e.result, Iceberg) else 3] += 1
    return IcebergResult(pieces, log, d_hat, counts)
