"""Droplets, icebergs and the three closure-approximation algorithms
(covering, spanning, iceberg), plus the internal-fill / internal-span
predicates they support.

A droplet is the lattice restriction of a convex polygon cut out by
half-planes with normals in a fixed direction set; an iceberg is the drift
variant resting on an infected half-plane.  Merge conditions are decided
exactly on lattice sites (strong connectivity in the kappa-disc graph); the
translate-existence tests are Minkowski dilations, computed as integer-valued
FFT convolutions on offset grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.signal import fftconvolve

from .geometry import Direction, Site, ccw_key, cross, line_index, sort_directions
from .lattice import Box, HalfPlane, Window, _compile_family, closure


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

    def face(self, u: Direction) -> frozenset:
        """The u-side: sites on the last non-empty line orthogonal to u."""
        sites = self.sites()
        top = max(line_index(s, u) for s in sites)
        return frozenset(s for s in sites if line_index(s, u) == top)

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
    if not _directions_bound_plane(dirs):
        raise UnboundedDropletError(
            "direction set misses an open semicircle; droplets are unbounded")
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


def is_strongly_connected(sites: Iterable[Site], kappa: float) -> bool:
    pts = set(sites)
    if not pts:
        return True
    return len(strongly_connected_components(pts, kappa)) == 1


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


def default_dhat(directions: Sequence[Direction], kappa: float, alpha: int = 1,
                 radius: Optional[float] = None) -> Droplet:
    """The fixed large droplet used for seeding and bridging: the minimal
    droplet containing a Euclidean ball, by default of radius
    max(3, alpha - 1) * kappa (large enough to hold any alpha-cluster)."""
    r = radius if radius is not None else max(3.0, float(alpha - 1)) * kappa
    r = max(r, 1.0)
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


def covering_algorithm(K: Iterable[Site], U, directions: Sequence[Direction],
                       alpha: int, kappa: float,
                       d_hat: Optional[Droplet] = None) -> CoverResult:
    """Covering loop: seed a copy of the fixed droplet on each alpha-cluster
    and repeatedly replace two droplets bridgeable by one translate of that
    droplet with the minimal droplet of their union; lowest index pair first.

    The bridge test is exact: x + d_hat comes within kappa of both droplets
    for some lattice x iff their bridge-kernel dilations overlap.
    """
    K = sorted(set(K))
    clusters, dust = alpha_clusters(K, alpha, kappa)
    d_hat = d_hat or default_dhat(directions, kappa, alpha)
    if not clusters:
        return CoverResult([], [], dust, [], [], d_hat)

    kernel = _bridge_kernel(kappa, d_hat)
    live: list[Droplet] = [d_hat.translate(min(cl)) for cl in clusters]
    ancestors = [[d] for d in live]
    reach: dict[Droplet, OGrid] = {}

    def reach_of(d: Droplet) -> OGrid:
        if d not in reach:
            reach[d] = OGrid.from_sites(d.sites()).dilate(kernel)
        return reach[d]

    log: list[MergeEvent] = []
    step = 0
    while True:
        found = None
        for i in range(len(live)):
            ri = reach_of(live[i])
            for j in range(i + 1, len(live)):
                both = ri.intersect(reach_of(live[j]))
                if both is not None and both.any():
                    found = (i, j, both.first_site())
                    break
            if found:
                break
        if not found:
            break
        i, j, bridge = found
        merged = minimal_droplet(live[i].sites() | live[j].sites(), directions)
        log.append(MergeEvent(step, i, j, bridge, merged))
        step += 1
        ancestors[i] = ancestors[i] + ancestors[j] + [merged]
        live[i] = merged
        del live[j]
        del ancestors[j]
    return CoverResult(live, clusters, dust, log, ancestors, d_hat)


# ---------------------------------------------------------------------------
# spanning algorithm


@dataclass
class SpanResult:
    droplets: list[Droplet]
    components: list[frozenset]  # the closed merged site sets
    merge_log: list[MergeEvent]
    histories: list[list[frozenset]]  # per component: seed-set snapshots


def _span_window(K, dirs, kappa) -> Window:
    hull = minimal_droplet(K, dirs)
    pad = int(math.ceil(kappa + 4))
    xs = [s[0] for s in hull.sites()]
    ys = [s[1] for s in hull.sites()]
    return Window(Box(min(xs) - pad, min(ys) - pad, max(xs) + pad + 1, max(ys) + pad + 1))


def spanning_algorithm(K: Iterable[Site], U, directions: Sequence[Direction],
                       kappa: float, window: Optional[Window] = None) -> SpanResult:
    """Spanning loop: start from singletons, merge two parts while the union
    of their closures is strongly connected, return the minimal droplets of
    the closed parts.  Must agree with ``span_components``."""
    K = sorted(set(K))
    if not K:
        return SpanResult([], [], [], [])
    dirs = tuple(sort_directions(directions))
    w = window or _span_window(K, dirs, kappa)

    disc = OGrid.from_sites(disc_offsets(kappa))
    parts: list[set] = [{s} for s in K]
    closed: list[set] = [closure({s}, w, U) for s in K]
    histories: list[list[frozenset]] = [[frozenset({s})] for s in K]
    grids = [OGrid.from_sites(c) for c in closed]
    dil = [g.dilate(disc) for g in grids]

    log: list[MergeEvent] = []
    step = 0
    while True:
        found = None
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                inter = dil[i].intersect(grids[j])
                if inter is not None and inter.any():
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        parts[i] = parts[i] | parts[j]
        closed[i] = closure(closed[i] | closed[j], w, U)
        histories[i] = histories[i] + histories[j] + [frozenset(parts[i])]
        grids[i] = OGrid.from_sites(closed[i])
        dil[i] = grids[i].dilate(disc)
        log.append(MergeEvent(step, i, j, None, minimal_droplet(closed[i], dirs)))
        step += 1
        del parts[j], closed[j], histories[j], grids[j], dil[j]
    droplets = [minimal_droplet(c, dirs) for c in closed]
    return SpanResult(droplets, [frozenset(c) for c in closed], log, histories)


def span_components(K: Iterable[Site], U, directions: Sequence[Direction],
                    kappa: float, window: Optional[Window] = None) -> list[Droplet]:
    """The component formulation: minimal droplets of the strongly connected
    components of the closure of K.  Must equal the merge-loop output."""
    K = sorted(set(K))
    if not K:
        return []
    dirs = tuple(sort_directions(directions))
    w = window or _span_window(K, dirs, kappa)
    closed = closure(set(K), w, U)
    return [minimal_droplet(c, dirs) for c in strongly_connected_components(closed, kappa)]


# ---------------------------------------------------------------------------
# fill / span predicates


def is_internally_filled(X: Iterable[Site], A: Iterable[Site], U) -> bool:
    """X is contained in the closure of X intersect A, run inside X."""
    X = set(X)
    if not X:
        return True
    seeds = X & set(A)
    if not seeds:
        return False
    xs = [s[0] for s in X]
    ys = [s[1] for s in X]
    w = Window(Box(min(xs), min(ys), max(xs) + 1, max(ys) + 1))
    got = closure(seeds, w, U, region=X)
    return X <= got


def is_internally_spanned(D: Droplet, A: Iterable[Site], U, kappa: float) -> bool:
    """Some strongly connected component of the closure of D intersect A has
    D as its minimal droplet."""
    seeds = D.sites() & set(A)
    if not seeds:
        return False
    xs = [s[0] for s in D.sites()]
    ys = [s[1] for s in D.sites()]
    w = Window(Box(min(xs), min(ys), max(xs) + 1, max(ys) + 1))
    closed = closure(seeds, w, U)
    for comp in strongly_connected_components(closed, kappa):
        if minimal_droplet(comp, D.directions) == D:
            return True
    return False


def is_u_crossed(u: Direction, strip, A: Iterable[Site], U, kappa: float) -> bool:
    """Whether [H_u(x) ∪ (S ∩ A)], computed inside the strip plus a collar,
    contains a strongly connected set joining the half-plane below the
    (-u)-side to the u-side of the strip.

    ``strip`` is any droplet-like object exposing sites() and the direction
    list; x is taken on the (-u)-side, so the assisting half-plane is
    {y : line_index(y, u) < min index over the strip}.
    """
    sites = set(strip.sites())
    if not sites:
        return False
    offset = min(line_index(s, u) for s in sites)
    top = max(line_index(s, u) for s in sites)
    face = {s for s in sites if line_index(s, u) == top}

    reach = int(math.ceil(max(math.hypot(dx, dy) for dx, dy in _compile_family(U).hood)))
    region = {(sx + dx, sy + dy) for sx, sy in sites
              for dx in range(-reach, reach + 1) for dy in range(-reach, reach + 1)
              if line_index((sx + dx, sy + dy), u) >= offset}
    xs = [s[0] for s in region]
    ys = [s[1] for s in region]
    w = Window(Box(min(xs), min(ys), max(xs) + 1, max(ys) + 1), HalfPlane(u, offset))
    closed = closure(set(A) & sites, w, U, region=region)

    near = offset + _halfplane_distance_table(u, kappa)
    return any(comp & face and any(line_index(s, u) <= near for s in comp)
               for comp in strongly_connected_components(closed, kappa))


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

    def proj(self, d: Direction) -> float:
        vals = [line_index(s, d) for s in self.sites()]
        return (max(vals) - min(vals)) / d.norm()

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
                      u_star: Direction, U, kappa: float,
                      d_hat: Optional[Droplet] = None,
                      directions: Optional[Sequence[Direction]] = None) -> IcebergResult:
    """Drift-side covering: absorb droplets joinable to the half-plane into
    icebergs first, then merge piece pairs joinable together with the plane
    into icebergs, then merge droplet pairs; stops when no step applies.

    Requires u strictly between u0 and u_star, so icebergs are finite.
    """
    if cross(u, u_star) == 0 or cross(u, u0) == 0:
        raise NotDriftFamilyError("base direction must lie strictly between u0 and u*")
    K = sorted(set(K))
    if any(line_index(s, u) < 0 for s in K):
        raise ValueError("seeds must avoid the half-plane")
    if directions is None:
        directions = (u_star, u_star.neg(), u_star.perp(), u_star.perp().neg())
    d_hat = d_hat or default_dhat(directions, kappa)
    if not K:
        return IcebergResult([], [], d_hat, {1: 0, 2: 0, 3: 0})

    kernel = _bridge_kernel(kappa, d_hat)
    # half-plane proximity reduces to line-index thresholds: a set reaches the
    # plane within kappa iff its minimal index is at most j_direct, and some
    # translate x + d_hat does iff index(x) is at most j_bridge
    j_direct = _halfplane_distance_table(u, kappa)
    j_bridge = j_direct - min(line_index(s, u) for s in d_hat.sites())

    pieces: list[object] = [d_hat.translate(s) for s in K]
    disc = OGrid.from_sites(disc_offsets(kappa))
    cache: dict[object, tuple[int, OGrid, OGrid, OGrid]] = {}

    def info(p):
        # (min line index, raw grid, kappa-dilation, bridge reach)
        if p not in cache:
            sites = p.sites()
            g = OGrid.from_sites(sites)
            cache[p] = (min(line_index(s, u) for s in sites), g,
                        g.dilate(disc), g.dilate(kernel))
        return cache[p]

    def touches_half(p) -> bool:
        return info(p)[0] <= j_direct

    def near_half(r: Optional[OGrid]) -> Optional[Site]:
        if r is None:
            return None
        return r.first_site_with_index_at_most(u, j_bridge)

    def first_of(r: Optional[OGrid]) -> Optional[Site]:
        return r.first_site() if r is not None and r.any() else None

    log: list[MergeEvent] = []
    counts = {1: 0, 2: 0, 3: 0}
    step = 0
    while True:
        action = None
        bridge = None
        # step 1: a droplet joinable to the half-plane through one translate
        for i, p in enumerate(pieces):
            if not isinstance(p, Droplet):
                continue
            if touches_half(p):
                action = (1, i, None)
                break
            hit = near_half(info(p)[3])
            if hit is not None:
                action = (1, i, None)
                bridge = hit
                break
        if action is None:
            # step 2: two pieces whose union with the plane and one translate
            # is strongly connected: the translate must reach every component
            # of {W_i, W_j, H} under direct kappa-adjacency
            for i in range(len(pieces)):
                mi, gi, di, ri = info(pieces[i])
                ti = mi <= j_direct
                for j in range(i + 1, len(pieces)):
                    mj, gj, dj, rj = info(pieces[j])
                    tj = mj <= j_direct
                    inter = di.intersect(gj)
                    direct = inter is not None and inter.any()
                    if (direct and (ti or tj)) or (ti and tj):
                        # one component: any placement near the plane works
                        hit = near_half(ri) or near_half(rj) or first_of(ri)
                    elif direct:
                        hit = near_half(ri.union(rj))
                    elif ti:
                        hit = first_of(ri.intersect(rj)) or near_half(rj)
                    elif tj:
                        hit = first_of(ri.intersect(rj)) or near_half(ri)
                    else:
                        hit = near_half(ri.intersect(rj))
                    if hit is not None:
                        action = (2, i, j)
                        bridge = hit
                        break
                if action:
                    break
        if action is None:
            # step 3: two droplets joinable without the plane
            for i in range(len(pieces)):
                if not isinstance(pieces[i], Droplet):
                    continue
                mi, gi, di, ri = info(pieces[i])
                for j in range(i + 1, len(pieces)):
                    if not isinstance(pieces[j], Droplet):
                        continue
                    mj, gj, dj, rj = info(pieces[j])
                    inter = di.intersect(gj)
                    if inter is not None and inter.any():
                        action = (3, i, j)
                        break
                    inter2 = ri.intersect(rj)
                    if inter2 is not None and inter2.any():
                        action = (3, i, j)
                        bridge = inter2.first_site()
                        break
                if action:
                    break
        if action is None:
            break

        kind, i, j = action
        counts[kind] += 1
        if kind == 1:
            newp: object = smallest_iceberg(pieces[i].sites(), u, u0, u_star)
            log.append(MergeEvent(step, i, -1, bridge, newp))
            pieces[i] = newp
        elif kind == 2:
            newp = smallest_iceberg(pieces[i].sites() | pieces[j].sites(), u, u0, u_star)
            log.append(MergeEvent(step, i, j, bridge, newp))
            pieces[i] = newp
            del pieces[j]
        else:
            newp = minimal_droplet(pieces[i].sites() | pieces[j].sites(), directions)
            log.append(MergeEvent(step, i, j, bridge, newp))
            pieces[i] = newp
            del pieces[j]
        step += 1
    return IcebergResult(pieces, log, d_hat, counts)


# ---------------------------------------------------------------------------
# critical droplet typing


class CriticalType(Enum):
    TYPE_T = "TypeT"
    TYPE_L = "TypeL"
    NOT_CRITICAL = "NotCritical"


def is_critical_droplet(D: Droplet, p: float, xi: float, alpha: int,
                        u_star: Direction) -> CriticalType:
    """Dimension regimes of critical droplets for unbalanced families: tall
    (T) or long (L), relative to the scales p^(-alpha-1/5) in width and
    (xi / p^alpha) log(1/p) in height."""
    if not (0 < p < 1):
        raise ValueError("p must be in (0, 1)")
    h = D.proj(u_star)
    w = D.proj(u_star.perp())
    w_scale = p ** (-alpha - 0.2)
    h_scale = xi * p ** (-alpha) * math.log(1.0 / p)
    if w <= w_scale and h_scale <= h <= 3 * h_scale:
        return CriticalType.TYPE_T
    if w_scale <= w <= 3 * w_scale and h <= h_scale:
        return CriticalType.TYPE_L
    return CriticalType.NOT_CRITICAL
