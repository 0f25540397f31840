"""Rule algebra for update families: the exact stable set, the
subcritical/critical/supercritical trichotomy, direction difficulties via the
strip oracle, balancedness, droplet direction selection, and the handful of
derived constants (nu, rho-hat, kappa) the droplet algorithms need.

The stable set is kept as the arrangement it is computed on: the
quasi-stable directions +-perp(x), x in N, cut the circle into points and
open gaps, and each piece is stable or not as a whole.  The trichotomy,
alpha, balancedness and drift read S only through its content in
semicircles, and a semicircle bounded by a cut is a run of those pieces.

Difficulty values are decided by bounded search and carry an explicit
INFINITE_WITHIN_WINDOW verdict when the search window is exhausted; nothing
in this module silently equates that verdict with a proof of infinity.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .geometry import (
    Direction,
    Site,
    ccw_key,
    cross,
    direction_between,
    euclid,
    line_index,
    open_arc_overlap,
    rotate,
    sort_directions,
    strictly_between,
)
from .lattice import StripVerdict, is_stable, strip_scan


class EmptyFamilyError(ValueError):
    pass


class SearchBudgetExceededError(RuntimeError):
    pass


class DifficultyWindowExhaustedError(RuntimeError):
    pass


class StripHeightExceededError(RuntimeError):
    """H_u plus a helper set marches along the strip: its closure is
    infinite, so it displaces no infection by a bounded distance."""


class NotCriticalError(ValueError):
    pass


class NoDriftDirectionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# update families


class _FireMemo(dict):
    """Mask over a neighbourhood -> whether some rule fires: the family's
    circuit evaluated on the mask's bits."""

    def __init__(self, circuit: tuple[tuple, ...]):
        super().__init__()
        self.circuit = circuit

    def __missing__(self, mask: int) -> bool:
        vals = []
        for i, hi, lo in self.circuit:
            # lo | (x_i & hi), where hi None is true and lo None is false
            vals.append(bool(mask >> i & 1 and (hi is None or vals[hi])
                             or lo is not None and vals[lo]))
        fire = bool(vals) and vals[-1]
        self[mask] = fire
        return fire


class _CircuitTooLong(Exception):
    """The Shannon expansion outgrew the rule-by-rule chain."""


def _rule_circuit(rule_masks: tuple[int, ...]) -> tuple[tuple, ...]:
    """The monotone function "some rule mask is covered" as nodes (i, hi, lo)
    in evaluation order, the last one the root.  A node is worth
    lo | (x_i & hi); hi is an earlier node or None for true, lo an earlier
    node or None for false.

    This is the Shannon expansion on the lowest bit still in play, memoised
    on the set of remaining masks and with equal nodes shared.  It is exact
    because the function is monotone: the x_i = 0 cofactor implies the
    x_i = 1 cofactor, so f = lo | (x_i & hi).  A node costs one AND unless
    hi is true and one OR unless lo is false.  Once the expansion costs more
    than sum |r| operations it is dropped for the rule-by-rule chain in the
    same form, which costs sum |r| - 1, so the circuit is never longer than
    the rules."""
    budget = sum(m.bit_count() for m in rule_masks)
    nodes: list[tuple] = []
    shared: dict[tuple, int] = {}
    memo: dict[frozenset, int] = {}
    ops = 0

    def node(i, hi, lo) -> int:
        nonlocal ops
        key = (i, hi, lo)
        if key not in shared:
            ops += (hi is not None) + (lo is not None)
            if ops > budget:
                raise _CircuitTooLong
            shared[key] = len(nodes)
            nodes.append(key)
        return shared[key]

    def expand(masks: frozenset) -> int:
        if masks not in memo:
            bit = min(m & -m for m in masks)
            ones = frozenset(m & ~bit for m in masks)
            zeros = frozenset(m for m in masks if not m & bit)
            hi = None if 0 in ones else expand(ones)
            lo = expand(zeros) if zeros else None
            # None means true as hi and false as lo, so only two nodes can
            # be equal; then x_i does not matter
            memo[masks] = hi if hi is not None and hi == lo else node(bit.bit_length() - 1, hi, lo)
        return memo[masks]

    if not rule_masks:
        return ()
    try:
        expand(frozenset(rule_masks))
        return tuple(nodes)
    except _CircuitTooLong:
        chain, acc = [], None
        for mask in rule_masks:
            first, *rest = [i for i in range(mask.bit_length()) if mask >> i & 1]
            hi = None
            for i in reversed(rest):
                chain.append((i, hi, None))
                hi = len(chain) - 1
            chain.append((first, hi, acc))
            acc = len(chain) - 1
        return tuple(chain)


@dataclass(frozen=True)
class UpdateFamily:
    """A finite list of finite rules X subset of Z^2 minus the origin; a site
    becomes infected when some rule, translated to it, is fully infected.

    The engines read the family in the compiled form built here, once:
    ``hood`` is its neighbourhood N (the union of the rules), sorted;
    ``circuit`` is the rule function over N as AND/OR nodes (i, hi, lo) on
    the offsets' indices, never longer than the rules (``_rule_circuit``);
    ``reach`` is the largest |dx| or |dy| over N; and ``fires`` is a memo
    from masks over N (bit i stands for hood[i]: which offsets of a site
    are infected) to whether some rule fires, filled lazily from the
    circuit.  N is empty exactly when there are no rules.  The hash is
    the rules' hash, taken once; the name stays out of it because
    hash(str) is salted per process.  A pickle carries the rules and the
    name only, never the memo.
    """

    rules: tuple[frozenset, ...]
    name: str = ""

    def __post_init__(self):
        hood = tuple(sorted(set().union(*self.rules)))
        index = {x: i for i, x in enumerate(hood)}
        circuit = _rule_circuit(tuple(sum(1 << index[x] for x in rule) for rule in self.rules))
        # the instance is frozen, so the compiled fields go in past __setattr__
        self.__dict__.update(
            hood=hood, circuit=circuit,
            reach=max((max(map(abs, x)) for x in hood), default=0),
            fires=_FireMemo(circuit), _hash=hash(self.rules))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return UpdateFamily, (self.rules, self.name)

    @staticmethod
    def of(rules: Iterable[Iterable[Site]], name: str = "") -> "UpdateFamily":
        canon = []
        seen = set()
        for rule in rules:
            fr = frozenset((int(x), int(y)) for x, y in rule)
            if not fr:
                raise ValueError("empty update rule")
            if (0, 0) in fr:
                raise ValueError("update rule contains the origin")
            if fr not in seen:
                seen.add(fr)
                canon.append(fr)
        canon.sort(key=lambda fr: sorted(fr))
        return UpdateFamily(rules=tuple(canon), name=name)

    def transformed(self, m: tuple[int, int, int, int], name: str = "") -> "UpdateFamily":
        """Apply the integer linear map (x,y) -> (m0 x + m1 y, m2 x + m3 y)
        to every rule site.  Used for lattice-symmetry covariance tests."""
        a, b, c, d = m
        return UpdateFamily.of(
            [[(a * x + b * y, c * x + d * y) for x, y in rule] for rule in self.rules],
            name=name or self.name,
        )

    def __repr__(self):
        return f"UpdateFamily({self.name or len(self.rules)} rules={len(self.rules)})"


@lru_cache(maxsize=None)
def nu(U: UpdateFamily) -> float:
    """Range of the process: the largest distance within any rule plus the
    origin."""
    if not U.rules:
        raise EmptyFamilyError("nu of an empty family")
    best = 0.0
    for rule in U.rules:
        pts = list(rule) + [(0, 0)]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                best = max(best, euclid(pts[i], pts[j]))
    return best


@dataclass(frozen=True)
class StableSet:
    """The stable set S on the arrangement it is computed on.

    ``cuts`` is the quasi-stable set, sorted by angle; ``point[i]`` says
    whether cuts[i] is stable and ``gap[i]`` whether the open gap from
    cuts[i] to cuts[i + 1] (wrapping round) is.  The cuts are closed under
    negation, so cuts[i + n/2] == -cuts[i], and a semicircle whose ends are
    cuts is a run of cuts and gaps.  S is closed, so both ends of a stable
    gap are stable.
    """

    cuts: tuple[Direction, ...]
    point: tuple[bool, ...]
    gap: tuple[bool, ...]

    def _locate(self, d: Direction) -> tuple[int, bool]:
        """(i, at_cut): d is cuts[i], or lies inside gap i; i is -1 when d
        comes before cuts[0], inside the gap that wraps round."""
        i = bisect_right(self.cuts, d.angle_key(), key=Direction.angle_key) - 1
        return i, self.cuts[i] == d

    def contains(self, d: Direction) -> bool:
        i, at_cut = self._locate(d)
        return self.point[i] if at_cut else self.gap[i]

    def is_empty(self) -> bool:
        return not (any(self.point) or any(self.gap))

    def isolated_points(self) -> list[Direction]:
        return [c for i, c in enumerate(self.cuts)
                if self.point[i] and not (self.gap[i - 1] or self.gap[i])]

    def endpoint_directions(self) -> list[Direction]:
        """The isolated points and the ends of the arcs, sorted by angle."""
        return [c for i, c in enumerate(self.cuts)
                if self.point[i] and not (self.gap[i - 1] and self.gap[i])]

    def arcs(self) -> list[tuple[Direction, Direction]]:
        """The maximal arcs of S that are not points, as closed ccw arcs
        (start, end) in the angle order of their starts.  A fully stable
        circle has no ends and gives none."""
        n = len(self.cuts)
        out = []
        for i in range(n):
            if self.gap[i] and not self.gap[i - 1]:
                j = i + 1
                while self.gap[j % n]:
                    j += 1
                out.append((self.cuts[i], self.cuts[j % n]))
        return out

    def semicircle(self, d: Direction, closed: bool) -> tuple[list[Direction], bool]:
        """S inside the semicircle from d ccw to -d, with or without its
        ends: (its isolated points, sorted by angle; whether it holds an arc
        that is not a point)."""
        n = len(self.cuts)
        i, at_cut = self._locate(d)
        if at_cut:
            gaps = range(i, i + n // 2)
            pts = range(i, i + n // 2 + 1) if closed else range(i + 1, i + n // 2)
        else:
            # d and -d lie inside gaps i and i + n/2, both partly covered
            gaps = range(i, i + n // 2 + 1)
            pts = range(i + 1, i + n // 2 + 1)
        out = [self.cuts[k % n] for k in pts
               if self.point[k % n]
               and not (k - 1 in gaps and self.gap[(k - 1) % n])
               and not (k in gaps and self.gap[k % n])]
        return sorted(out, key=Direction.angle_key), any(self.gap[k % n] for k in gaps)


def stable_set(U: UpdateFamily) -> StableSet:
    """The exact stable set, one ``is_stable`` call per piece of the circle.

    Whether u is stable depends only on which offsets x of N lie inside
    H_u, that is on the signs of <u, x>, and <u, x> changes sign only at
    u = +-perp(x).  Those directions (the quasi-stable set) cut the circle
    into points and open gaps.  On each piece the offsets inside H_u stay
    the same, so one direction decides the whole piece.
    """
    if not U.hood:
        raise EmptyFamilyError("stable set of an empty family")
    cuts = quasi_stable_set(U)
    n = len(cuts)
    return StableSet(
        tuple(cuts),
        tuple(is_stable(d, U) for d in cuts),
        tuple(is_stable(direction_between(cuts[i], cuts[(i + 1) % n]), U) for i in range(n)))


# ---------------------------------------------------------------------------
# difficulties


class _InfiniteWithinWindow:
    __slots__ = ()

    def __repr__(self):
        return "INFINITE_WITHIN_WINDOW"


INFINITE_WITHIN_WINDOW = _InfiniteWithinWindow()


@dataclass(frozen=True)
class DifficultyResult:
    """Outcome of a bounded difficulty search.

    value is an exact integer when a witness was found (then the witness is a
    voracious set of that cardinality, the first one in the search's
    boundary-first order), or INFINITE_WITHIN_WINDOW: a lower-bound verdict
    meaning no witness of cardinality up to searched_cardinality exists
    inside the search box, not a proof that the difficulty is infinite.
    ``difficulty`` fills plus and minus with the two side results, which
    have no sides of their own; the direction resolves when both do.
    """

    value: object
    window_radius: int
    witness: Optional[frozenset] = None
    searched_cardinality: int = 0
    plus: Optional["DifficultyResult"] = None
    minus: Optional["DifficultyResult"] = None

    @property
    def resolved(self) -> bool:
        return self.value is not INFINITE_WITHIN_WINDOW


# a difficulty search gives up after testing this many candidate sets
CANDIDATE_CAP = 10 ** 6


def _half_sites(u: Direction, window: int) -> list[Site]:
    """The sites of the radius-``window`` box outside H_u, from the boundary
    line out: by line index, then by distance from the origin along the
    line."""
    a, b = u.a, u.b
    out = [
        (x, y)
        for x in range(-window, window + 1)
        for y in range(-window, window + 1)
        if line_index((x, y), u) >= 0
    ]
    out.sort(key=lambda s: (line_index(s, u), abs(b * s[0] - a * s[1]), b * s[0] - a * s[1]))
    return out


def _canonical_witnesses(u: Direction, window: int, k: int):
    """Translation-reduced candidate sets of size k in the search box, in the
    lexicographic order of the combinations of ``_half_sites``."""
    a, b = u.a, u.b
    norm2 = a * a + b * b
    sites = _half_sites(u, window)
    # (c, j) coordinates are a bijective relabeling of sites, so a sorted
    # tuple of them is a cheap dedup key under line translation
    cj = [(b * x - a * y, a * x + b * y) for x, y in sites]
    seen: set[tuple] = set()
    for combo in itertools.combinations(range(len(sites)), k):
        cmin = min(cj[i][0] for i in combo)
        shift = (cmin // norm2) * norm2
        key = tuple(sorted((cj[i][0] - shift, cj[i][1]) for i in combo))
        if key in seen:
            continue
        seen.add(key)
        steps = shift // norm2
        yield frozenset((sites[i][0] - steps * b, sites[i][1] + steps * a) for i in combo)


class _SideSearch:
    """Both side searches of one stable (U, u, window), deepened on demand.
    Each candidate gets one strip scan, whose verdicts[i] decides side i.
    Every candidate of cardinality <= k has been scanned (or both sides
    found a witness first), and found[0] / found[1] is the first
    (cardinality, witness) of the plus / minus side, or None."""

    def __init__(self, U: UpdateFamily, u: Direction, window: int):
        self.U, self.u, self.window = U, u, window
        self.k = 0
        self.tested = 0
        self.found: list = [None, None]

    def deepen(self, max_cardinality: int) -> None:
        # a level is committed only once it ends, so a search that raised
        # can be deepened again
        while self.k < max_cardinality and None in self.found:
            k = self.k + 1
            found = list(self.found)
            tested = self.tested
            for Z in _canonical_witnesses(self.u, self.window, k):
                tested += 1
                if tested > CANDIDATE_CAP:
                    raise SearchBudgetExceededError(
                        f"difficulty search for u={self.u} exceeded {CANDIDATE_CAP} candidates")
                scan = strip_scan(self.u, Z, self.U)
                for i, verdict in enumerate(scan.verdicts):
                    if found[i] is None and verdict is StripVerdict.INFINITE_LINE:
                        found[i] = (k, Z)
                if None not in found:
                    break
            self.k, self.tested, self.found = k, tested, found


@lru_cache(maxsize=4096)
def _side_search(U: UpdateFamily, u: Direction, window: int) -> _SideSearch:
    return _SideSearch(U, u, window)


def difficulty(u: Direction, U: UpdateFamily, window: int = 8,
               max_cardinality: int = 4) -> DifficultyResult:
    """Difficulty of the direction u and its two side values, searched up to
    ``max_cardinality`` in the radius-``window`` box.

    The plus (minus) value is the minimal cardinality of a set Z in the box,
    disjoint from H_u, such that the half-plane plus Z infects infinitely
    many sites of the boundary ray on the plus (minus) side, plus being
    rightward looking along u; both are 0 for an unstable u.  They are the
    result's ``plus`` and ``minus``, and its value is their minimum when
    both are finite, INFINITE_WITHIN_WINDOW otherwise."""
    if not U.hood:
        raise EmptyFamilyError("difficulty of an empty family")
    if is_stable(u, U):
        search = _side_search(U, u, window)
        search.deepen(max_cardinality)
        found = search.found
    else:
        found = [(0, frozenset())] * 2
    p, m = (DifficultyResult(hit[0], window, hit[1], hit[0])
            if hit is not None and hit[0] <= max_cardinality
            else DifficultyResult(INFINITE_WITHIN_WINDOW, window, None, max_cardinality)
            for hit in found)
    searched = max(p.searched_cardinality, m.searched_cardinality)
    if p.resolved and m.resolved:
        best = p if p.value <= m.value else m
        return DifficultyResult(best.value, window, best.witness, searched, p, m)
    return DifficultyResult(INFINITE_WITHIN_WINDOW, window, None, searched, p, m)


# ---------------------------------------------------------------------------
# classification


class Kind(Enum):
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"


@dataclass
class Classification:
    kind: Kind
    stable: StableSet
    window: int
    alpha: Optional[int] = None
    balanced: Optional[bool] = None
    u_star: Optional[Direction] = None
    droplet_directions: tuple[Direction, ...] = ()
    drift: bool = False
    difficulties: dict = field(default_factory=dict)
    balanced_witness: Optional[Direction] = None

    def __repr__(self):
        bits = [self.kind.value]
        if self.kind is Kind.CRITICAL:
            bits.append(f"alpha={self.alpha}")
            bits.append("balanced" if self.balanced else "unbalanced")
            if self.drift:
                bits.append("drift")
            if self.u_star is not None:
                bits.append(f"u*={self.u_star}")
        return "Classification(" + ", ".join(bits) + ")"


def _sweep_candidates(S: StableSet) -> list[Direction]:
    """Boundary directions at which the combinatorics of semicircle
    intersections with S can change: arc endpoints, their antipodes, and one
    sample inside each gap between consecutive such events."""
    pts = set(S.endpoint_directions())
    pts |= {d.neg() for d in pts}
    cand = sort_directions(pts)
    if not cand:
        return [Direction(1, 0), Direction(0, 1), Direction(-1, 0), Direction(0, -1)]
    out = list(cand)
    n = len(cand)
    for i in range(n):
        out.append(direction_between(cand[i], cand[(i + 1) % n]))
    return sort_directions(out)


def _gap_is_wide(p: Direction, q: Direction) -> bool:
    """ccw gap from p to q is at least pi."""
    return ccw_key(p, q) >= Direction(-1, 0).angle_key()


def _select_balanced_directions(U, S, alpha, window) -> list[Direction]:
    """A finite set of stable directions, each with both side difficulties at
    least alpha, meeting every open semicircle (all angular gaps < pi)."""
    chosen: set[Direction] = set()
    for d in S.isolated_points():
        r = difficulty(d, U, window, max_cardinality=alpha)
        if not r.resolved or r.value >= alpha:
            chosen.add(d)
    arcs = S.arcs()
    chosen.update(direction_between(*a) for a in arcs)
    # endpoints qualify only if both sides check out: neither side resolves
    # below alpha
    for d in S.endpoint_directions():
        if d in chosen:
            continue
        r = difficulty(d, U, window, alpha - 1)
        if not (r.plus.resolved or r.minus.resolved):
            chosen.add(d)

    for _ in range(200):
        order = sort_directions(chosen)
        wide = None
        n = len(order)
        for i in range(n):
            p, q = order[i], order[(i + 1) % n]
            if n == 1 or _gap_is_wide(p, q):
                wide = (p, q)
                break
        if wide is None:
            return order
        progressed = False
        # sample the first and last piece of each arc's interior in the gap
        for a in arcs:
            pieces = open_arc_overlap(a, wide)
            for piece in pieces[:1] + pieces[-1:]:
                s = direction_between(*piece)
                if s not in chosen:
                    chosen.add(s)
                    progressed = True
        if not progressed:
            raise DifficultyWindowExhaustedError(
                "cannot assemble droplet directions meeting every open semicircle")
    raise DifficultyWindowExhaustedError("droplet direction refinement did not converge")


def classify(U: UpdateFamily, window: int = 8, max_cardinality: int = 4) -> Classification:
    """Full classification of an update family.

    The trichotomy and the stable set are exact.  Difficulty-derived fields
    (alpha, balancedness, u*, drift) rest on the bounded difficulty search
    and carry the window used; see DifficultyResult for the caveat.
    """
    S = stable_set(U)
    cls = Classification(kind=Kind.SUBCRITICAL, stable=S, window=window)

    if S.is_empty():
        cls.kind = Kind.SUPERCRITICAL
        return cls

    cand = _sweep_candidates(S)
    finite_cands = []  # (d, isolated pts strictly inside the open semicircle d -> -d)
    for d in cand:
        pts, has_arc = S.semicircle(d, closed=False)
        if not pts and not has_arc:
            cls.kind = Kind.SUPERCRITICAL
            return cls
        if not has_arc:
            finite_cands.append((d, pts))

    if not finite_cands:
        cls.kind = Kind.SUBCRITICAL
        return cls

    cls.kind = Kind.CRITICAL

    # alpha by iterative deepening: the minimum over semicircles of the max
    # difficulty inside; a fully resolved semicircle at cap k beats every
    # semicircle containing an unresolved direction (those exceed k).
    alpha = None
    achieving: list[tuple[Direction, list[Direction]]] = []
    diffs: dict[Direction, DifficultyResult] = {}
    for cap in range(1, max_cardinality + 1):
        values = {}
        for d, pts in finite_cands:
            for p in pts:
                if p not in values:
                    values[p] = difficulty(p, U, window, cap)
        resolved_maxima = []
        for d, pts in finite_cands:
            rs = [values[p] for p in pts]
            if all(r.resolved for r in rs):
                resolved_maxima.append((max(r.value for r in rs), d, pts))
        if resolved_maxima:
            alpha = min(m for m, _, _ in resolved_maxima)
            achieving = [(d, pts) for m, d, pts in resolved_maxima if m == alpha]
            diffs = values
            break
    if alpha is None:
        raise DifficultyWindowExhaustedError(
            f"no semicircle fully resolved at cardinality {max_cardinality}")
    cls.alpha = alpha
    cls.difficulties = diffs

    # balancedness: a closed semicircle whose stable content is isolated
    # points of difficulty <= alpha
    cls.balanced = False
    for d in cand:
        pts, has_arc = S.semicircle(d, closed=True)
        if has_arc:
            continue
        ok = True
        for p in pts:
            r = diffs.get(p) or difficulty(p, U, window, alpha)
            diffs.setdefault(p, r)
            if not (r.resolved and r.value <= alpha):
                ok = False
                break
        if ok:
            cls.balanced = True
            cls.balanced_witness = d
            break

    if cls.balanced:
        cls.droplet_directions = tuple(
            _select_balanced_directions(U, S, alpha, window))
        return cls

    # unbalanced: u* is the ccw end of a minimizing open semicircle whose
    # endpoints both certify difficulty >= alpha + 1
    pick = None
    for d, pts in achieving:
        ustar = d.neg()
        if not (S.contains(ustar) and S.contains(d)):
            continue
        ends = (difficulty(ustar, U, window, alpha), difficulty(d, U, window, alpha))
        # difficulty >= alpha + 1 at both ends: neither has both sides resolved
        if not any(r.resolved for r in ends):
            pick = (d, pts, ends)
            break
    if pick is None:
        raise DifficultyWindowExhaustedError(
            "unbalanced family but no antipodal stable pair certified above alpha")
    d, pts, ends = pick
    ustar = d.neg()
    cls.u_star = ustar
    cls.drift = any(r.plus.resolved != r.minus.resolved for r in ends)

    # u^l / u^r: the attaining direction, whose smaller side difficulty is
    # exactly alpha, anchors one side of u*; the other side (sign +1 is left
    # of u*) takes any stable direction certified >= alpha, preferring one
    # close to the perpendicular of u* on that side
    att = max(pts, key=lambda p: (diffs[p].value, p.angle_key()))
    sign = -1 if cross(ustar, att) > 0 else 1
    pool = []
    for e in S.isolated_points():
        if cross(ustar, e) * sign > 0:
            r = diffs.get(e) or difficulty(e, U, window, alpha)
            diffs.setdefault(e, r)
            if (not r.resolved) or r.value >= alpha:
                pool.append(e)
    for start, end in S.arcs():
        s = direction_between(start, end)
        if cross(ustar, s) * sign > 0:
            pool.append(s)
        for e in (start, end):
            if cross(ustar, e) * sign > 0:
                r = difficulty(e, U, window, alpha - 1)
                if not (r.plus.resolved or r.minus.resolved):
                    pool.append(e)
    if not pool:
        raise DifficultyWindowExhaustedError(
            f"no stable direction {'left' if sign > 0 else 'right'} of u*")
    target = ustar.perp() if sign > 0 else ustar.perp().neg()
    other = min(pool, key=lambda e: (min(ccw_key(target, e), ccw_key(e, target)), e.angle_key()))
    cls.droplet_directions = tuple(sort_directions([ustar, ustar.neg(), att, other]))
    return cls


# ---------------------------------------------------------------------------
# quasi-stability and derived constants


def quasi_stable_set(U: UpdateFamily) -> list[Direction]:
    """Perpendiculars of every rule site, both ways; adding them to the
    stable set lets droplets grow cleanly into their corners."""
    if not U.hood:
        raise EmptyFamilyError("quasi-stable set of an empty family")
    out = set()
    for x in U.hood:
        d = Direction.of(x[0], x[1]).perp()
        out.add(d)
        out.add(d.neg())
    return sort_directions(out)


@dataclass(frozen=True)
class RhoBound:
    value: float
    witness_direction: Optional[Direction] = None
    witness: Optional[frozenset] = None
    witness_site: Optional[Site] = None


def rho_bound(U: UpdateFamily, directions: Sequence[Direction], alpha: int,
              window: int = 4) -> RhoBound:
    """Maximal Euclidean displacement of a new infection from a helper set
    of size alpha-1 next to a stable half-plane, over the given directions
    and all translation-reduced helper sets in the radius-``window`` box.

    The closure of H_u plus Z is read off ``strip_scan``.  Raises
    StripHeightExceededError when H_u plus some Z marches along the strip
    (a period on either side, whether or not it occupies the boundary line;
    an unstable u marches with the empty set)."""
    best = RhoBound(0.0)
    k = alpha - 1
    for u in directions:
        # the empty helper set has no minimal line position to reduce by
        candidates = [frozenset()] if k == 0 else _canonical_witnesses(u, window, k)
        for Z in candidates:
            scan = strip_scan(u, Z, U)
            if scan.periods != (None, None):
                raise StripHeightExceededError(
                    f"H_{u} plus {set(Z)} marches along the strip "
                    f"(a side of {u} easier than alpha?)")
            # an empty Z next to a stable half-plane adds nothing
            for site in scan.infected:
                d = min(euclid(site, z) for z in Z)
                if d > best.value:
                    best = RhoBound(d, u, Z, site)
    return best


def kappa(U: UpdateFamily, c: Classification, rho_hat: float) -> float:
    """Strong-connectivity radius: 2(rho + nu) for balanced families, 3 nu
    for unbalanced ones."""
    if c.kind is not Kind.CRITICAL:
        raise NotCriticalError("kappa is defined for critical families only")
    n = nu(U)
    return 2.0 * (rho_hat + n) if c.balanced else 3.0 * n


def difference_perpendiculars(U: UpdateFamily) -> list[Direction]:
    pts = list(U.hood) + [(0, 0)]
    out = set()
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            d = Direction.of(dx, dy).perp()
            out.add(d)
            out.add(d.neg())
    return sort_directions(out)


def iceberg_u0(U: UpdateFamily, u_star: Direction, S: StableSet,
               window: int = 6, max_cardinality: int = 2) -> Direction:
    """A rational direction strictly between u* and every difference
    perpendicular, inside the stable component of u*, on the drift side.

    u* has drift when exactly one of its side difficulties resolves.  On the
    returned interval the other side stays unresolved, and triangles with
    faces perpendicular to u0, u* and the base direction are closed next to
    the half-plane.
    """
    r = difficulty(u_star, U, window, max_cardinality)
    if r.plus.resolved == r.minus.resolved:
        raise NoDriftDirectionError(
            f"side difficulties of {u_star} are {r.plus.value} and {r.minus.value}; no drift")
    comp = next(((start, end) for start, end in S.arcs()
                 if u_star in (start, end) or strictly_between(start, end, u_star)), None)
    if comp is None:
        raise NoDriftDirectionError(f"{u_star} is not in a non-trivial stable interval")
    start, end = comp

    # minimal angular distance from u* to any difference perpendicular
    best_key = None
    for v in difference_perpendiculars(U):
        if v == u_star:
            continue
        k = min(ccw_key(u_star, v), ccw_key(v, u_star))
        if best_key is None or k < best_key:
            best_key = k

    # the interval reaches ccw of u* unless u* is its ccw end
    spin = Direction(1, 1) if end != u_star else Direction(1, -1)
    n = 1
    while n < 1 << 40:
        u0 = rotate(u_star, Direction.of(n, spin.b))
        k = min(ccw_key(u_star, u0), ccw_key(u0, u_star))
        if strictly_between(start, end, u0) and (best_key is None or k < best_key):
            return u0
        n *= 2
    raise NoDriftDirectionError("could not place u0 inside the stable interval")
