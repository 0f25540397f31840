import numpy as np
import pytest

from ubootstrap.families import builtin
from ubootstrap.family import classify, kappa as kappa_of, nu, rho_bound, stable_set, iceberg_u0
from ubootstrap.geometry import Direction, line_index
from ubootstrap.lattice import Box, closure, strip_scan
from ubootstrap import droplets
from ubootstrap.droplets import (
    Droplet,
    Iceberg,
    MergeEvent,
    UnboundedDropletError,
    _halfplane_distance_table,
    alpha_clusters,
    covering_algorithm,
    default_dhat,
    is_internally_spanned,
    iceberg_algorithm,
    minimal_droplet,
    smallest_iceberg,
    span_components,
    spanning_algorithm,
    strongly_connected_components,
)

U2 = builtin("two-neighbour")
DUARTE = builtin("duarte")
E1, E2 = Direction(1, 0), Direction(0, 1)
AXES = (E1, E2, Direction(-1, 0), Direction(0, -1))


def is_strongly_connected(sites, kappa):
    return len(strongly_connected_components(sites, kappa)) == 1


class TestDroplet:
    def test_unit_droplet(self):
        d = minimal_droplet([(0, 0)], AXES)
        assert d.sites() == {(0, 0)}

    def test_bounding_box(self):
        d = minimal_droplet([(0, 0), (3, 2)], AXES)
        assert d.sites() == {(x, y) for x in range(4) for y in range(3)}
        assert d.proj(E1) == 3.0
        assert d.proj(E2) == 2.0

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedDropletError):
            minimal_droplet([(0, 0)], (E1, E2))

    def test_minimality(self):
        K = [(0, 0), (3, 2), (1, 5)]
        d = minimal_droplet(K, AXES)
        for i, o in enumerate(d.offsets):
            shrunk = Droplet(d.directions, tuple(
                oo - (1 if j == i else 0) for j, oo in enumerate(d.offsets)))
            assert not all(shrunk.contains(s) for s in K)

    def test_triangle_directions(self):
        dirs = (E1, Direction(-1, 1), Direction(0, -1))
        d = minimal_droplet([(0, 0), (4, 0), (2, 3)], dirs)
        assert {(0, 0), (4, 0), (2, 3)} <= d.sites()

    def test_translate_contains(self):
        d = minimal_droplet([(0, 0), (5, 3)], AXES)
        t = d.translate((2, -1))
        assert t.sites() == {(x + 2, y - 1) for x, y in d.sites()}
        assert t.contains((2, -1)) and not t.contains((-1, 0))


class TestAlphaClusters:
    def test_far_sites_all_dust(self):
        K = [(0, 0), (10, 0), (0, 10)]
        clusters, dust = alpha_clusters(K, 2, kappa=2.0)
        assert clusters == [] and dust == frozenset(K)

    def test_adjacent_pair(self):
        clusters, dust = alpha_clusters([(0, 0), (1, 0)], 2, kappa=1.5)
        assert clusters == [frozenset({(0, 0), (1, 0)})] and not dust

    def test_greedy_is_maximal(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            K = {(int(x), int(y)) for x, y in rng.integers(0, 18, size=(30, 2))}
            clusters, dust = alpha_clusters(K, 2, kappa=2.0)
            for comp in strongly_connected_components(dust, 2.0):
                assert len(comp) <= 1
            seen = set()
            for cl in clusters:
                assert is_strongly_connected(cl, 2.0)
                assert not (cl & seen)
                seen |= cl


class TestCovering:
    def setup_method(self):
        self.cls = classify(U2)
        self.rho = rho_bound(U2, self.cls.droplet_directions, self.cls.alpha).value
        self.kappa = kappa_of(U2, self.cls, self.rho)
        self.dirs = self.cls.droplet_directions

    def test_empty(self):
        res = covering_algorithm([], U2, self.dirs, 1, self.kappa)
        assert res.droplets == [] and not res.dust

    def test_single_cluster_single_copy(self):
        res = covering_algorithm([(0, 0)], U2, self.dirs, 1, self.kappa)
        assert len(res.droplets) == 1
        assert res.droplets[0].sites() == res.d_hat.translate((0, 0)).sites()
        assert res.merge_log == []

    def test_near_clusters_merge_far_do_not(self):
        d_hat = default_dhat(self.dirs, self.kappa, 1)
        diam = d_hat.diam()
        near = covering_algorithm([(0, 0), (int(diam * 0.8), 0)], U2, self.dirs, 1, self.kappa)
        assert len(near.droplets) == 1 and len(near.merge_log) == 1
        far = covering_algorithm([(0, 0), (int(diam * 3.2) + 3, 0)], U2, self.dirs, 1, self.kappa)
        assert len(far.droplets) == 2 and far.merge_log == []

    def test_cover_locality_alpha_one(self):
        # with alpha = 1 there is no dust, so the closure stays inside the
        # output droplets
        rng = np.random.default_rng(5)
        for _ in range(25):
            K = {(int(x), int(y)) for x, y in rng.integers(0, 30, size=(18, 2))}
            res = covering_algorithm(K, U2, self.dirs, 1, self.kappa)
            assert not res.dust
            w = Box(-80, -80, 120, 120)
            closed = closure(K, w, U2)
            assert all(any(d.contains(s) for d in res.droplets) for s in closed)

    def test_extremal_bound(self):
        # number of initial clusters at least diam / C0 with the derived
        # constant C0 = 3 diam(Dhat) + 4 kappa (per-merge growth accounting)
        d_hat = default_dhat(self.dirs, self.kappa, 1)
        c0 = 3 * d_hat.diam() + 4 * self.kappa
        rng = np.random.default_rng(6)
        for _ in range(25):
            K = {(int(x), int(y)) for x, y in rng.integers(0, 40, size=(20, 2))}
            res = covering_algorithm(K, U2, self.dirs, 1, self.kappa)
            for anc, out in zip(res.ancestors, res.droplets):
                n_initial = (len(anc) + 1) // 2  # merge tree: leaves = merges + 1
                assert n_initial >= out.diam() / c0 - 1e-9

    def test_aizenman_lebowitz_intermediate_scales(self):
        d_hat = default_dhat(self.dirs, self.kappa, 1)
        lam = 2 * (d_hat.diam() + 2 * self.kappa)
        rng = np.random.default_rng(7)
        for _ in range(10):
            K = {(int(x), int(y)) for x, y in rng.integers(0, 60, size=(26, 2))}
            res = covering_algorithm(K, U2, self.dirs, 1, self.kappa)
            for anc, out in zip(res.ancestors, res.droplets):
                dd = out.diam()
                if dd < lam:
                    continue
                diams = sorted(a.diam() for a in anc)
                for k in np.linspace(lam, dd, 5):
                    assert any(k <= d <= 3 * k for d in diams), (k, diams)


class TestSpanning:
    def setup_method(self):
        self.cls = classify(DUARTE)
        self.kappa = kappa_of(DUARTE, self.cls, 0.0)
        self.dirs = self.cls.droplet_directions

    def test_single_site(self):
        res = spanning_algorithm([(0, 0)], DUARTE, self.dirs, self.kappa)
        assert len(res.droplets) == 1
        assert res.droplets[0].sites() == {(0, 0)}

    def test_two_far_sites(self):
        res = spanning_algorithm([(0, 0), (20, 20)], DUARTE, self.dirs, self.kappa)
        assert len(res.droplets) == 2

    def test_dual_path_equality_random(self):
        rng = np.random.default_rng(13)
        for fam, cls in ((DUARTE, self.cls), (U2, classify(U2))):
            kap = kappa_of(fam, cls, 0.0 if not cls.balanced else rho_bound(
                fam, cls.droplet_directions, cls.alpha).value)
            for _ in range(30):
                K = {(int(x), int(y)) for x, y in rng.integers(0, 25, size=(25, 2))}
                merge = spanning_algorithm(K, fam, cls.droplet_directions, kap)
                comp = span_components(K, fam, cls.droplet_directions, kap)
                assert sorted(map(repr, merge.droplets)) == sorted(map(repr, comp))

    def test_extremal_span(self):
        # |D cap A| >= diam / C1 with C1 = diam of a point droplet + 2 kappa
        c1 = minimal_droplet([(0, 0)], self.dirs).diam() + 2 * self.kappa
        c1 = max(c1, 1.0)
        rng = np.random.default_rng(14)
        for _ in range(30):
            K = {(int(x), int(y)) for x, y in rng.integers(0, 30, size=(22, 2))}
            res = spanning_algorithm(K, DUARTE, self.dirs, self.kappa)
            for comp, drop in zip(res.components, res.droplets):
                seeds = K & comp
                assert len(seeds) >= drop.diam() / c1 - 1e-9

    def test_penultimate_split(self):
        rng = np.random.default_rng(15)
        done = 0
        for _ in range(60):
            K = {(int(x), int(y)) for x, y in rng.integers(0, 12, size=(8, 2))}
            if len(K) < 2:
                continue
            res = spanning_algorithm(K, DUARTE, self.dirs, self.kappa)
            if len(res.components) != 1 or not res.merge_log:
                continue
            done += 1
            hist = res.histories[0]
            # the last merge united k1 and k2: recover them from the log
            k_all = hist[-1]
            # replay: final event merged parts i and j; their seed sets are
            # the two snapshots that union to k_all
            parts = [h for h in hist if h != k_all]
            best = None
            for a in parts:
                b = k_all - a
                if b and a | b == k_all and b in parts:
                    best = (a, b)
                    break
            assert best is not None
            a, b = best
            w = Box(-30, -30, 50, 50)
            ca, cb = closure(a, w, DUARTE), closure(b, w, DUARTE)
            assert is_strongly_connected(ca, self.kappa)
            assert is_strongly_connected(cb, self.kappa)
            assert is_strongly_connected(ca | cb, self.kappa)
        assert done >= 5

    def test_aizenman_lebowitz_projections(self):
        lam = 3 * self.kappa + 4
        rng = np.random.default_rng(16)
        for _ in range(15):
            K = {(int(x), int(y)) for x, y in rng.integers(0, 45, size=(40, 2))}
            res = spanning_algorithm(K, DUARTE, self.dirs, self.kappa)
            for u in (E1, E2):
                for i, drop in enumerate(res.droplets):
                    top = drop.proj(u)
                    if top < lam:
                        continue
                    intermediates = [minimal_droplet(h_closure, self.dirs).proj(u)
                                     for h_closure in self._history_closures(res, i)]
                    for k in np.linspace(lam, top, 5):
                        assert any(k <= pv <= 3 * k for pv in intermediates), (k, sorted(intermediates))

    def _history_closures(self, res, i):
        w = Box(-30, -30, 80, 80)
        out = []
        for seeds in res.histories[i]:
            out.append(closure(seeds, w, DUARTE))
        return out


class TestFillSpanPredicates:
    def test_spanned_definitional_vs_algorithm(self):
        cls = classify(DUARTE)
        kap = kappa_of(DUARTE, cls, 0.0)
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(60):
            K = {(int(x), int(y)) for x, y in rng.integers(0, 10, size=(14, 2))}
            D = minimal_droplet(K, cls.droplet_directions)
            A = {s for s in D.sites() if rng.random() < 0.35}
            direct = is_internally_spanned(D, A, DUARTE, kap)
            via_alg = any(
                d == D for d in spanning_algorithm(
                    D.sites() & A, DUARTE, cls.droplet_directions, kap).droplets
            ) if (D.sites() & A) else False
            assert direct == via_alg
            checked += 1
        assert checked == 60

    def test_spanned_fails_for_subdroplet(self):
        cls = classify(DUARTE)
        kap = kappa_of(DUARTE, cls, 0.0)
        D = minimal_droplet([(0, 0), (8, 4)], cls.droplet_directions)
        assert not is_internally_spanned(D, [(0, 0)], DUARTE, kap)


def iceberg_input(seed):
    """Sites near H_u for steps 1 and 2, and two clusters far above it that
    only step 3 can merge."""
    rng = np.random.default_rng(seed)
    K = set()
    for (x0, y0), n in (((0, 5), 6), ((0, 400), 3), ((200, 400), 2)):
        K |= {(x0 + int(x), y0 + int(y)) for x, y in rng.integers(0, 30, size=(n, 2))}
    return sorted(K)


def duarte_drift_context():
    cls = classify(DUARTE)
    S = stable_set(DUARTE)
    u_star = E2
    u0 = iceberg_u0(DUARTE, u_star, S)
    u = Direction.of(u0.a, u0.b + 6)  # strictly between u0 and u*
    kap = kappa_of(DUARTE, cls, 0.0)
    return cls, u, u0, u_star, kap


class TestIceberg:
    def test_smallest_iceberg_contains(self):
        _, u, u0, u_star, _ = duarte_drift_context()
        X = [(0, 2), (5, 1), (-3, 3)]
        J = smallest_iceberg(X, u, u0, u_star)
        for s in X:
            if line_index(s, u) >= 0:
                assert s in J.sites()

    def test_empty_input(self):
        _, u, u0, u_star, kap = duarte_drift_context()
        res = iceberg_algorithm([], u, u0, u_star, DUARTE, kap)
        assert res.pieces == []

    def test_far_site_stays_droplet(self):
        _, u, u0, u_star, kap = duarte_drift_context()
        d_hat = default_dhat((E1, E2, Direction(-1, 0), Direction(0, -1)), kap)
        # place the seed far above the half-plane
        s = (0, int(4 * d_hat.diam()) + 50)
        res = iceberg_algorithm([s], u, u0, u_star, DUARTE, kap)
        assert res.d_hat == d_hat
        assert len(res.pieces) == 1
        assert isinstance(res.pieces[0], type(d_hat))
        assert res.merge_log == []

    def test_near_site_becomes_iceberg(self):
        _, u, u0, u_star, kap = duarte_drift_context()
        res = iceberg_algorithm([(0, 3)], u, u0, u_star, DUARTE, kap)
        assert len(res.pieces) == 1
        assert isinstance(res.pieces[0], Iceberg)

    def test_output_closed_with_halfplane(self):
        _, u, u0, u_star, kap = duarte_drift_context()
        res = iceberg_algorithm([(0, 3), (30, 8)], u, u0, u_star, DUARTE, kap)
        sites = set()
        for p in res.pieces:
            sites |= p.sites()
        scan = strip_scan(u, sites, DUARTE)
        assert scan.period_plus is None and scan.period_minus is None
        assert scan.infected == sites

    def test_terminal_no_step_applies(self):
        _, u, u0, u_star, kap = duarte_drift_context()
        res = iceberg_algorithm(iceberg_input(0), u, u0, u_star, DUARTE, kap)
        assert all(res.step_counts.values())
        drops = [p for p in res.pieces if isinstance(p, Droplet)]
        assert len(drops) >= 2
        # no droplet is left within kappa of H_u, and no two droplets are
        # kappa-connected
        near = _halfplane_distance_table(u, kap)
        assert all(min(line_index(s, u) for s in d.sites()) > near for d in drops)
        assert not any(is_strongly_connected(a.sites() | b.sites(), kap)
                       for i, a in enumerate(drops) for b in drops[i + 1:])


def naive_merge_loop(pieces, steps, record=None):
    """Reference for droplets._merge_loop: every round tests every step,
    index and pair again from the start, with no memo of failed tests."""
    pieces = list(pieces)
    hist = [[record(p)] for p in pieces] if record else None
    log = []
    while True:
        hits = ((i, j, w, merge, args)
                for test, merge, pairwise in steps
                for i in range(len(pieces))
                for j in (range(i + 1, len(pieces)) if pairwise else (-1,))
                for args in [(pieces[i], pieces[j]) if j >= 0 else (pieces[i],)]
                for w in [test(*args)] if w is not None)
        hit = next(hits, None)
        if hit is None:
            return pieces, log, hist
        i, j, w, merge, args = hit
        new, result = merge(*args)
        log.append(MergeEvent(len(log), i, j, None if w is True else w, result))
        pieces[i] = new
        if hist:
            hist[i] = hist[i] + (hist[j] if j >= 0 else []) + [record(new)]
        if j >= 0:
            del pieces[j]
            if hist:
                del hist[j]


class TestMergeLoop:
    """The merge loop skips tests that failed before; the naive loop reruns
    them.  Every field of every result must agree, and no test may run twice
    on the same pieces."""

    def check(self, monkeypatch, run):
        calls = []
        loop = droplets._merge_loop

        def spied(pieces, steps, record=None):
            def spy(k, test):
                def run_test(*args):
                    # the pieces are kept alive, so their ids stay unique
                    calls.append((k, args, tuple(map(id, args))))
                    return test(*args)
                return run_test
            return loop(pieces, [(spy(k, t), m, p) for k, (t, m, p) in enumerate(steps)], record)

        with monkeypatch.context() as m:
            m.setattr(droplets, "_merge_loop", spied)
            fast = run()
        keys = [(k, ids) for k, _, ids in calls]
        assert len(set(keys)) == len(keys), "a test ran twice on the same pieces"
        with monkeypatch.context() as m:
            m.setattr(droplets, "_merge_loop", naive_merge_loop)
            slow = run()
        assert fast == slow
        return fast

    def test_covering(self, monkeypatch):
        cls = classify(U2)
        kap = kappa_of(U2, cls, rho_bound(U2, cls.droplet_directions, cls.alpha).value)
        rng = np.random.default_rng(21)
        merges = 0
        for alpha in (1, 2):
            # clusters too far apart to bridge, so their pairs fail each round
            K = {(100 * cx + int(x), 100 * cy + int(y)) for cx in range(3) for cy in range(3)
                 for x, y in rng.integers(0, 12, size=(3, 2))}
            res = self.check(monkeypatch, lambda: covering_algorithm(
                K, U2, cls.droplet_directions, alpha, kap))
            merges += len(res.merge_log)
        assert merges

    def test_spanning(self, monkeypatch):
        cls = classify(DUARTE)
        kap = kappa_of(DUARTE, cls, 0.0)
        rng = np.random.default_rng(22)
        merges = 0
        for _ in range(4):
            K = {(int(x), int(y)) for x, y in rng.integers(0, 30, size=(25, 2))}
            res = self.check(monkeypatch, lambda: spanning_algorithm(
                K, DUARTE, cls.droplet_directions, kap))
            merges += len(res.merge_log)
        assert merges

    def test_iceberg_all_steps(self, monkeypatch):
        _, u, u0, u_star, kap = duarte_drift_context()
        for seed in range(2):
            res = self.check(monkeypatch, lambda: iceberg_algorithm(
                iceberg_input(seed), u, u0, u_star, DUARTE, kap))
            assert all(res.step_counts.values()), res.step_counts
