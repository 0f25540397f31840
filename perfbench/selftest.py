"""Self-tests of the benchmark: deterministic generators, gates that catch
planted wrong outputs, and a tracer whose self times add up.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402

REFERENCE = wl.load_reference()


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in run.WORKLOADS:
            for seed in (0, 7, 2 ** 40 + 3):
                self.assertEqual(wl.generate(name, seed), wl.generate(name, seed), name)

    def test_seed_changes_inputs(self):
        for name in run.WORKLOADS:
            distinct = {repr(wl.generate(name, seed)) for seed in range(10)}
            self.assertGreater(len(distinct), 1, name)

    def test_pool_boxes_are_fixed(self):
        for pool in ("cover-small-pool", "cover-large-pool", "ice-pool"):
            self.assertEqual(wl.pool_box(pool, 3), wl.pool_box(pool, 3))
            self.assertNotEqual(wl.pool_box(pool, 3), wl.pool_box(pool, 4))

    def test_every_input_has_a_reference(self):
        for seed in range(20):
            for name in run.WORKLOADS:
                for spec in wl.generate(name, seed):
                    if spec[0] == "classify":
                        self.assertIn(spec[1], REFERENCE["classify"])
                    elif spec[0] == "pc":
                        self.assertIn(f"{spec[1]}/{spec[2]}", REFERENCE["pc"])
                    elif spec[0] == "tau":
                        self.assertLess(spec[4], len(REFERENCE["tau"][spec[1]]))
                    elif spec[0] in ("cover", "iceberg"):
                        self.assertLess(spec[2], len(REFERENCE[spec[1]]))

    def test_large_cover_boxes_keep_clusters_apart(self):
        ctx = wl.droplet_context()
        res = wl.drp.covering_algorithm(wl.pool_box("cover-large-pool", 0),
                                        wl.base_family("two-neighbour"),
                                        ctx.u2_dirs, ctx.u2_alpha, ctx.u2_kappa)
        self.assertEqual(len(res.droplets), wl.COVER_LARGE[0] ** 2)

    def test_east_anchor(self):
        p = wl.east_pc(16)
        self.assertAlmostEqual((1 - (1 - p) ** 16) ** 16, 0.5, places=12)
        self.assertAlmostEqual(p, 0.17925, places=5)


class Gates(unittest.TestCase):
    def test_planted_wrong_verdict(self):
        ref = REFERENCE["classify"]["duarte"][0]
        expected = wl.corpus_expected("duarte")
        self.assertIsNone(wl.check_verdict(dict(ref), ref, expected))
        for key, wrong in (("alpha", 2), ("balanced", True), ("drift", False), ("u_star", [0, -1])):
            got = dict(ref, **{key: wrong})
            self.assertIsNotNone(wl.check_verdict(got, ref, expected), key)

    def test_metadata_is_checked_before_reference(self):
        ref = dict(REFERENCE["classify"]["gg-two"][0], alpha=1)  # a corrupted reference
        self.assertIsNotNone(wl.check_verdict(dict(ref), ref, wl.corpus_expected("gg-two")))

    def test_planted_wrong_tau(self):
        ts = wl.mc.sample_tau(wl.base_family("duarte"), 0.15, 32, wl.TAU_T_MAX, seed=5)
        ref = wl.tau_record(ts)
        self.assertIsNone(wl.check_tau(wl.tau_record(ts), ref))
        taus = list(ts.taus)
        taus[-1] += 1  # the median and quartiles stay, only one sample moves
        planted = dataclasses.replace(ts, taus=tuple(taus))
        self.assertIsNotNone(wl.check_tau(wl.tau_record(planted), ref))
        late = dataclasses.replace(ts, timeouts=ts.timeouts + 1)
        self.assertIsNotNone(wl.check_tau(wl.tau_record(late), ref))

    def test_pc_tolerance(self):
        ref = REFERENCE["pc"]["east/16"]
        self.assertIsNone(wl.check_pc(ref["pc"], ref))
        self.assertIsNotNone(wl.check_pc(ref["pc"] + 1.01 * ref["tolerance"], ref))

    def test_digest_ignores_order_not_content(self):
        d = wl.fam.classify(wl.base_family("two-neighbour")).droplet_directions
        a = wl.drp.minimal_droplet([(0, 0), (3, 1)], d)
        b = wl.drp.minimal_droplet([(9, 9)], d)
        self.assertEqual(wl.pieces_digest([a, b]), wl.pieces_digest([b, a]))
        self.assertIsNotNone(wl.check_digest(wl.pieces_digest([a]), wl.pieces_digest([a, b])))

    def test_span_gate(self):
        d = wl.fam.classify(wl.base_family("duarte")).droplet_directions
        a = wl.drp.minimal_droplet([(0, 0)], d)
        b = wl.drp.minimal_droplet([(5, 5)], d)
        self.assertIsNone(wl.check_span([a, b], [b, a]))
        self.assertIsNotNone(wl.check_span([a], [a, b]))


class Tracing(unittest.TestCase):
    def test_spans_and_self_time(self):
        tracer = Tracer()
        tracer.install()
        # a name bound at import time by another module is wrapped as well
        self.assertTrue(hasattr(wl.fam.strip_line_decision, "__wrapped__"))
        self.assertTrue(hasattr(wl.drp.closure, "__wrapped__"))
        tracer.recording = True
        with tracer.root("bench.op"):
            wl.fam.classify(wl.base_family("gg-two"))
        tracer.recording = False
        m = layer_metrics(tracer)
        self.assertGreater(m["lattice.strip_scan.calls"][0], 100)
        self.assertGreater(m["family.line_decisions"][0], 100)
        root = tracer.table()[0]
        root_s = (root[3] - root[2]) / 1e9
        self_sum = sum(m[f"self.{layer}.s"][0] for layer in LAYERS)
        self.assertAlmostEqual(self_sum, root_s, delta=1e-6)
        self.assertGreater(m["lattice.strip_scan.s"][0], 0.5 * root_s)

    def test_pool_spawns_count_pools_built(self):
        for attr in ("worker_count", "ProcessPoolExecutor"):
            self.addCleanup(setattr, wl.mc, attr, getattr(wl.mc, attr))
        tracer = Tracer()
        tracer.install(pool_workers=2)
        tracer.recording = True
        self.assertEqual(wl.mc.parallel_map(abs, [1, -2, 3]), [1, 2, 3])
        self.assertEqual(wl.mc.parallel_map(abs, [-4]), [4])  # one argument: no pool
        tracer.recording = False
        self.assertEqual(tracer.counts["pool_spawns"], 1)

    def test_declared_per_layer_metrics_are_reported(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        reported = set(layer_metrics(Tracer())) | {"trace.overhead_pct"}
        self.assertEqual({m["name"] for m in declared["per_layer"]}, reported)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
