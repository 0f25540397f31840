"""Spans around calls into the library's layers, from outside the library.

``Tracer.install`` wraps public functions wherever a caller looks them up:
every module-level binding in ``ubootstrap`` that refers to the same function
object is replaced, so a name imported with ``from .lattice import closure``
is wrapped too.  Spans (name, parent, start, end) are kept in memory and
summarised into per-layer metrics at the end of the round; ``save`` writes
them out.  While ``recording`` is off the wrappers only forward the call.

In a traced round the Monte Carlo layer's process pools run in-process (see
``install``), so ``montecarlo.parallel_map.s`` is the trial work mapped
through the pool, not the cost of worker processes.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (span name, module, attribute); the layer is the span name's first part.
# An attribute the library no longer has is skipped, and its metrics read 0.
SPANS = (
    ("families.load", "families", "load_family"),
    ("family.classify", "family", "classify"),
    ("family.stable_set", "family", "stable_set"),
    ("family.difficulty_side", "family", "difficulty_side"),
    ("family.rho_bound", "family", "rho_bound"),
    ("family.iceberg_u0", "family", "iceberg_u0"),
    ("geometry.arc_ops", "geometry", "arc_union"),
    ("geometry.arc_ops", "geometry", "arc_intersect"),
    ("geometry.arc_ops", "geometry", "arc_complement"),
    ("lattice.strip_line_decision", "lattice", "strip_line_decision"),
    ("lattice.strip_scan", "lattice", "strip_scan"),
    ("lattice.closure", "lattice", "closure"),
    ("lattice.sweep", "lattice", "sweep"),
    ("lattice.torus_closure", "lattice", "torus_closure_grid"),
    ("montecarlo.estimate_pc", "montecarlo", "estimate_pc"),
    ("montecarlo.sample_tau", "montecarlo", "sample_tau"),
    ("montecarlo.parallel_map", "montecarlo", "parallel_map"),
    ("montecarlo.rng", "montecarlo", "random_torus_grid"),
    # the ring-window sampler of sample_tau has no public name
    ("montecarlo.rng", "montecarlo", "_ring_window_grid"),
    ("droplets.covering", "droplets", "covering_algorithm"),
    ("droplets.spanning", "droplets", "spanning_algorithm"),
    ("droplets.span_components", "droplets", "span_components"),
    ("droplets.iceberg", "droplets", "iceberg_algorithm"),
    ("droplets.minimal_droplet", "droplets", "minimal_droplet"),
    ("droplets.components", "droplets", "strongly_connected_components"),
    ("droplets.components", "droplets", "alpha_clusters"),
    ("droplets.dilate", "droplets", "OGrid.dilate"),
)
# called too often for a span each; counted only
COUNTS = (("droplets.pair_tests", "droplets", "OGrid.intersect"),)

LAYERS = ("bench", "families", "family", "geometry", "lattice", "montecarlo", "droplets")


def _on_result(tracer: "Tracer", name: str, result) -> None:
    c = tracer.counts
    if name == "lattice.strip_line_decision":
        verdict = getattr(result, "name", "")
        if verdict == "BAND_EXCEEDED":
            c["band_escalations"] += 1
        else:
            c["line_decisions"] += 1
            c["infinite_lines"] += verdict == "INFINITE_LINE"
    elif name == "lattice.closure":
        c["closure_sites"] += len(result)
    elif name == "droplets.dilate":
        c["dilate_cells"] += result.arr.size
    elif name == "montecarlo.estimate_pc":
        c["trials"] += result.trials_used
        c["bisection_evals"] += len(result.evaluations)
    elif name == "montecarlo.sample_tau":
        c["trials"] += len(result.taus) + result.timeouts
    elif name in ("droplets.covering", "droplets.spanning", "droplets.iceberg"):
        c["merges"] += len(result.merge_log)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # flat records of 5: name, parent, start, end, nested
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.recording = False

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, depth = self.spans, self._stack, self._depth

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans) // 5
            spans.extend((nid, stack[-1] if stack else -1, 0, 0, depth[nid] > 0))
            stack.append(idx)
            depth[nid] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                depth[nid] -= 1
                stack.pop()
                spans[5 * idx + 2] = start
                spans[5 * idx + 3] = end
            _on_result(self, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args):
            if self.recording:
                counts[name] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def install(self, pool_workers: int = 1) -> None:
        """Wrap every binding of each listed function in the loaded
        ubootstrap modules.  With ``pool_workers`` > 1 the Monte Carlo layer
        runs as with that many workers, but its process pools are
        ``InProcessPool``s: each pool the library builds is counted, and
        every call mapped through it lands in this process."""
        mods = {n: m for n, m in sys.modules.items() if n.startswith("ubootstrap.") and m}
        mc = mods.get("ubootstrap.montecarlo")
        if pool_workers > 1 and mc is not None:
            mc.worker_count = lambda: pool_workers
            mc.ProcessPoolExecutor = self.in_process_pool()
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for name, modname, attr in table:
                mod = mods.get(f"ubootstrap.{modname}")
                owner, _, meth = attr.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                fn = getattr(holder, meth, None) if holder is not None else None
                if fn is None:
                    continue
                wrapped = self.span(name, fn) if kind == "span" else self.counter(name, fn)
                if owner:
                    setattr(holder, meth, wrapped)
                    continue
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)

    def in_process_pool(self):
        """A stand-in for ProcessPoolExecutor that counts pool spawns and
        maps in order in the calling process."""
        tracer = self

        class InProcessPool:
            def __init__(self, max_workers=None, **_):
                if tracer.recording:
                    tracer.counts["pool_spawns"] += 1

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, timeout=None, chunksize=1):
                return map(fn, *iterables)

        return InProcessPool

    @contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself (layer ``bench``)."""
        idx = len(self.spans) // 5
        self.spans.extend((self._name_id(name), -1, time.perf_counter_ns(), 0, 0))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[5 * idx + 3] = time.perf_counter_ns()

    @contextmanager
    def paused(self):
        """No spans or counts inside, e.g. while a gate checks an output."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 5)

    def summary(self) -> dict:
        """Per-name calls and outermost time, and per-layer self time."""
        t = self.table()
        dur = (t[:, 3] - t[:, 2]).astype(np.float64) / 1e9
        child = np.zeros(len(t))
        has_parent = t[:, 1] >= 0
        np.add.at(child, t[has_parent, 1], dur[has_parent])
        self_s = dur - child
        out = {"calls": Counter(), "s": Counter(), "self": Counter()}
        for nid, name in enumerate(self.names):
            sel = t[:, 0] == nid
            out["calls"][name] = int(sel.sum())
            out["s"][name] = float(dur[sel & (t[:, 4] == 0)].sum())
            out["self"][name.split(".")[0]] += float(self_s[sel].sum())
        sweep_id = self._ids.get("lattice.sweep", -1)
        torus_id = self._ids.get("lattice.torus_closure", -1)
        parent_id = np.where(has_parent, t[np.maximum(t[:, 1], 0), 0], -1)
        out["sweeps_in_closures"] = int(((t[:, 0] == sweep_id) & (parent_id == torus_id)).sum()) \
            if torus_id >= 0 else 0
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, spans=self.table(), names=np.array(self.names))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced round, as name -> (value, unit)."""
    s = tracer.summary()
    calls, secs, c = s["calls"], s["s"], tracer.counts

    def per(a, b):
        return a / b if b else 0.0

    m = {
        "lattice.strip_scan.calls": (calls["lattice.strip_scan"], "count"),
        "lattice.strip_scan.ms": (1e3 * per(secs["lattice.strip_scan"], calls["lattice.strip_scan"]), "ms"),
        "lattice.strip_scan.s": (secs["lattice.strip_scan"], "s"),
        "family.line_decisions": (c["line_decisions"], "count"),
        "family.band_escalations": (c["band_escalations"], "count"),
        "family.hit_ratio": (per(c["infinite_lines"], c["line_decisions"]), "ratio"),
        "family.candidates_per_s": (per(c["line_decisions"], secs["family.difficulty_side"]), "1/s"),
        "family.classify.s": (secs["family.classify"], "s"),
        "geometry.arc_ops.calls": (calls["geometry.arc_ops"], "count"),
        "geometry.arc_ops.s": (secs["geometry.arc_ops"], "s"),
        "lattice.sweep.calls": (calls["lattice.sweep"], "count"),
        "lattice.sweep.ms": (1e3 * per(secs["lattice.sweep"], calls["lattice.sweep"]), "ms"),
        "lattice.sweeps_per_closure": (per(s["sweeps_in_closures"], calls["lattice.torus_closure"]), "ratio"),
        "montecarlo.rng.s": (secs["montecarlo.rng"], "s"),
        "montecarlo.trials": (c["trials"], "count"),
        "montecarlo.trials_per_s": (per(c["trials"], secs["montecarlo.estimate_pc"]
                                        + secs["montecarlo.sample_tau"]), "1/s"),
        "montecarlo.bisection_evals": (c["bisection_evals"], "count"),
        "montecarlo.pool_spawns": (c["pool_spawns"], "count"),
        "montecarlo.parallel_map.s": (secs["montecarlo.parallel_map"], "s"),
        "droplets.pair_tests": (c["droplets.pair_tests"], "count"),
        "droplets.merges": (c["merges"], "count"),
        "droplets.merge_ratio": (per(c["merges"], c["droplets.pair_tests"]), "ratio"),
        "droplets.dilate.calls": (calls["droplets.dilate"], "count"),
        "droplets.dilate.ms": (1e3 * per(secs["droplets.dilate"], calls["droplets.dilate"]), "ms"),
        "droplets.dilate.cells": (c["dilate_cells"], "count"),
        "droplets.minimal_droplet.calls": (calls["droplets.minimal_droplet"], "count"),
        "droplets.minimal_droplet.s": (secs["droplets.minimal_droplet"], "s"),
        "lattice.closure.calls": (calls["lattice.closure"], "count"),
        "lattice.closure.s": (secs["lattice.closure"], "s"),
        "lattice.closure.sites_per_s": (per(c["closure_sites"], secs["lattice.closure"]), "sites/s"),
        "droplets.components.calls": (calls["droplets.components"], "count"),
        "droplets.components.s": (secs["droplets.components"], "s"),
        "family.rho_bound.s": (secs["family.rho_bound"], "s"),
        "families.load.s": (secs["families.load"], "s"),
        "trace.spans": (len(tracer.spans) // 5, "count"),
    }
    for layer in LAYERS:
        m[f"self.{layer}.s"] = (s["self"][layer], "s")
    return m
