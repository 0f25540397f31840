"""One batch of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/round.py --workload W --seed N --batch K --t0 T
        [--trace SPANS [--pool-workers P]] [--setup-only]

``--t0`` is the CLOCK_MONOTONIC reading taken just before this process was
started, so ``setup_s`` runs from interpreter start to the first timed
operation.  Every round is a new process, so the library's caches start cold.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest pool child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batch", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=Path, help="trace the round and save its spans here")
    ap.add_argument("--pool-workers", type=int, default=1,
                    help="traced: the Monte Carlo pool size to run as, in this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy
    import scipy
    import ubootstrap
    if Path(ubootstrap.__file__).resolve().parent != ROOT / "src" / "ubootstrap":
        print(f"ubootstrap imported from {ubootstrap.__file__}, not from src/", file=sys.stderr)
        return 2
    import workloads as wl

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install(args.pool_workers)
        tracer.recording = True

    def span(name):
        return tracer.root(name) if tracer else nullcontext()

    def untraced():
        return tracer.paused() if tracer else nullcontext()

    with span("bench.setup"):
        ops = wl.prepare(args.workload, args.seed, args.batch, wl.load_reference())
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    results = []
    for op in ops:
        error = None
        start = time.perf_counter()
        try:
            with span("bench.op"):
                value = op.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                with untraced():
                    error = op.check(value)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error:
            print(f"FAILED {op.label}: {error}", file=sys.stderr)
        results.append({"label": op.label, "s": elapsed, "ok": error is None})

    out.update(ops=results, batch_s=sum(r["s"] for r in results), peak_rss_mb=peak_rss_mb())
    if tracer:
        tracer.recording = False
        out["layers"] = layer_metrics(tracer)
        tracer.save(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
