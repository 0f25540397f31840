"""The repository's benchmark: seeded workloads against the public API of
``ubootstrap``, with every output checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Load is a closed loop from one process: each operation starts after the
previous one returns.  A run repeats batches of the workload's operations,
each batch on new inputs from the seed and in a fresh interpreter
(``round.py``) so the library's caches start cold, until the next batch
would overrun ``--seconds``; it always runs at least one.  Only the Monte
Carlo workloads use a worker pool, at UBP_THREADS=2; the rest are
single-threaded.

``--trace 0`` prints the end-to-end metrics: ``batch_s`` (median batch time),
``setup_s`` (median time from interpreter start to the first timed
operation, over at least three fresh interpreters) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced batches, all at UBP_THREADS=1 so
every library call lands in the traced process, and prints the per-layer
metrics of the traced batches plus the tracing overhead.  A traced batch of a
Monte Carlo workload runs the library as with its pool of 2, but each pool is
built in-process and counted (``montecarlo.pool_spawns``).  Spans are saved
under perfbench/out/.

Failed operations are counted in ``failed`` against ``attempted`` in the
result line (their ratio is the failure fraction); the last line of stdout
is that JSON result.  Self-tests: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("classify-light", "classify-heavy", "pc", "pc-dense", "tau", "cover", "span", "iceberg")
# what each workload's batch_s measures, by operation group
BATCH_NAMES = {"classify-light": "classify_light_s", "classify-heavy": "classify_heavy_s",
               "pc": "pc_s", "pc-dense": "pc_dense_s", "tau": "tau_s", "cover": "cover_s",
               "span": "span_s", "iceberg": "iceberg_s"}
POOL_WORKERS = {"pc": 2, "pc-dense": 2, "tau": 2}
SETUP_SAMPLES = 3
TIME_LIMIT = 170.0  # a run must end within 180 s


def median(xs):
    return statistics.median(xs)


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_round(workload, seed, batch, threads, timeout, trace_path=None, setup_only=False):
    """Run one batch in a fresh interpreter; None if it crashed or timed out."""
    env = dict(os.environ, UBP_THREADS=str(threads), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--batch", str(batch), "--t0", repr(t0)]
    if trace_path:
        cmd += ["--trace", str(trace_path), "--pool-workers", str(POOL_WORKERS.get(workload, 1))]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"round of {workload} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        # pool workers of a crashed round must not outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    if proc.returncode != 0 or not stdout.strip():
        print(f"round of {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ubootstrap" / "__init__.py").is_file():
        print(f"no ubootstrap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    threads = 1 if args.trace else POOL_WORKERS.get(args.workload, 1)
    kinds = ("plain", "traced") if args.trace else ("plain",)
    rounds = {"plain": [], "traced": []}
    setups = []
    crashed = False
    while not crashed:
        began = time.monotonic()
        batch = len(rounds["plain"])  # a traced batch repeats its untraced twin
        for kind in kinds:
            spans = None
            if kind == "traced":
                spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}-{batch}.npz"
            r = run_round(args.workload, args.seed, batch, threads,
                          TIME_LIMIT - (time.monotonic() - start), trace_path=spans)
            if r is None:
                crashed = True
                break
            rounds[kind].append(r)
            setups.append(r["setup_s"])
        now = time.monotonic()
        if now - start + (now - began) > args.seconds:
            break
    while not crashed and len(setups) < SETUP_SAMPLES:
        r = run_round(args.workload, args.seed, len(setups), threads,
                      TIME_LIMIT - (time.monotonic() - start), setup_only=True)
        if r is None:
            crashed = True
            break
        setups.append(r["setup_s"])

    done = rounds["plain"] + rounds["traced"]
    attempted = sum(len(r["ops"]) for r in done) + crashed
    failed = sum(not op["ok"] for r in done for op in r["ops"]) + crashed
    first = done[0] if done else {}

    metrics = {}
    if rounds["plain"] and not args.trace:
        batches = [r["batch_s"] for r in rounds["plain"]]
        metrics = {
            "batch_s": {"value": median(batches), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in rounds["plain"]), "unit": "MB"},
        }
        print(f"{args.workload}: {BATCH_NAMES[args.workload]} = batch_s = {metrics['batch_s']['value']:.4f} s"
              f" (batches: {', '.join(f'{b:.4f}' for b in batches)})")
    elif rounds["traced"]:
        for name in rounds["traced"][0]["layers"]:
            vals = [r["layers"][name][0] for r in rounds["traced"]]
            metrics[name] = {"value": median(vals), "unit": rounds["traced"][0]["layers"][name][1]}
        plain = median(r["batch_s"] for r in rounds["plain"])
        traced = median(r["batch_s"] for r in rounds["traced"])
        metrics["trace.overhead_pct"] = {"value": 100 * (traced / plain - 1), "unit": "%"}
        print(f"{args.workload}: traced batch {traced:.4f} s, untraced {plain:.4f} s, both at"
              " UBP_THREADS=1 so every lattice call lands in the traced process"
              " (traced pools are built in-process and counted)")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {failed}/{attempted}")

    provenance = {"commit": commit(), "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "UBP_THREADS": threads,
                  "nproc": len(os.sched_getaffinity(0)), "python": first.get("python", platform.python_version()),
                  "numpy": first.get("numpy"), "scipy": first.get("scipy"),
                  "rounds": {k: len(v) for k, v in rounds.items()}, "setup_samples": setups}
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
