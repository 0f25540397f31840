"""Record the references the benchmark's gates compare against.

    python3 perfbench/record.py [section ...]

Sections: classify, pc, tau, cover, iceberg (default: all).  Each one is
recomputed with the program in ``src/`` and merged into reference.json.  Run
it only at a commit whose outputs are known to be right: the gates then
hold every later commit to those outputs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("UBP_THREADS", "2")

import workloads as wl  # noqa: E402

PC_SEEDS = range(10 ** 6, 10 ** 6 + 20)
# tolerance = this many standard deviations of p_hat across PC_SEEDS, and at
# least two bisection widths, since p_hat moves on a grid of that width.  A
# run checks a few dozen estimates and a set of benchmark runs some thousands, so a
# wrong verdict from the seed alone must stay rarer than about 1e-4 per
# estimate: 4 sd, where the worst error over PC_SEEDS (recorded as worst_err)
# was 1.1 to 2.9 sd.  A narrower gate would fail correct code; this one still
# catches an estimator bias of more than 4 sd.
PC_SDS = 4


def record_classify() -> dict:
    out = {}
    for name in wl.CLASSIFY_LIGHT + wl.CLASSIFY_HEAVY:
        by_rules = {}
        verdicts = []
        for sym in range(len(wl.DIHEDRAL)):
            U = wl.family_instance(name, sym)
            if U.rules not in by_rules:
                by_rules[U.rules] = wl.verdict(wl.fam.classify(U))
            verdicts.append(by_rules[U.rules])
        out[name] = verdicts
        print("classify", name, verdicts[0], flush=True)
    return out


def record_pc() -> dict:
    out = {}
    for name, n, trials, tol in wl.PC_OPS + wl.PC_DENSE_OPS:
        U = wl.base_family(name)
        hats = [wl.mc.estimate_pc(U, n, trials=trials, tol=tol, seed=s).p_hat for s in PC_SEEDS]
        sd = statistics.stdev(hats)
        pc = wl.east_pc(n) if name == wl.EAST else statistics.fmean(hats)
        out[f"{name}/{n}"] = {"pc": pc, "tolerance": max(PC_SDS * sd, 2 * tol),
                              "seed_mean": statistics.fmean(hats), "seed_sd": sd,
                              "worst_err": max(abs(h - pc) for h in hats), "seeds": len(hats)}
        print("pc", name, n, out[f"{name}/{n}"], flush=True)
    return out


def record_tau() -> dict:
    out = {}
    for name, p, trials in wl.TAU_OPS:
        U = wl.base_family(name)
        out[name] = [wl.tau_record(wl.mc.sample_tau(U, p, trials, wl.TAU_T_MAX, seed=s))
                     for s in range(wl.TAU_POOL)]
        print("tau", name, [r["median"] for r in out[name]], flush=True)
    return out


def record_cover(ctx) -> dict:
    U = wl.base_family("two-neighbour")
    out = {}
    for pool, size in (("cover-small-pool", wl.COVER_SMALL_POOL),
                       ("cover-large-pool", wl.COVER_LARGE_POOL)):
        out[pool] = []
        for i in range(size):
            res = wl.drp.covering_algorithm(wl.pool_box(pool, i), U, ctx.u2_dirs,
                                            ctx.u2_alpha, ctx.u2_kappa)
            # the large boxes exist to keep one droplet per cluster apart
            if pool == "cover-large-pool" and len(res.droplets) != wl.COVER_LARGE[0] ** 2:
                raise SystemExit(f"{pool}[{i}]: {len(res.droplets)} droplets, not one per cluster")
            out[pool].append(wl.pieces_digest(res.droplets))
        print(pool, len(out[pool]), flush=True)
    return out


def record_iceberg(ctx) -> dict:
    U = wl.base_family("duarte")
    digests = [wl.pieces_digest(wl.drp.iceberg_algorithm(
        wl.pool_box("ice-pool", i), ctx.u, ctx.u0, ctx.u_star, U, ctx.duarte_kappa).pieces)
        for i in range(wl.ICE_POOL)]
    print("ice-pool", len(digests), flush=True)
    return {"ice-pool": digests}


def main(argv: list[str]) -> int:
    sections = argv or ["classify", "pc", "tau", "cover", "iceberg"]
    ref = json.loads(wl.REFERENCE_PATH.read_text()) if wl.REFERENCE_PATH.exists() else {}
    ctx = wl.droplet_context() if {"cover", "iceberg"} & set(sections) else None
    for section in sections:
        if section == "classify":
            ref["classify"] = record_classify()
        elif section == "pc":
            ref["pc"] = record_pc()
        elif section == "tau":
            ref["tau"] = record_tau()
        elif section == "cover":
            ref.update(record_cover(ctx))
        elif section == "iceberg":
            ref.update(record_iceberg(ctx))
        else:
            print(f"unknown section {section!r}", file=sys.stderr)
            return 2
        wl.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
