#!/usr/bin/env python3
"""Regenerate ``reference.json``: each workload's crossing probabilities from
a long run of the same engine and model, with seeds no benchmark run uses.

    python3 perfbench/make_reference.py

The ``cmc`` reference uses the workload's own ``dt``, so the gate compares
like with like: the Euler scheme's discretisation bias is in both numbers.
Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import math

from run import REFERENCE, ROOT, WORKLOADS, import_package

REF_SEED = 987_654_321  # chunk k uses REF_SEED + k
CHUNK_RUNS = 1 << 20
CHUNKS = {"ex1-density": 16, "lam8-probs": 8, "ex2-cmc": 4}


def main() -> None:
    mods = import_package()
    out = {}
    for name, wl in WORKLOADS.items():
        spec = mods.config.parse_config(str(ROOT / wl.config)).to_model_spec()
        sums = [0.0] * spec.m
        squares = [0.0] * spec.m
        seeds = [REF_SEED + k for k in range(CHUNKS[name])]
        for seed in seeds:
            if wl.engine == "cmc":
                cfg = mods.cmc.CmcConfig(dt=wl.dt, n_runs=CHUNK_RUNS, seed=seed, workers=2)
                res = mods.cmc.run_cmc(spec, cfg)
            else:
                res = mods.unif.run_engine(spec, CHUNK_RUNS, seed=seed, workers=2)
            for i, ws in enumerate(res.marginals):
                sums[i] += float(ws.weights.sum())
                squares[i] += float((ws.weights**2).sum())
        n = CHUNK_RUNS * len(seeds)
        probs = [s / n for s in sums]
        out[name] = {
            "engine": wl.engine,
            "dt": wl.dt,
            "config": wl.config,
            "runs": n,
            "seeds": seeds,
            "crossing_prob": probs,
            "se": [math.sqrt((q / n - p * p) / n) for q, p in zip(squares, probs)],
        }
        print(name, out[name]["crossing_prob"], out[name]["se"], flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
