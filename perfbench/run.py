#!/usr/bin/env python3
"""fptmc benchmark: time-to-result, time-to-accuracy and memory per workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ex1-density --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout; nothing needs to be
installed.  ``--trace 0`` prints the end-to-end metrics, measured with
tracing off.  ``--trace 1`` alternates untraced and traced calls and prints
the per-layer metrics taken from spans around each layer boundary (see
``spans.py``), with the tracing overhead.  Every call of the workload is
checked by the correctness gate; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans of the traced run are written to ``.bench_out/<workload>/trace.json``.

Workloads, metrics and what each layer metric should move are described in
``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

SE_TARGET = 1e-3  # standard error that time_to_se_s is quoted at
GATE_Z = 5.0  # tolerance of the reference check, in combined standard errors
VAR_BATCH = 1024  # runs per batch of the variance behind time_to_se_s
SETUP_REPEATS = 7
WARMUP_RUNS = 16384


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    engine: str
    runs: int
    workers: int
    dt: Optional[float] = None
    # True: the user call is report.run_experiment (KDE + CSV + report);
    # False: unif.run_engine + crossing_probabilities only
    densities: bool = True


# Why each workload exists is recorded in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ex1-density", "configs/example1.cfg", "unif", 100_000, 1),
        Workload("lam8-probs", "configs/example3.cfg", "unif", 1_000_000, 2, densities=False),
        Workload("ex2-cmc", "configs/example2.cfg", "cmc", 65_536, 1, dt=0.001),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_us_per_run": "us",
    "time_to_se_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> unit.  Counts are exact or computed from array
# sizes; they never contain a timing.
LAYER_UNITS = {
    "setup.import_s": "s",
    "config.parse_config.self_s": "s",
    "unif.simulate_block.self_s": "s",
    "unif.simulate_block.calls": "count",
    "bridge.survival_array.self_s": "s",
    "bridge.survival_array.calls": "count",
    "bridge.survival_array.elements": "count",
    "bridge.fpt_density_array.self_s": "s",
    "bridge.fpt_density_array.calls": "count",
    "bridge.fpt_density_array.elements": "count",
    "bridge.accept_ratio": "ratio",
    "unif.ess_frac.1": "ratio",
    "unif.ess_frac.2": "ratio",
    "unif.max_weight_share.1": "ratio",
    "unif.max_weight_share.2": "ratio",
    "unif.zero_weight_dropped": "count",
    "unif.interior_crossings": "count",
    "unif.at_jump_crossings": "count",
    "unif.grazing_entries": "count",
    "cmc.simulate_block_cmc.self_s": "s",
    "cmc.steps_x_runs": "count",
    "cmc.total_jumps": "count",
    "results.run_blocks.wall_s": "s",
    "results.run_blocks.wall_s_1worker": "s",
    "results.parallel_eff": "ratio",
    "results.collect_result.self_s": "s",
    "kde.bandwidth.self_s": "s",
    "kde.marginal.self_s": "s",
    "kde.joint.self_s": "s",
    "kde.pairs_1d": "count",
    "kde.pairs_joint": "count",
    "report.emit_density_csv.self_s": "s",
    "report.csv_bytes": "count",
    "report.format_report.self_s": "s",
    "share.unif_bridge": "ratio",
    "share.cmc": "ratio",
    "share.kde": "ratio",
    "share.report": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.count_s": "s",
    "trace.spans": "count",
}

# span-name prefixes that make up each share.* metric
SHARES = {
    "share.unif_bridge": ("unif.", "bridge."),
    "share.cmc": ("cmc.",),
    "share.kde": ("kde.",),
    "share.report": ("report.",),
}

_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fptmc
imported = time.perf_counter()
fptmc.parse_config(sys.argv[2]).to_model_spec()
print(imported - start)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_package():
    """Import fptmc from the checkout's ``src/`` and return its modules."""
    if not (SRC / "fptmc" / "__init__.py").is_file():
        raise BenchError(f"no fptmc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fptmc
    from fptmc import bridge, cmc, config, report, results, unif

    if not Path(fptmc.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"fptmc imported from {fptmc.__file__}, not from {SRC}")
    return SimpleNamespace(
        bridge=bridge, cmc=cmc, config=config, report=report, results=results, unif=unif
    )


# ---------------------------------------------------------------------------
# one call of the workload


@dataclass
class Outcome:
    wall_s: float
    result: object  # EngineResult
    probs: list  # crossing probabilities as the user sees them
    out_dir: Path


def make_config(mods, wl: Workload, seed: int, runs: int, workers: int, out_dir: Path):
    path = ROOT / wl.config
    if not path.is_file():
        raise BenchError(f"missing workload config {path}")
    base = mods.config.parse_config(str(path))
    return mods.config.apply_overrides(
        base,
        engine=wl.engine,
        runs=runs,
        seed=seed,
        workers=workers,
        dt=wl.dt,
        out=str(out_dir),
    )


def call_workload(mods, wl: Workload, cfg, tracer=None) -> Outcome:
    """The user-visible call, timed; the engine result is captured from the
    report module's engine entry points without timing anything."""
    out_dir = Path(cfg.out)
    shutil.rmtree(out_dir, ignore_errors=True)
    spec = cfg.to_model_spec()
    captured = []

    def capture(fn):
        def wrapped(*args, **kwargs):
            res = fn(*args, **kwargs)
            captured.append(res)
            return res

        return wrapped

    def timed(fn):
        start = time.perf_counter()
        value = tracer.call("workload", fn) if tracer else fn()
        return value, time.perf_counter() - start

    def probabilities():
        res = mods.unif.run_engine(spec, cfg.runs, seed=cfg.seed, workers=cfg.workers)
        captured.append(res)
        return res.crossing_probabilities()

    report = mods.report
    saved = report.run_engine, report.run_cmc
    report.run_engine, report.run_cmc = capture(saved[0]), capture(saved[1])
    try:
        if wl.densities:
            rep, wall = timed(lambda: report.run_experiment(cfg))
            probs = rep.crossing_prob[wl.engine]
        else:
            probs, wall = timed(probabilities)
    finally:
        report.run_engine, report.run_cmc = saved
    (result,) = captured
    return Outcome(wall, result, [float(p) for p in probs], out_dir)


def run_weights(result, i: int):
    """Component ``i``'s weight per run, in run order (0 where the run did
    not cross)."""
    w = np.zeros(result.n_runs)
    w[result.marginal_run_indices[i]] = result.marginals[i].weights
    return w


def weight_variance(result, i: int) -> float:
    """Variance over runs of component ``i``'s run weight."""
    return float(run_weights(result, i).var())


def typical_weight_variance(result, i: int) -> float:
    """Median over consecutive batches of VAR_BATCH runs of the in-batch
    variance of the run weight.

    The plain variance of the unif weights does not settle: it grows with
    the run count and spreads fivefold across seeds at 1M runs, because the
    weight has a heavy tail where a bridge ends near its barrier.  The
    median over fixed-size batches is steady across seeds, and for weights
    with a light tail (cmc, or any weight-1 sampler) it equals the variance.
    """
    w = run_weights(result, i)
    batches = max(1, len(w) // VAR_BATCH)
    size = len(w) // batches
    return float(np.median(w[: batches * size].reshape(batches, size).var(axis=1)))


# ---------------------------------------------------------------------------
# correctness gate


def gate(wl: Workload, cfg, outcome: Outcome, reference: dict) -> list[str]:
    """Problems found in one call's outputs (empty when it is correct)."""
    problems = []
    n = outcome.result.n_runs
    for i, p in enumerate(outcome.probs):
        var = weight_variance(outcome.result, i)
        ref, ref_se = reference["crossing_prob"][i], reference["se"][i]
        tol = GATE_Z * math.hypot(math.sqrt(var / n), ref_se)
        if not abs(p - ref) <= tol:
            problems.append(f"P(cross X{i+1}) = {p!r}, reference {ref!r} +- {tol:.3g}")
    if not wl.densities:
        return problems

    def table(name: str, header: str, rows: int):
        path = outcome.out_dir / name
        try:
            with open(path, encoding="utf-8") as handle:
                first = handle.readline().rstrip("\n")
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            return None
        if first != header:
            problems.append(f"{name}: header {first!r}, expected {header!r}")
        if data.shape[0] != rows:
            problems.append(f"{name}: {data.shape[0]} rows, expected {rows}")
            return None
        return data

    axis = np.linspace(0.0, cfg.horizon, cfg.grid_1d)
    for i, p in enumerate(outcome.probs):
        data = table(f"{wl.engine}_marginal_{i+1}.csv", "# t,density", cfg.grid_1d)
        if data is None:
            continue
        if not np.array_equal(data[:, 0], axis):
            problems.append(f"marginal {i+1}: grid column differs from the grid")
        mass = float(np.trapezoid(data[:, 1], data[:, 0]))
        if not mass <= p:
            problems.append(f"marginal {i+1}: total mass {mass!r} > P(cross) {p!r}")
    if cfg.m == 2:
        table(f"{wl.engine}_joint.csv", "# t1,t2,density", cfg.grid_2d**2)
    if not (outcome.out_dir / "report.txt").is_file():
        problems.append("report.txt missing")
    return problems


# ---------------------------------------------------------------------------
# tracing: which attributes are wrapped and what is counted there


def install_tracer(mods, tracer) -> None:
    def elements(args, kwargs, result):
        return {"elements": int(result.size)}

    def steps_x_runs(args, kwargs, result):
        spec, cfg, _rng, size = args
        steps = math.ceil(spec.horizon / cfg.dt - 1e-9)
        return {"steps_x_runs": steps * size, "total_jumps": int(result[3])}

    def collect_counts(args, kwargs, result):
        if result.engine != "unif":
            return {}
        blocks = args[2]
        counts = {
            "zero_weight_dropped": sum(
                int(((k != 0) & (w == 0.0)).sum()) for _t, w, k in blocks
            ),
            "interior_crossings": int(result.diagnostics["interior_crossings"]),
            "at_jump_crossings": int(result.diagnostics["at_jump_crossings"]),
            "grazing_entries": int(result.diagnostics.get("grazing_entries", 0)),
        }
        for i, ws in enumerate(result.marginals, start=1):
            total = float(ws.weights.sum())
            if len(ws) and total > 0:
                counts[f"ess_frac.{i}"] = total**2 / float((ws.weights**2).sum()) / len(ws)
                counts[f"max_weight_share.{i}"] = float(ws.weights.max()) / total
        return counts

    def pairs(args, kwargs, result):
        samples, grid = args[0], args[1]
        nodes = math.prod(len(g) for g in grid) if isinstance(grid, tuple) else len(grid)
        return {"pairs": len(samples) * nodes}

    def csv_bytes(args, kwargs, result):
        return {"bytes": Path(args[1]).stat().st_size}

    for module in (mods.unif, mods.cmc):
        tracer.wrap(module, "run_blocks", "results.run_blocks")
        tracer.wrap(module, "collect_result", "results.collect_result", collect_counts)
    tracer.wrap(mods.unif, "simulate_block", "unif.simulate_block")
    tracer.wrap(mods.cmc, "simulate_block_cmc", "cmc.simulate_block_cmc", steps_x_runs)
    tracer.wrap(mods.bridge, "survival_array", "bridge.survival_array", elements)
    tracer.wrap(mods.bridge, "fpt_density_array", "bridge.fpt_density_array", elements)
    tracer.wrap(mods.results, "marginal_bandwidth", "kde.bandwidth")
    tracer.wrap(mods.results, "estimate_density_1d", "kde.marginal", pairs)
    tracer.wrap(mods.results, "estimate_density_multi", "kde.joint", pairs)
    tracer.wrap(mods.report, "estimate_densities", "report.estimate_densities")
    tracer.wrap(mods.report, "emit_density_csv", "report.emit_density_csv", csv_bytes)
    tracer.wrap(mods.report, "format_report", "report.format_report")
    tracer.wrap(mods.config, "parse_config", "config.parse_config")


def layer_metrics(summary: dict, root_self_total: float) -> dict:
    """Per-layer numbers of one traced call, from its span summary."""

    def get(name, key="self_s"):
        entry = summary.get(name)
        return entry[key] if entry else 0

    def count(name, key):
        entry = summary.get(name)
        return entry["counts"].get(key, 0) if entry else 0

    out = {
        "config.parse_config.self_s": get("config.parse_config"),
        "unif.simulate_block.self_s": get("unif.simulate_block"),
        "unif.simulate_block.calls": get("unif.simulate_block", "calls"),
        "cmc.simulate_block_cmc.self_s": get("cmc.simulate_block_cmc"),
        "cmc.steps_x_runs": count("cmc.simulate_block_cmc", "steps_x_runs"),
        "cmc.total_jumps": count("cmc.simulate_block_cmc", "total_jumps"),
        "results.run_blocks.wall_s": get("results.run_blocks", "total_s"),
        "results.collect_result.self_s": get("results.collect_result"),
        "kde.bandwidth.self_s": get("kde.bandwidth"),
        "kde.marginal.self_s": get("kde.marginal"),
        "kde.joint.self_s": get("kde.joint"),
        "kde.pairs_1d": count("kde.marginal", "pairs"),
        "kde.pairs_joint": count("kde.joint", "pairs"),
        "report.emit_density_csv.self_s": get("report.emit_density_csv"),
        "report.csv_bytes": count("report.emit_density_csv", "bytes"),
        "report.format_report.self_s": get("report.format_report"),
        "trace.count_s": get("trace.count", "total_s"),
        "trace.spans": sum(e["calls"] for e in summary.values()),
    }
    for name in ("survival_array", "fpt_density_array"):
        span = f"bridge.{name}"
        out[f"{span}.self_s"] = get(span)
        out[f"{span}.calls"] = get(span, "calls")
        out[f"{span}.elements"] = count(span, "elements")
    surv = out["bridge.survival_array.elements"]
    out["bridge.accept_ratio"] = out["bridge.fpt_density_array.elements"] / surv if surv else 0.0
    for key in (
        "ess_frac.1",
        "ess_frac.2",
        "max_weight_share.1",
        "max_weight_share.2",
        "zero_weight_dropped",
        "interior_crossings",
        "at_jump_crossings",
        "grazing_entries",
    ):
        out[f"unif.{key}"] = count("results.collect_result", key)
    for share, prefixes in SHARES.items():
        own = sum(e["self_s"] for n, e in summary.items() if n.startswith(prefixes))
        out[share] = own / root_self_total if root_self_total > 0 else 0.0
    return out


def block_busy_s(summary: dict) -> float:
    return sum(
        summary[n]["total_s"]
        for n in ("unif.simulate_block", "cmc.simulate_block_cmc")
        if n in summary
    )


# ---------------------------------------------------------------------------
# measurement


def measure_setup(config_path: Path) -> tuple[list[float], list[float]]:
    """Cold-process set-up: wall time of a fresh interpreter that imports
    fptmc, parses the workload config and builds the model spec; also the
    import time the child measures itself."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(config_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed:\n{proc.stderr}")
        imports.append(float(proc.stdout.split()[-1]))
    return walls, imports


class Runner:
    """Calls the workload, gates each call and counts attempts and failures."""

    def __init__(self, mods, wl: Workload, seed: int, reference: dict, runs: int):
        self.mods, self.wl, self.seed, self.reference, self.runs = mods, wl, seed, reference, runs
        self.attempted = 0
        self.failed = 0

    def config(self, workers: int, tag: str = "run"):
        return make_config(self.mods, self.wl, self.seed, self.runs, workers, OUT / self.wl.name / tag)

    def attempt(self, cfg, tracer=None, expect=None) -> Optional[Outcome]:
        """One gated call; ``expect`` are crossing probabilities the call
        must reproduce bitwise."""
        self.attempted += 1
        try:
            outcome = call_workload(self.mods, self.wl, cfg, tracer)
            problems = gate(self.wl, cfg, outcome, self.reference)
            if expect is not None and outcome.probs != expect:
                problems.append(
                    f"workers={cfg.workers} traced probabilities {outcome.probs} "
                    f"differ from the untraced call's {expect}"
                )
        except Exception:  # a call that raises counts as a failed attempt
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if problems:
            self.failed += 1
            print(f"gate failed: {'; '.join(problems)}", file=sys.stderr)
        return outcome

    def warm_up(self) -> None:
        """One small untimed, ungated call: first-call costs of numpy and the
        file system are paid here, not in the measured calls."""
        cfg = make_config(
            self.mods, self.wl, self.seed, min(self.runs, WARMUP_RUNS), self.wl.workers,
            OUT / self.wl.name / "warmup",
        )
        call_workload(self.mods, self.wl, cfg)


def until(seconds: float):
    """Yield pass numbers while another pass, as long as the last one, still
    ends within ``seconds``; always at least one."""
    start = time.perf_counter()
    last = 0.0
    k = 0
    while k == 0 or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        yield k
        last = time.perf_counter() - pass_start
        k += 1


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    setup, _ = measure_setup(ROOT / runner.wl.config)
    runner.warm_up()
    cfg = runner.config(runner.wl.workers)
    walls, sim_us, to_se = [], [], []
    for _ in until(seconds):
        outcome = runner.attempt(cfg)
        if outcome is None:
            continue
        spr = outcome.result.seconds_per_run
        walls.append(outcome.wall_s)
        sim_us.append(spr * 1e6)
        var = max(typical_weight_variance(outcome.result, i) for i in range(len(outcome.probs)))
        to_se.append(spr * var / SE_TARGET**2)
    if not walls:
        raise BenchError("no call of the workload completed")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "sim_us_per_run": statistics.median(sim_us),
        "time_to_se_s": statistics.median(to_se),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    _, imports = measure_setup(ROOT / runner.wl.config)
    runner.warm_up()
    workers = runner.wl.workers
    plain_cfg = runner.config(workers)
    untraced, traced, passes = [], [], []
    last_tracer = None
    for _ in until(seconds):
        plain = runner.attempt(plain_cfg)
        if plain is None:
            continue
        runs = {}
        # the configured width, then (when wider) the single-worker baseline
        for width in sorted({workers, 1}, reverse=True):
            tracer = Tracer()
            install_tracer(runner.mods, tracer)
            try:
                cfg = runner.config(width, tag=f"traced{width}")
                outcome = runner.attempt(cfg, tracer, expect=plain.probs)
            finally:
                tracer.restore()
            runs[width] = (tracer, outcome)
        tracer, outcome = runs[workers]
        if any(o is None for _t, o in runs.values()):
            continue
        summary = tracer.summary()
        in_call = tracer.summary(root=tracer.find("workload"))
        metrics = layer_metrics(summary, sum(e["self_s"] for e in in_call.values()))
        single = runs[1][0].summary()
        metrics["results.run_blocks.wall_s_1worker"] = single["results.run_blocks"]["total_s"]
        metrics["results.parallel_eff"] = block_busy_s(single) / (
            workers * metrics["results.run_blocks.wall_s"]
        )
        untraced.append(plain.wall_s)
        traced.append(outcome.wall_s)
        passes.append(metrics)
        last_tracer = tracer
    if not passes:
        raise BenchError("no traced pass of the workload completed")
    # counts repeat exactly across passes; median_low keeps them integers
    out = {
        name: (statistics.median_low if LAYER_UNITS[name] == "count" else statistics.median)(
            [p[name] for p in passes]
        )
        for name in passes[0]
    }
    out["setup.import_s"] = statistics.median(imports)
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    last_tracer.write(OUT / runner.wl.name / "trace.json")
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference crossing probabilities (JSON)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's run count (smoke tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        mods = import_package()
        with open(args.reference, encoding="utf-8") as handle:
            reference = json.load(handle)[wl.name]
        runs = max(1, round(wl.runs * args.scale))
        runner = Runner(mods, wl, args.seed, reference, runs)
        if args.trace:
            metrics, units = run_traced(runner, args.seconds), LAYER_UNITS
        else:
            metrics, units = run_end_to_end(runner, args.seconds), E2E_UNITS
    except (BenchError, OSError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
