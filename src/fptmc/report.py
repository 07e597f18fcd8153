"""Experiment orchestration and reporting.

``run_experiment`` executes the engines requested by a configuration, writes
the density tables and a report file, and returns the comparison numbers.

File formats
------------
Density tables are comma-separated UTF-8 with LF line endings and
full-precision floats (``repr``, so values round-trip exactly):

* marginal: header ``# t,density`` then one ``t,value`` row per grid point,
  written to ``<engine>_marginal_<i>.csv`` (components numbered from 1);
* joint (two components): header ``# t1,t2,density`` then one row per grid
  node, t1-major, written to ``<engine>_joint.csv``.

``report.txt`` carries a human-readable table followed by a machine-readable
``[values]`` block of ``key = value`` lines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cmc import CmcConfig, run_cmc
from .config import ExperimentConfig
from .kde import DensityEstimate
from .results import estimate_densities
from .unif import run_engine

__all__ = [
    "ComparisonReport",
    "normalized_l1",
    "emit_density_csv",
    "run_experiment",
    "format_report",
]


def normalized_l1(values_a, values_b, grid) -> float:
    """L1 distance between two densities on a common grid, normalised by the
    average of their masses (0 for two identically-zero densities)."""
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    grid = np.asarray(grid, dtype=float)
    diff = float(np.trapezoid(np.abs(a - b), grid))
    denom = 0.5 * float(np.trapezoid(a, grid) + np.trapezoid(b, grid))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom


def emit_density_csv(estimate: DensityEstimate, path: str) -> None:
    """Write a density estimate in the documented CSV format.

    The file is written one t1 row of grid nodes at a time, so the text
    held at once is one row's whatever the grid size; a marginal is the
    case of one row, whose label is empty, so it is written at once."""
    joint = isinstance(estimate.grid, tuple)
    if joint and len(estimate.grid) != 2:
        raise ValueError("CSV output supports 1-D and 2-D estimates only")
    # each axis value is formatted once, not once per row it appears in
    axes = estimate.grid if joint else [estimate.grid]
    labels = [[repr(t) + "," for t in np.asarray(g, dtype=float).tolist()] for g in axes]
    rows, cols = labels if joint else ([""], labels[0])
    values = np.asarray(estimate.values, dtype=float).reshape(len(rows), len(cols))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# t1,t2,density\n" if joint else "# t,density\n")
        for prefix, row in zip(rows, values):
            handle.write("".join([f"{prefix}{col}{v!r}\n" for col, v in zip(cols, row.tolist())]))


@dataclass
class ComparisonReport:
    """Per-engine bandwidths, timings and crossing probabilities, plus the
    cross-engine comparison when both engines ran."""

    engines: list[str]
    n_runs: int
    seed: int
    dt: Optional[float]
    h_opt: dict = field(default_factory=dict)          # engine -> [h per component]
    seconds_per_run: dict = field(default_factory=dict)
    crossing_prob: dict = field(default_factory=dict)  # engine -> [p per component]
    counts: dict = field(default_factory=dict)         # engine -> {diagnostic: count}
    joint_mass: dict = field(default_factory=dict)
    speedup: Optional[float] = None                    # cmc time / unif time
    l1_distance: Optional[list[float]] = None          # unif vs cmc per component


def format_report(report: ComparisonReport) -> str:
    m = len(next(iter(report.h_opt.values()))) if report.h_opt else 0
    lines = [
        "first-passage-time experiment report",
        "====================================",
        f"engines: {', '.join(report.engines)}",
        f"runs: {report.n_runs}",
        f"seed: {report.seed}",
    ]
    if report.dt is not None and "cmc" in report.engines:
        lines.append(f"cmc dt: {report.dt}")
    lines.append("")
    header = "engine    " + "".join(f"  h_opt(X{i+1})" for i in range(m))
    header += "  time/run [s]" + "".join(f"  P(cross X{i+1})" for i in range(m))
    lines.append(header)
    for eng in report.engines:
        row = f"{eng:<10}"
        row += "".join(f"  {h:>9.6f}" for h in report.h_opt[eng])
        row += f"  {report.seconds_per_run[eng]:>12.3e}"
        row += "".join(f"  {p:>11.6f}" for p in report.crossing_prob[eng])
        lines.append(row)
    lines.append("")
    if report.speedup is not None:
        lines.append(f"speedup (cmc/unif time per run): {report.speedup:.2f}")
    if report.l1_distance is not None:
        pretty = ", ".join(
            f"X{i+1} {v:.4f}" for i, v in enumerate(report.l1_distance)
        )
        lines.append(f"normalized L1 between engines: {pretty}")
    lines.append("")
    lines.append("[values]")
    for eng in report.engines:
        for i, h in enumerate(report.h_opt[eng]):
            lines.append(f"{eng}.h_opt.{i+1} = {repr(h)}")
        lines.append(f"{eng}.seconds_per_run = {repr(report.seconds_per_run[eng])}")
        for i, p in enumerate(report.crossing_prob[eng]):
            lines.append(f"{eng}.crossing_prob.{i+1} = {repr(p)}")
        if eng in report.joint_mass:
            lines.append(f"{eng}.joint_mass = {repr(report.joint_mass[eng])}")
        for name, count in report.counts[eng].items():
            lines.append(f"{eng}.{name} = {count!r}")
    if report.speedup is not None:
        lines.append(f"speedup = {repr(report.speedup)}")
    if report.l1_distance is not None:
        for i, v in enumerate(report.l1_distance):
            lines.append(f"l1.{i+1} = {repr(v)}")
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig) -> ComparisonReport:
    """Run the configured engines, write density files and the report.

    Timing comes from each engine's run loop only; density estimation and
    file output are excluded, and the speedup is the exact ratio of the two
    recorded per-run times.
    """
    spec = cfg.to_model_spec()
    grid = np.linspace(0.0, spec.horizon, cfg.grid_1d)
    # the joint is estimated for two components only: its CSV is 2-D
    joint_axis = np.linspace(0.0, spec.horizon, cfg.grid_2d)
    joint_grid = (joint_axis, joint_axis) if spec.m == 2 else None

    report = ComparisonReport(
        engines=list(cfg.engines), n_runs=cfg.runs, seed=cfg.seed, dt=cfg.dt
    )

    os.makedirs(cfg.out, exist_ok=True)
    density_values: dict[str, list[np.ndarray]] = {}
    for eng in cfg.engines:
        if eng == "unif":
            result = run_engine(spec, cfg.runs, seed=cfg.seed, workers=cfg.workers)
        else:
            result = run_cmc(
                spec,
                CmcConfig(dt=cfg.dt, n_runs=cfg.runs, seed=cfg.seed, workers=cfg.workers),
            )
        marginals, joint = estimate_densities(result, grid, joint_grid)
        report.h_opt[eng] = [float(est.bandwidth) for est in marginals]
        report.seconds_per_run[eng] = float(result.seconds_per_run)
        report.crossing_prob[eng] = [float(p) for p in result.crossing_probabilities()]
        report.counts[eng] = dict(result.diagnostics)
        density_values[eng] = [est.values for est in marginals]
        for i, est in enumerate(marginals):
            emit_density_csv(est, os.path.join(cfg.out, f"{eng}_marginal_{i+1}.csv"))
        if joint is not None:
            report.joint_mass[eng] = joint.total_mass
            emit_density_csv(joint, os.path.join(cfg.out, f"{eng}_joint.csv"))

    if "unif" in cfg.engines and "cmc" in cfg.engines:
        report.speedup = (
            report.seconds_per_run["cmc"] / report.seconds_per_run["unif"]
        )
        report.l1_distance = [
            normalized_l1(density_values["unif"][i], density_values["cmc"][i], grid)
            for i in range(spec.m)
        ]

    with open(os.path.join(cfg.out, "report.txt"), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_report(report))
    return report
