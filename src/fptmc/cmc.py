"""Conventional fixed-step Monte Carlo baseline.

The horizon T is cut into N = ceil(T / dt) equal steps of T / N, none longer
than dt, and every run is advanced through every step: an Euler diffusion
increment, then (with probability rate T / N, shared across components like
the exact engine's jump clock) one normal jump per component, then a
barrier check at the grid time.  Crossing times are grid-aligned and carry
weight 1.  No sub-step bridge correction is applied: stepping over an
excursion is exactly the discretisation bias this baseline is expected to
show, and the reason it needs small dt.

Random numbers are drawn only for components that have not crossed: at the
start of every window of ``_COMPACT_EVERY`` steps the live runs are regrouped
by their set of live components, and a crossed component, whose value is
never read again and is set to +inf to mark it, is dropped.  A run with one
live component steps with its row norm of sigma, whatever m is.  Between
two regroupings a group draws the jump arrivals of the whole window at
once, one Bernoulli trial per (step, run) cell, as a binomial count and
then a uniform subset of the window's cells of that size (Glasserman 2004,
*Monte Carlo Methods in Financial Engineering*, section 3.5).

A step is the draw floor plus a few passes: normals into the window's
array, one scale by the factor pre-multiplied by sqrt(T / N), one add, the
step's slice of the window's jumps, and one barrier check into the
window's array, in which a crossed component's +inf never tests at or below
its level.  A group makes those arrays once per window at its live size,
so a block holds them only for the runs it still steps.  The state is
drift-free, u = x - mu t, checked against the level intercept + (slope - mu)
t, so the drift costs nothing per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bridge import _cells
from .model import ModelSpec
from .results import (
    KIND_INTERIOR,
    Crossings,
    EngineResult,
    collect_result,
    run_blocks,
)

__all__ = ["CmcConfig", "run_cmc", "simulate_block_cmc"]

# Steps between regroupings.  On a 65,536-run example2 block (dt = 1e-3) the
# normals drawn per one needed are 1.006, 1.013, 1.027, 1.055 and 1.119 at
# 8, 16, 32, 64 and 128 steps; block times at 16-64 were within noise of
# each other (-2% to +2% of 16's), and 8 and 128 were about 4% slower.
_COMPACT_EVERY = 16


@dataclass(frozen=True)
class CmcConfig:
    """Settings of one baseline execution.  ``dt`` is the longest step: a
    run takes ceil(T / dt) equal steps.  ``n_runs``, ``seed`` and
    ``workers`` are checked where they are used, in ``results``."""

    dt: float
    n_runs: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    def validate_for(self, spec: ModelSpec) -> None:
        if self.dt > spec.horizon:
            raise ValueError("dt must not exceed the horizon")
        if spec.jump_rate * self.dt >= 1.0:
            raise ValueError(
                f"dt = {self.dt} gives lambda * dt = {spec.jump_rate * self.dt}, "
                "which must be < 1 for per-step Bernoulli arrivals"
            )


def _step_grid(horizon: float, dt: float) -> np.ndarray:
    """Grid times of the ceil(horizon / dt) equal steps that reach the
    horizon, none longer than dt; where dt divides the horizon they are dt,
    2 dt, ..., horizon."""
    n = math.ceil(horizon / dt - 1e-9)
    return np.linspace(0.0, horizon, n + 1)[1:]


class _Group:
    """Live runs that share one set of live components, ``comps``, and a
    factor F of that set's block of sigma sigma^T, stepped in steps of
    length ``step``: their (k, n) drift-free ``state`` u = x - mu t, +inf
    for a component that has crossed, and ``run_ids``, the run each column
    is, both empty until the caller assigns them.  A step leaves
    +inf as it is and never finds it at or below the barrier, so a crossed
    cell needs no mask.

    Rows of the state are the group's components; per-component constants
    of shape (k, 1) broadcast along contiguous rows.  Since x = u + mu t, a
    cell crosses at grid time t when u <= intercept + (slope - mu) t, so a
    step adds no drift.  A diagonal F, which every single-component group
    and a diagonal sigma's full group have, is kept as its (k, 1) diagonal
    and scales the normals in place; any other F is applied with ``matmul``.
    Either is held pre-multiplied by sqrt(step), and a step's arrival
    probability is rate * step.
    """

    def __init__(self, spec: ModelSpec, comps: np.ndarray, factor: np.ndarray, step: float):
        self.comps = comps
        self.matmul = bool(np.any(factor != np.diag(np.diagonal(factor))))
        self.scaled = (factor if self.matmul else np.diagonal(factor)[:, None]) * math.sqrt(step)
        self.p_jump = spec.jump_rate * step
        self.icpt, self.jump_mean, self.jump_sd = (
            a[comps, None] for a in (spec.barrier_intercept, spec.jump_mean, spec.jump_sd)
        )
        self.level_slope = (spec.barrier_slope - spec.mu)[comps, None]
        self.state = np.empty((len(comps), 0))
        self.run_ids = np.empty(0, dtype=np.intp)

    def advance(self, rng, times: np.ndarray, out: Crossings) -> int:
        """Advance every run through the Euler steps that end at the grid
        times ``times``, recording the crossings at each in ``out``; returns
        the number of jumps."""
        n = len(self.run_ids)
        # one Bernoulli(rate step) arrival per (step, run) cell of the
        # window: their count, then which cells, a uniform subset of that
        # size, sorted so that each step's arrivals are one slice
        n_jumps = int(rng.binomial(len(times) * n, self.p_jump))
        cells = np.sort(rng.choice(len(times) * n, n_jumps, replace=False, shuffle=False))
        sizes = self.jump_mean + self.jump_sd * rng.standard_normal((len(self.comps), n_jumps))
        bounds = np.searchsorted(cells, n * np.arange(len(times) + 1)).tolist()
        jumped = cells % n
        # the step arrays of the window, at the group's live size: the
        # normals, the barrier check, and the increment, which for a
        # diagonal F is the scaled normals themselves
        z = np.empty(self.state.shape)
        hit = np.empty(self.state.shape, dtype=bool)
        dx = np.empty(self.state.shape) if self.matmul else z
        for j, t in enumerate(times):
            rng.standard_normal(out=z)
            if self.matmul:
                np.matmul(self.scaled, z, out=dx)
            else:
                z *= self.scaled
            self.state += dx
            lo, hi = bounds[j], bounds[j + 1]
            self.state[:, jumped[lo:hi]] += sizes[:, lo:hi]
            np.less_equal(self.state, self.icpt + self.level_slope * t, out=hit)
            if hit.any():
                rows, cols = _cells(hit)
                out.record(self.comps[rows], self.run_ids[cols], t, KIND_INTERIOR)
                self.state[rows, cols] = np.inf
        return n_jumps


def _regroup(full: _Group, singles: list[_Group]) -> None:
    """Move each run to the group of its live components: runs of ``full``
    with one finite component left go to that component's group in
    ``singles``, and runs with none left retire.  A crossed component's
    value, +inf, is never read again, so dropping it changes no run's law."""
    finite = full.state < np.inf
    live = finite.sum(axis=0)
    for i, group in enumerate(singles):
        keep = np.flatnonzero(group.state[0] < np.inf)
        moved = np.flatnonzero((live == 1) & finite[i])
        group.state = np.concatenate(
            (group.state.take(keep, axis=1), full.state[i : i + 1].take(moved, axis=1)), axis=1
        )
        group.run_ids = np.concatenate((group.run_ids.take(keep), full.run_ids.take(moved)))
    keep = np.flatnonzero(live > 1)
    full.state = full.state.take(keep, axis=1)
    full.run_ids = full.run_ids.take(keep)


def simulate_block_cmc(
    spec: ModelSpec,
    cfg: CmcConfig,
    rng: np.random.Generator,
    size: int,
    out: Crossings,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Simulate ``size`` discretised runs, recording their crossings in
    ``out``, the block's ``results.Crossings`` record of ``size`` runs, in
    which no component has crossed yet.  Returns its (times, weights, kinds)
    arrays of shape (m, size), plus the total number of jumps that occurred
    and the number of (component, run) cells stepped, one normal each.

    Live runs are held in at most m + 1 groups: the runs with two or more
    uncrossed components keep all m components and sigma, and the runs with
    only component i left hold that component alone, with the factor
    ||sigma_i||.  Runs move to the group of their live components at the
    start of each window of ``_COMPACT_EVERY`` steps.  The steps are the
    ceil(T / dt) equal steps of ``_step_grid``, so ``cfg.dt`` is the longest
    step the run may take."""
    m = spec.m
    grid = _step_grid(spec.horizon, cfg.dt)
    step = spec.horizon / len(grid)
    full = _Group(spec, np.arange(m), spec.sigma, step)
    full.state = np.repeat(spec.x0[:, None], size, axis=1)
    full.run_ids = np.arange(size)
    norms = spec.sigma_row_norms()
    singles = [_Group(spec, np.array([i]), norms[i : i + 1, None], step) for i in range(m)]
    groups = [full, *singles]

    # the runs stay in their groups for a window of steps between two
    # regroupings
    edges = [*range(0, len(grid), _COMPACT_EVERY), len(grid)]
    n_jumps = stepped = 0
    for k0, k1 in zip(edges, edges[1:]):
        _regroup(full, singles)
        if not any(len(g.run_ids) for g in groups):
            break
        for group in groups:
            if len(group.run_ids):
                stepped += (k1 - k0) * group.state.size
                n_jumps += group.advance(rng, grid[k0:k1], out)
    return (*out, n_jumps, stepped)


def _live_cells(times: np.ndarray, grid: np.ndarray) -> int:
    """The (component, run) cells a run must step, given its crossing times:
    each component up to its crossing step, or to the horizon if it never
    crossed (a NaN time sorts past the grid)."""
    return sum(int(np.minimum(np.searchsorted(grid, row) + 1, len(grid)).sum()) for row in times)


def run_cmc(spec: ModelSpec, cfg: CmcConfig) -> EngineResult:
    """Run the discretised baseline with the same reproducibility contract as
    the bridge-sampling engine (fixed blocks, per-block streams, each block
    recording its crossings in the columns it owns of the record that
    ``run_blocks`` makes and times).

    Its diagnostics count the work: ``total_jumps``, ``stepped_cells``, the
    normals drawn for the diffusion, and ``live_cells``, the ones needed,
    which ``stepped_cells`` exceeds by the crossed cells still stepped until
    the next regrouping."""
    cfg.validate_for(spec)
    hits, outputs, elapsed = run_blocks(
        spec.m, cfg.n_runs, cfg.seed, cfg.workers, partial(simulate_block_cmc, spec, cfg)
    )
    diagnostics = {
        "total_jumps": sum(o[3] for o in outputs),
        "stepped_cells": sum(o[4] for o in outputs),
        "live_cells": _live_cells(hits.times, _step_grid(spec.horizon, cfg.dt)),
    }
    return collect_result("cmc", cfg.seed, [hits], elapsed, diagnostics=diagnostics)
