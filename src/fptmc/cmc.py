"""Conventional fixed-step Monte Carlo baseline.

The horizon is discretised into steps of size dt and every run is advanced
through every step: an Euler diffusion increment, then (with probability
rate*dt, shared across components like the exact engine's jump clock) one
normal jump per component, then a barrier check at the grid time.  Crossing
times are grid-aligned and carry weight 1.  No sub-step bridge correction is
applied: stepping over an excursion is exactly the discretisation bias this
baseline is expected to show, and the reason it needs small dt.

Random numbers are drawn only for components that have not crossed: at the
start of every window of ``_COMPACT_EVERY`` steps the live runs are regrouped
by their set of live components, and a crossed component, whose value is
never read again, is dropped.  A run with one live component steps with its
row norm of sigma, whatever m is.  Between two regroupings a group draws the
jump arrivals of the whole window at once, one Bernoulli trial per (step,
run) cell, as a binomial count and then a uniform subset of the window's
cells of that size (Glasserman 2004, *Monte Carlo Methods in Financial
Engineering*, section 3.5).

A step is the draw floor plus a few passes: normals into a reused buffer,
one scale by the factor pre-multiplied by sqrt(dt_k), one add, the step's
slice of the window's jumps, and one masked barrier check into a reused
buffer.  The state is drift-free, u = x - mu t, checked against the level
intercept + (slope - mu) t, so the drift costs nothing per cell.  Step
buffers are flat arrays of each group's capacity, viewed at its current run
count, so regrouping allocates none of them: that is what lets a regrouping
every 16 steps pay, which draws about 1% more normals than the uncrossed
cells need where 128 steps drew 12%.
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
    """Settings of one baseline execution.  ``n_runs``, ``seed`` and
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


def _step_grid(horizon: float, dt: float) -> tuple[np.ndarray, float]:
    """Grid times dt, 2 dt, ..., horizon, and the length of the last step:
    every step is dt long but the last, which is shortened when dt does not
    divide the horizon."""
    n_full = int(math.floor(horizon / dt + 1e-9))
    grid = dt * np.arange(1, n_full + 1)
    if n_full == 0 or grid[-1] < horizon - 1e-12 * horizon:
        last = horizon - (grid[-1] if n_full else 0.0)
        return np.append(grid, horizon), float(last)
    grid[-1] = min(grid[-1], horizon)
    return grid, dt


class _Group:
    """Live runs that share one set of live components, ``comps``, and a
    factor F of that set's block of sigma sigma^T: their (k, n) drift-free
    state u = x - mu t, which components of it are still uncrossed, and the
    run each column is.

    Rows of the state are the group's components; per-component constants
    of shape (k, 1) broadcast along contiguous rows.  Since x = u + mu t, a
    cell crosses at grid time t when u <= intercept + (slope - mu) t, so a
    step adds no drift.  A diagonal F, which every single-component group
    and a diagonal sigma's full group have, is kept as its (k, 1) diagonal
    and scales the normals in place; any other F is applied with ``matmul``.
    """

    def __init__(self, spec: ModelSpec, comps: np.ndarray, factor: np.ndarray, capacity: int):
        self.comps = comps
        self.matmul = bool(np.any(factor != np.diag(np.diagonal(factor))))
        self.factor = factor if self.matmul else np.diagonal(factor)[:, None]
        self.icpt, self.jump_mean, self.jump_sd = (
            a[comps, None] for a in (spec.barrier_intercept, spec.jump_mean, spec.jump_sd)
        )
        self.level_slope = (spec.barrier_slope - spec.mu)[comps, None]
        # flat step buffers for ``capacity`` runs, the most a group ever
        # holds: the normals, the increment of a non-diagonal F, and the
        # barrier check
        cells = len(comps) * capacity
        self.z_buf = np.empty(cells)
        self.dx_buf = np.empty(cells if self.matmul else 0)
        self.hit_buf = np.empty(cells, dtype=bool)
        self.hold(np.empty((len(comps), 0)), np.empty(0, dtype=np.intp))

    def hold(self, state: np.ndarray, run_ids: np.ndarray, alive=None) -> None:
        """Make these runs the group's runs; ``alive`` marks their uncrossed
        components, all of them when it is None.

        A step writes its normals, increment and barrier check into views of
        the group's flat buffers, ``buf[:k * n].reshape(k, n)``: contiguous
        for every n, as ``standard_normal(out=)`` requires, so a regrouping
        allocates no step buffer."""
        self.state = state
        self.run_ids = run_ids
        self.alive = np.ones(state.shape, dtype=bool) if alive is None else alive
        self.z = self.z_buf[: state.size].reshape(state.shape)
        self.hit = self.hit_buf[: state.size].reshape(state.shape)
        if self.matmul:
            self.dx = self.dx_buf[: state.size].reshape(state.shape)

    def advance(self, rng, times: np.ndarray, dt_k: float, rate: float, out: Crossings) -> int:
        """Advance every run through the Euler steps of length ``dt_k`` that
        end at the grid times ``times``, recording the crossings at each in
        ``out``; returns the number of jumps."""
        n = len(self.run_ids)
        scaled = self.factor * math.sqrt(dt_k)
        # one Bernoulli(rate dt_k) arrival per (step, run) cell of the
        # window: their count, then which cells, a uniform subset of that
        # size, sorted so that each step's arrivals are one slice
        n_jumps = int(rng.binomial(len(times) * n, rate * dt_k))
        cells = np.sort(rng.choice(len(times) * n, n_jumps, replace=False, shuffle=False))
        sizes = self.jump_mean + self.jump_sd * rng.standard_normal((len(self.comps), n_jumps))
        bounds = np.searchsorted(cells, n * np.arange(len(times) + 1)).tolist()
        jumped = cells % n
        for j, t in enumerate(times):
            rng.standard_normal(out=self.z)
            if self.matmul:
                np.matmul(scaled, self.z, out=self.dx)
                self.state += self.dx
            else:
                self.z *= scaled
                self.state += self.z
            lo, hi = bounds[j], bounds[j + 1]
            self.state[:, jumped[lo:hi]] += sizes[:, lo:hi]
            np.less_equal(self.state, self.icpt + self.level_slope * t, out=self.hit)
            self.hit &= self.alive
            if self.hit.any():
                rows, cols = _cells(self.hit)
                out.record(self.comps[rows], self.run_ids[cols], t, KIND_INTERIOR)
                self.alive[rows, cols] = False
        return n_jumps


def _regroup(full: _Group, singles: list[_Group]) -> None:
    """Move each run to the group of its live components: runs of ``full``
    with one uncrossed component left go to that component's group in
    ``singles``, and runs with none left retire.  A crossed component's
    value is never read again, so dropping it changes no run's law."""
    live = full.alive.sum(axis=0)
    for i, group in enumerate(singles):
        keep = np.flatnonzero(group.alive[0])
        moved = np.flatnonzero((live == 1) & full.alive[i])
        group.hold(
            np.concatenate(
                (group.state.take(keep, axis=1), full.state[i : i + 1].take(moved, axis=1)),
                axis=1,
            ),
            np.concatenate((group.run_ids.take(keep), full.run_ids.take(moved))),
        )
    keep = np.flatnonzero(live > 1)
    full.hold(
        full.state.take(keep, axis=1),
        full.run_ids.take(keep),
        full.alive.take(keep, axis=1),
    )


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
    start of each window of ``_COMPACT_EVERY`` steps, and of a shortened last
    step."""
    m = spec.m
    full = _Group(spec, np.arange(m), spec.sigma, capacity=size)
    full.hold(np.repeat(spec.x0[:, None], size, axis=1), np.arange(size))
    norms = spec.sigma_row_norms()
    singles = [
        _Group(spec, np.array([i]), norms[i : i + 1, None], capacity=size) for i in range(m)
    ]
    groups = [full, *singles]
    grid, dt_last = _step_grid(spec.horizon, cfg.dt)

    # the runs stay in their groups for a window of steps between two
    # regroupings; a shortened last step is a window of its own, so that
    # every window has one step length
    n_even = len(grid) - (dt_last != cfg.dt)
    edges = sorted({*range(0, n_even, _COMPACT_EVERY), n_even, len(grid)})
    n_jumps = stepped = 0
    for k0, k1 in zip(edges, edges[1:]):
        _regroup(full, singles)
        if not any(len(g.run_ids) for g in groups):
            break
        dt_k = cfg.dt if k1 <= n_even else dt_last
        for group in groups:
            if len(group.run_ids):
                stepped += (k1 - k0) * group.state.size
                n_jumps += group.advance(rng, grid[k0:k1], dt_k, spec.jump_rate, out)
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
        "live_cells": _live_cells(hits.times, _step_grid(spec.horizon, cfg.dt)[0]),
    }
    return collect_result("cmc", cfg.seed, [hits], elapsed, diagnostics=diagnostics)
