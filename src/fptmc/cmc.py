"""Conventional fixed-step Monte Carlo baseline.

The horizon is discretised into steps of size dt and the full state vector is
advanced through every step: an Euler diffusion increment, then (with
probability rate*dt, shared across components like the exact engine's jump
clock) one normal jump per component, then a barrier check at the grid time.
Crossing times are grid-aligned and carry weight 1.  No sub-step bridge
correction is applied: stepping over an excursion is exactly the
discretisation bias this baseline is expected to show, and the reason it
needs small dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import _cells
from .model import ModelSpec
from .results import (
    KIND_INTERIOR,
    EngineResult,
    block_hits,
    collect_result,
    empty_hits,
    run_blocks,
)

__all__ = ["CmcConfig", "run_cmc", "simulate_block_cmc"]

_COMPACT_EVERY = 128


@dataclass(frozen=True)
class CmcConfig:
    """Settings of one baseline execution.  ``n_runs``, ``seed`` and
    ``workers`` are checked where they are used, by ``results.run_blocks``."""

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
    """Grid times dt, 2 dt, ..., horizon; the last step is shortened when dt
    does not divide the horizon."""
    n_full = int(math.floor(horizon / dt + 1e-9))
    grid = dt * np.arange(1, n_full + 1)
    if n_full == 0 or grid[-1] < horizon - 1e-12 * horizon:
        grid = np.append(grid, horizon)
    else:
        grid[-1] = min(grid[-1], horizon)
    return grid


def simulate_block_cmc(
    spec: ModelSpec,
    cfg: CmcConfig,
    rng: np.random.Generator,
    size: int,
    out: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Simulate ``size`` discretised runs; returns (times, weights, kinds)
    of shape (m, size), written into ``out`` (views of the block's columns
    of a job's result, or ``results.empty_hits(m, size)``), plus the total
    number of jumps that occurred.

    The state is component-major: row i of the (m, n) arrays is component i
    of the n active runs, so per-component constants of shape (m, 1)
    broadcast along contiguous rows."""
    m = spec.m
    sigma = spec.sigma
    icpt, slope = spec.barrier_intercept, spec.barrier_slope
    mu, icpt, slope, jump_mean, jump_sd = (
        a[:, None] for a in (spec.mu, icpt, slope, spec.jump_mean, spec.jump_sd)
    )
    grid = _step_grid(spec.horizon, cfg.dt)

    state = np.repeat(spec.x0[:, None], size, axis=1)
    alive = np.ones((m, size), dtype=bool)
    hit_t, hit_w, hit_k = block_hits(out)
    run_ids = np.arange(size)
    n_jumps = 0

    # the step's draws and increment reuse two buffers, reallocated only when
    # the state is compacted: a fresh block-sized temporary per step costs
    # more than the arithmetic done in it
    z = np.empty_like(state)
    dx = np.empty_like(state)
    t_prev = 0.0
    for k, t in enumerate(grid, start=1):
        dt_k = t - t_prev
        t_prev = t
        n_active = state.shape[1]
        rng.standard_normal(out=z)
        np.matmul(sigma, z, out=dx)
        dx *= math.sqrt(dt_k)
        dx += mu * dt_k
        state += dx
        if spec.jump_rate > 0:
            jumped = np.flatnonzero(rng.random(n_active) < spec.jump_rate * dt_k)
            if len(jumped):
                zj = rng.standard_normal((m, len(jumped)))
                state[:, jumped] += jump_mean + jump_sd * zj
                n_jumps += len(jumped)
        level = icpt + slope * t
        newly = alive & (state <= level)
        if newly.any():
            comps, cols = _cells(newly)
            cells = (comps, run_ids[cols])
            hit_t[cells] = t
            hit_w[cells] = 1.0
            hit_k[cells] = KIND_INTERIOR
            alive &= ~newly
        if k % _COMPACT_EVERY == 0:
            keep = np.flatnonzero(alive.any(axis=0))
            if len(keep) < n_active:
                state = state.take(keep, axis=1)
                alive = alive.take(keep, axis=1)
                run_ids = run_ids.take(keep)
                if len(keep) == 0:
                    break
                z = np.empty_like(state)
                dx = np.empty_like(state)
    return hit_t, hit_w, hit_k, n_jumps


def run_cmc(spec: ModelSpec, cfg: CmcConfig) -> EngineResult:
    """Run the discretised baseline with the same reproducibility contract as
    the bridge-sampling engine (fixed blocks, per-block streams, each block
    writing the columns it owns of one result)."""
    cfg.validate_for(spec)

    def simulate(rng: np.random.Generator, size: int, out: tuple):
        return simulate_block_cmc(spec, cfg, rng, size, out=out)

    hits = empty_hits(spec.m, cfg.n_runs)
    outputs, elapsed = run_blocks(cfg.n_runs, cfg.seed, cfg.workers, simulate, out=hits)
    total_jumps = sum(o[3] for o in outputs)
    return collect_result(
        "cmc",
        cfg.seed,
        [hits],
        elapsed,
        diagnostics={"total_jumps": total_jumps, "dt": cfg.dt},
    )
