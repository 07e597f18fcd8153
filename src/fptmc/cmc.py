"""Conventional fixed-step Monte Carlo baseline.

The horizon is discretised into steps of size dt and every run is advanced
through every step: an Euler diffusion increment, then (with probability
rate*dt, shared across components like the exact engine's jump clock) one
normal jump per component, then a barrier check at the grid time.  Crossing
times are grid-aligned and carry weight 1.  No sub-step bridge correction is
applied: stepping over an excursion is exactly the discretisation bias this
baseline is expected to show, and the reason it needs small dt.

Random numbers are drawn only for components that have not crossed: every
``_COMPACT_EVERY`` steps the live runs are regrouped by their set of live
components, and a crossed component, whose value is never read again, is
dropped.  A group draws a step's jump arrivals as a binomial count and then
a uniform subset of its runs of that size, the law of one Bernoulli trial
per run (Glasserman 2004, *Monte Carlo Methods in Financial Engineering*,
section 3.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

_COMPACT_EVERY = 128


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


class _Group:
    """Live runs that share one set of live components, ``comps``, and a
    factor F of that set's block of sigma sigma^T: their (k, n) state, which
    components of it are still uncrossed, and the run each column is.

    Rows of the state are the group's components; per-component constants
    of shape (k, 1) broadcast along contiguous rows."""

    def __init__(self, spec: ModelSpec, comps: np.ndarray, factor: np.ndarray):
        self.comps = comps
        self.factor = factor
        self.mu, self.icpt, self.slope, self.jump_mean, self.jump_sd = (
            a[comps, None]
            for a in (
                spec.mu,
                spec.barrier_intercept,
                spec.barrier_slope,
                spec.jump_mean,
                spec.jump_sd,
            )
        )
        self.hold(np.empty((len(comps), 0)), np.empty(0, dtype=np.intp))

    def hold(self, state: np.ndarray, run_ids: np.ndarray, alive=None) -> None:
        """Make these runs the group's runs; ``alive`` marks their uncrossed
        components, all of them when it is None."""
        self.state = state
        self.run_ids = run_ids
        self.alive = np.ones(state.shape, dtype=bool) if alive is None else alive
        # the step's draws and increment reuse two buffers, reallocated only
        # when the runs change: a fresh temporary per step costs more than
        # the arithmetic done in it
        self.z = np.empty_like(state)
        self.dx = np.empty_like(state)

    def step(self, rng, t: float, dt_k: float, rate: float, out: Crossings) -> int:
        """Advance every run through one Euler step ending at grid time
        ``t``, record the crossings at ``t`` in ``out``; returns the number
        of jumps."""
        n = len(self.run_ids)
        rng.standard_normal(out=self.z)
        np.matmul(self.factor, self.z, out=self.dx)
        self.dx *= math.sqrt(dt_k)
        self.dx += self.mu * dt_k
        self.state += self.dx
        n_jumps = 0
        if rate > 0:
            # n Bernoulli(rate dt_k) arrivals: their count, then which runs,
            # a uniform subset of that size
            n_jumps = int(rng.binomial(n, rate * dt_k))
            if n_jumps:
                jumped = rng.choice(n, n_jumps, replace=False, shuffle=False)
                zj = rng.standard_normal((len(self.comps), n_jumps))
                self.state[:, jumped] += self.jump_mean + self.jump_sd * zj
        newly = self.alive & (self.state <= self.icpt + self.slope * t)
        if newly.any():
            rows, cols = _cells(newly)
            out.record(self.comps[rows], self.run_ids[cols], t, KIND_INTERIOR)
            self.alive &= ~newly
        return n_jumps


def _regroup(full: _Group, singles: list[_Group]) -> None:
    """Move each run to the group of its live components: runs of ``full``
    with one uncrossed component left go to that component's group in
    ``singles``, and runs with none left retire.  With no ``singles``
    (m = 1) a run stays while it has a live component.  A crossed
    component's value is never read again, so dropping it changes no run's
    law."""
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
    keep = np.flatnonzero(live > (1 if singles else 0))
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Simulate ``size`` discretised runs, recording their crossings in
    ``out``, the block's ``results.Crossings`` record of ``size`` runs set to
    "never crossed" (``Crossings.columns`` of a job's record).  Returns its
    (times, weights, kinds) arrays of shape (m, size), plus the total number
    of jumps that occurred.

    Live runs are held in at most m + 1 groups: the runs with two or more
    uncrossed components keep all m components and sigma, and the runs with
    only component i left hold that component alone, with the factor
    ||sigma_i||.  Runs move between groups every ``_COMPACT_EVERY`` steps."""
    m = spec.m
    full = _Group(spec, np.arange(m), spec.sigma)
    full.hold(np.repeat(spec.x0[:, None], size, axis=1), np.arange(size))
    # with m = 1 the full group is the group of its one component
    norms = spec.sigma_row_norms()
    singles = [] if m == 1 else [
        _Group(spec, np.array([i]), norms[i : i + 1, None]) for i in range(m)
    ]
    groups = [full, *singles]
    grid = _step_grid(spec.horizon, cfg.dt)

    n_jumps = 0
    t_prev = 0.0
    for k, t in enumerate(grid, start=1):
        dt_k = t - t_prev
        t_prev = t
        for group in groups:
            if len(group.run_ids):
                n_jumps += group.step(rng, t, dt_k, spec.jump_rate, out)
        if k % _COMPACT_EVERY == 0:
            _regroup(full, singles)
            if not any(len(g.run_ids) for g in groups):
                break
    return (*out, n_jumps)


def run_cmc(spec: ModelSpec, cfg: CmcConfig) -> EngineResult:
    """Run the discretised baseline with the same reproducibility contract as
    the bridge-sampling engine (fixed blocks, per-block streams, each block
    recording its crossings in the columns it owns of one record)."""
    cfg.validate_for(spec)

    def simulate(rng: np.random.Generator, size: int, out: Crossings):
        return simulate_block_cmc(spec, cfg, rng, size, out=out)

    hits = Crossings.empty(spec.m, cfg.n_runs)
    outputs, elapsed = run_blocks(cfg.n_runs, cfg.seed, cfg.workers, simulate, out=hits)
    total_jumps = sum(o[3] for o in outputs)
    return collect_result(
        "cmc", cfg.seed, [hits], elapsed, diagnostics={"total_jumps": total_jumps}
    )
