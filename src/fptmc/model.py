"""Problem specification for a constant-coefficient multivariate
jump-diffusion.

The process is  dX = mu dt + sigma dW + dZ  with a shared Poisson clock of rate
``jump_rate`` driving jumps in every component and per-component normal jump
sizes.  Each component X_i is watched against its own affine barrier
D_i(t) = intercept_i + slope_i * t on the horizon [0, T]; a run ends for a
component the first time it touches or falls below its barrier.

Paths are simulated by the engines (``unif`` and ``cmc``), which read the
spec's arrays directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LinearBarrier", "ModelSpec", "effective_sigma"]


@dataclass(frozen=True)
class LinearBarrier:
    """Affine threshold D(t) = intercept + slope * t."""

    intercept: float
    slope: float

    def __post_init__(self):
        if not (np.isfinite(self.intercept) and np.isfinite(self.slope)):
            raise ValueError("barrier intercept and slope must be finite")


def _as_readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Full problem definition for one experiment.

    Parameters
    ----------
    m : int
        Number of processes.
    x0 : array (m,)
        Initial values; each must start strictly above its barrier at t = 0.
    mu : array (m,)
        Constant drift per unit time.
    sigma : array (m, m)
        Diffusion coefficient matrix; row i drives component i through a
        shared vector of independent Brownian motions.
    jump_rate : float
        Poisson arrival rate of the shared jump clock (>= 0).
    jump_mean, jump_sd : array (m,)
        Normal jump-size mean and standard deviation per component.
    barriers : sequence of LinearBarrier, length m.
    horizon : float
        Terminal time T > 0.
    """

    m: int
    x0: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    jump_rate: float
    jump_mean: np.ndarray
    jump_sd: np.ndarray
    barriers: tuple[LinearBarrier, ...] = field(default=())
    horizon: float = 1.0

    def __post_init__(self):
        m = int(self.m)
        if m < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "m", m)
        for name in ("x0", "mu", "jump_mean", "jump_sd"):
            arr = _as_readonly(getattr(self, name))
            if arr.shape != (m,):
                raise ValueError(f"{name} must have shape ({m},), got {arr.shape}")
            object.__setattr__(self, name, arr)
        sigma = _as_readonly(self.sigma)
        if sigma.shape != (m, m):
            raise ValueError(f"sigma must have shape ({m}, {m}), got {sigma.shape}")
        object.__setattr__(self, "sigma", sigma)
        for name in ("x0", "mu", "sigma", "jump_mean", "jump_sd", "jump_rate", "horizon"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        barriers = tuple(self.barriers)
        if len(barriers) != m:
            raise ValueError(f"expected {m} barriers, got {len(barriers)}")
        object.__setattr__(self, "barriers", barriers)
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.jump_rate < 0:
            raise ValueError("jump_rate must be >= 0")
        if np.any(self.jump_sd < 0):
            raise ValueError("jump_sd entries must be >= 0")
        d0 = self.barrier_values(0.0)
        if np.any(self.x0 <= d0):
            bad = int(np.argmax(self.x0 <= d0))
            raise ValueError(
                f"x0[{bad}] = {self.x0[bad]} is not above its barrier at t = 0 "
                f"(D = {d0[bad]})"
            )

    def barrier_values(self, t: float) -> np.ndarray:
        """Vector of barrier levels at scalar time t, shape (m,)."""
        icpt, slope = self.barrier_arrays()
        return icpt + slope * float(t)

    def barrier_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(intercepts, slopes) as (m,) arrays, for vectorised evaluation."""
        return (
            np.array([b.intercept for b in self.barriers]),
            np.array([b.slope for b in self.barriers]),
        )

    def effective_sigmas(self) -> np.ndarray:
        """Per-component volatility of the aggregated Brownian driver.

        Raises for any all-zero row: downstream bridge formulas divide by it.
        """
        return np.array([effective_sigma(self.sigma, i) for i in range(self.m)])


def effective_sigma(sigma: np.ndarray, i: int) -> float:
    """Volatility of component i once its Brownian drivers are aggregated:
    the Euclidean norm of row i of the diffusion matrix.
    """
    row = np.asarray(sigma, dtype=float)[i]
    out = float(np.sqrt(np.sum(row * row)))
    if out == 0.0:
        raise ValueError(f"sigma has a degenerate diffusion row {i}: all entries are zero")
    return out
