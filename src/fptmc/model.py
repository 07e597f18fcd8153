"""Problem specification for a constant-coefficient multivariate
jump-diffusion.

The process is  dX = mu dt + sigma dW + dZ  with a shared Poisson clock of rate
``jump_rate`` driving jumps in every component and per-component normal jump
sizes.  Each component X_i is watched against its own affine barrier
D_i(t) = barrier_intercept_i + barrier_slope_i * t on the horizon [0, T]; a
run ends for a component the first time it touches or falls below its
barrier.

``ModelSpec`` is the one representation of a model and the one place its
values are checked: a configuration builds one and reads its values back
from it.  Paths are simulated by the engines (``unif`` and ``cmc``), which
read the spec's arrays directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ModelSpec"]

_VECTORS = ("x0", "mu", "jump_mean", "jump_sd", "barrier_intercept", "barrier_slope")


def _is_number(value) -> bool:
    """An int or a float, Python's or NumPy's; a bool is not a number here."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    )


def _is_finite(value) -> bool:
    """A number whose float value is finite."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _finite(name: str, value) -> float:
    if not _is_finite(value):
        raise ValueError(f"{name} must be a finite number")
    return float(value)


def _integer(name: str, value, minimum: int) -> int:
    """An int, Python's or NumPy's but not a bool, of at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")
    return int(value)


def _vector(name: str, value, m: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)) or not all(map(_is_number, value)):
        raise ValueError(f"{name} must be a list of numbers")
    if len(value) != m:
        raise ValueError(
            f"{name} has {len(value)} entries, expected m = {m} (dimension mismatch)"
        )
    if not all(map(_is_finite, value)):
        raise ValueError(f"{name} entries must be finite")
    return np.array(value, dtype=float)


def _matrix(name: str, value, m: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if (
        not isinstance(value, (list, tuple))
        or len(value) != m
        or any(not isinstance(row, (list, tuple)) or len(row) != m for row in value)
    ):
        raise ValueError(f"{name} must be an {m} x {m} matrix (dimension mismatch)")
    if not all(_is_finite(v) for row in value for v in row):
        raise ValueError(f"{name} entries must be finite numbers")
    return np.array(value, dtype=float)


@dataclass(frozen=True)
class ModelSpec:
    """Full problem definition for one experiment, checked on construction.

    A ``ValueError`` starts with the field it is about.  The vectors and
    ``sigma`` are stored as read-only float arrays.

    Parameters
    ----------
    m : int
        Number of processes, at least 1.
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
        Normal jump-size mean and standard deviation (>= 0) per component.
    barrier_intercept, barrier_slope : array (m,)
        Component i's barrier is D_i(t) = barrier_intercept[i] +
        barrier_slope[i] * t.
    horizon : float
        Terminal time T > 0.

    Every entry must be a finite number.
    """

    m: int
    x0: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    jump_rate: float
    jump_mean: np.ndarray
    jump_sd: np.ndarray
    barrier_intercept: np.ndarray
    barrier_slope: np.ndarray
    horizon: float = 1.0

    def __post_init__(self):
        m = _integer("m", self.m, 1)
        checked = {"m": m}
        for name in _VECTORS:
            checked[name] = _vector(name, getattr(self, name), m)
        checked["sigma"] = _matrix("sigma", self.sigma, m)
        for name in ("jump_rate", "horizon"):
            checked[name] = _finite(name, getattr(self, name))
        for name, value in checked.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.jump_rate < 0:
            raise ValueError("jump_rate must be >= 0")
        if np.any(self.jump_sd < 0):
            raise ValueError("jump_sd entries must be >= 0")
        below = self.x0 <= self.barrier_intercept
        if below.any():
            bad = int(np.argmax(below))
            raise ValueError(
                f"x0[{bad}] = {self.x0[bad]} is not above its barrier at t = 0 "
                f"(D = {self.barrier_intercept[bad]})"
            )

    def sigma_row_norms(self) -> np.ndarray:
        """Per-component volatility of the aggregated Brownian driver: the
        Euclidean norm of each row of ``sigma``, 0 for an all-zero row."""
        return np.sqrt(np.sum(self.sigma * self.sigma, axis=1))

    def effective_sigmas(self) -> np.ndarray:
        """``sigma_row_norms()`` for the bridge engine, which divides by them.

        Raises for any all-zero row.  The baseline accepts such a row, so
        construction does not check it.
        """
        out = self.sigma_row_norms()
        if not out.all():
            i = int(np.argmin(out))
            raise ValueError(f"sigma has a degenerate diffusion row {i}: all entries are zero")
        return out
