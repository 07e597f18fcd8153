"""Exact crossing mathematics for one interjump interval, on whole arrays.

Between two consecutive jumps the diffusion, conditioned on its simulated
endpoint values, is a Brownian bridge.  With the barrier held at a constant
level over the interval, this module provides, elementwise:

* ``survival_array``: the probability that the bridge stays above the level
  for the whole interval (drift-free by bridge conditioning);
* ``fpt_density_array``: the conditional first-crossing-time density on the
  open interval, which integrates to one minus that survival probability;
* ``uniform_candidates``: the paper's uniform candidate, which turns one
  uniform per (run, component) cell into either "no interior crossing" or a
  crossing time with an importance weight.

The bridge-sampling engine calls these kernels directly; they are the only
implementation of the formulas.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SURVIVAL_SHORTCUT",
    "survival_array",
    "fpt_density_array",
    "uniform_candidates",
]

# Survival this close to 1 is treated as certain survival: the candidate
# stretch tau / (1 - P) would otherwise overflow.
SURVIVAL_SHORTCUT = 1e-12


def survival_array(x_start, x_end, level, tau, sigma):
    """Probability the bridge stays above ``level``, elementwise.

    Zero whenever the right endpoint is at or below the level; caller
    guarantees x_start > level.
    """
    x_start, x_end, level, tau, sigma = np.broadcast_arrays(
        x_start, x_end, level, tau, sigma
    )
    expo = -2.0 * (x_start - level) * (x_end - level) / (tau * np.square(sigma))
    p = -np.expm1(expo)
    return np.where(x_end > level, np.clip(p, 0.0, 1.0), 0.0)


def fpt_density_array(t, x_start, x_end, level, t_start, t_end, sigma):
    """Interior first-crossing-time density g(t), elementwise.

    Valid strictly inside (t_start, t_end); the prefactors are singular at
    the endpoints.  The drift does not enter: conditioning on both endpoints
    cancels it.
    """
    (t, x_start, x_end, level, t_start, t_end, sigma) = np.broadcast_arrays(
        t, x_start, x_end, level, t_start, t_end, sigma
    )
    tau = t_end - t_start
    u = t - t_start
    v = t_end - t
    sig2 = np.square(sigma)
    # density of the observed endpoint given the start, the normaliser
    y = np.exp(-np.square(x_start - x_end) / (2.0 * tau * sig2)) / (
        sigma * np.sqrt(2.0 * np.pi * tau)
    )
    pref = (x_start - level) / (2.0 * y * np.pi * sig2) * u**-1.5 * v**-0.5
    down = np.exp(-np.square(x_end - level) / (2.0 * v * sig2))
    up = np.exp(-np.square(x_start - level) / (2.0 * u * sig2))
    return pref * down * up


def uniform_candidates(x_start, x_end, level, t0, t1, sigma, u, alive):
    """One uniform candidate per cell of a block of bridge intervals.

    Row r of the (n, m) arrays ``x_start``, ``x_end`` and ``level`` is run r's
    interval (t0[r], t1[r]) for each of its m components; ``sigma`` holds
    the (m,) per-component volatilities, ``u`` holds (n, m) uniforms on
    (0, 1] and ``alive`` marks the cells that are still uncrossed.

    With P the cell's survival probability, the candidate time is
    t0 + tau / (1 - P) * u.  It is accepted exactly when it lands strictly
    inside the interval, which happens with probability 1 - P, and it then
    carries the importance weight tau / (1 - P) * g(s), so weighted accepted
    candidates are an unbiased sample of the interior crossing-time density.
    Cells whose survival rounds to one (within ``SURVIVAL_SHORTCUT``) never
    accept.

    Returns ((rows, cols), times, weights) of the accepted cells, in
    row-major order.
    """
    tau = t1 - t0
    keep = 1.0 - survival_array(x_start, x_end, level, tau[:, None], sigma)
    hit = alive & (keep > SURVIVAL_SHORTCUT) & (u <= keep)
    if not hit.any():
        none = np.empty(0, dtype=np.intp)
        return (none, none), np.empty(0), np.empty(0)
    ii = _cells(hit)
    stretch = tau[ii[0]] / keep[ii]
    s = t0[ii[0]] + stretch * u[ii]
    # both density prefactors are singular at the interval endpoints
    ok = (s < t1[ii[0]]) & (s > t0[ii[0]])
    ii = (ii[0][ok], ii[1][ok])
    s = s[ok]
    g = fpt_density_array(
        s, x_start[ii], x_end[ii], level[ii], t0[ii[0]], t1[ii[0]], sigma[ii[1]]
    )
    return ii, s, stretch[ok] * g


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the true cells of an (n, m) mask, like
    ``np.nonzero`` but several times faster for a handful of columns."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])
