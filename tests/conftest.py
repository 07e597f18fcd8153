import dataclasses
import math

import numpy as np
import pytest

from fptmc import ModelSpec


def make_example_spec(jump_rate: float) -> ModelSpec:
    """The two-component benchmark family: only the jump rate varies."""
    return ModelSpec(
        m=2,
        x0=[0.0, 0.0],
        mu=[-0.002, -0.012],
        sigma=[[0.2, 0.0], [0.0, 0.2]],
        jump_rate=jump_rate,
        jump_mean=[0.0, 0.0],
        jump_sd=[0.2, 0.12],
        barrier_intercept=[math.log(0.9), math.log(0.95)],
        barrier_slope=[-0.002, -0.012],
        horizon=1.0,
    )


def compound_poisson_spec(rate, slopes=(0.0, 0.0)):
    """example1's jump sds and barrier intercepts with a vanishing sigma and
    zero distance drift (mu = slope): each distance to its barrier is a
    Gaussian random walk on the shared jump clock."""
    return dataclasses.replace(
        make_example_spec(rate),
        mu=list(slopes),
        sigma=np.eye(2) * 1e-6,
        barrier_slope=list(slopes),
    )


def compound_poisson_args(spec):
    """``helpers.compound_poisson_law``'s model arguments for a spec of
    ``compound_poisson_spec``."""
    return (
        spec.x0 - spec.barrier_intercept,
        spec.jump_mean,
        spec.jump_sd,
        spec.jump_rate,
        spec.horizon,
    )


def names_spec(jump_rate: float, sigma: float, m: int = 16) -> ModelSpec:
    """m identical names on a diagonal sigma: zero drift, flat barriers at
    -0.1 and normal jumps of sd 0.15 on the shared clock."""
    return ModelSpec(
        m=m,
        x0=np.zeros(m),
        mu=np.zeros(m),
        sigma=sigma * np.eye(m),
        jump_rate=jump_rate,
        jump_mean=np.zeros(m),
        jump_sd=np.full(m, 0.15),
        barrier_intercept=np.full(m, -0.1),
        barrier_slope=np.zeros(m),
        horizon=1.0,
    )


@pytest.fixture
def example1_spec() -> ModelSpec:
    return make_example_spec(1.0)


@pytest.fixture
def single_bm_spec() -> ModelSpec:
    """Standard Brownian motion against the constant barrier -1 on [0, 1]."""
    return ModelSpec(
        m=1,
        x0=[0.0],
        mu=[0.0],
        sigma=[[1.0]],
        jump_rate=0.0,
        jump_mean=[0.0],
        jump_sd=[0.0],
        barrier_intercept=[-1.0],
        barrier_slope=[0.0],
        horizon=1.0,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
