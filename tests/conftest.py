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
