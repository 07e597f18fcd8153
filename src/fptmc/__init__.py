"""First-passage-time Monte Carlo for multivariate jump-diffusions.

Two engines estimate the distribution of the first time each component of a
constant-coefficient jump-diffusion touches its affine barrier:

* ``run_engine`` - the fast bridge-sampling engine, which only evaluates the
  process at jump instants and draws interior crossing times exactly from
  the Brownian bridge's crossing-time law;
* ``run_cmc`` - a conventional fixed-step baseline used for validation and
  speed comparison.

Both record every crossing with weight 1, so a crossing probability is a
count over the runs, and both feed ``estimate_densities`` for kernel density
estimates of the marginal and joint first-passage-time densities.
"""

from .model import ModelSpec
from .kde import (
    WeightedSamples,
    GammaFit,
    DensityEstimate,
    gaussian_kernel,
    gamma_moment_fit,
    roughness_functional,
    optimal_bandwidth_1d,
    optimal_bandwidth_multi,
    estimate_density_1d,
    estimate_density_multi,
)
from .results import EngineResult, estimate_densities
from .unif import run_engine
from .cmc import CmcConfig, run_cmc
from .config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_text,
)
from .report import ComparisonReport, normalized_l1, emit_density_csv, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ModelSpec",
    "WeightedSamples",
    "GammaFit",
    "DensityEstimate",
    "gaussian_kernel",
    "gamma_moment_fit",
    "roughness_functional",
    "optimal_bandwidth_1d",
    "optimal_bandwidth_multi",
    "estimate_density_1d",
    "estimate_density_multi",
    "EngineResult",
    "estimate_densities",
    "run_engine",
    "CmcConfig",
    "run_cmc",
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "parse_config_text",
    "ComparisonReport",
    "normalized_l1",
    "emit_density_csv",
    "run_experiment",
]
