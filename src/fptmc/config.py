"""Experiment configuration: a flat key = value text format.

Grammar (one assignment per line)::

    file     := { line }
    line     := [ key "=" value ] [ "#" comment ]
    key      := identifier
    value    := Python literal (number, [..] list, [[..],..] nested list)
                | bare word (read as a string)

The value of ``out`` is a path: it is read verbatim, as the stripped text
before any comment, never as a literal.

Recognised keys, with types and defaults:

    m                  int        required    number of processes
    x0                 [float]*m  required    starting values
    mu                 [float]*m  required    drift per unit time
    sigma              [[float]]  required    m x m diffusion matrix
    lambda             float      required    jump arrival rate (>= 0)
    jump_mean          [float]*m  required    jump-size means
    jump_sd            [float]*m  required    jump-size standard deviations
    barrier_intercept  [float]*m  required    D_i(t) = intercept_i + slope_i t
    barrier_slope      [float]*m  required
    horizon            float      required    terminal time T > 0
    engine             word       required    unif | cmc | both
    runs               int        required    Monte Carlo runs
    dt                 float      cmc/both    largest baseline step: the
                                              baseline takes ceil(T / dt)
                                              equal steps
    seed               int        0
    workers            int        1
    grid_1d            int        512         marginal density grid points
    grid_2d            int        128         joint density grid points/axis
    out                path       "out"       output directory

Each rule lives in one place.  The parser reads only syntax: ``key = value``
lines and duplicate, unknown and missing keys; the known keys, the required
ones and the defaults are the fields of ``ExperimentConfig``.  Every model
value (the keys from ``m`` to ``horizon``) is checked by ``ModelSpec``, which
``ExperimentConfig`` builds; ``ExperimentConfig`` itself checks only the run
settings, the ``engine`` word and ``out``; a given ``dt`` is checked by the
``CmcConfig`` it builds, and for the baseline against the model by that
``CmcConfig``.  ``ENGINES`` is the one table of the engines each ``engine``
word runs, which ``ExperimentConfig.engines`` reads.  An error names its key,
and the file line of that key when it has one.

Command-line flags override file values through ``apply_overrides``: a
``dataclasses.replace``, so the same rules check them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

import numpy as np

from .cmc import CmcConfig
from .model import ModelSpec, _finite, _integer

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_text",
           "apply_overrides"]

# the engine word -> the engines it runs, in report order
ENGINES = {"unif": ("unif",), "cmc": ("cmc",), "both": ("unif", "cmc")}

# the one field whose config key has another name
_KEY_OF_FIELD = {"jump_rate": "lambda"}

_MINIMUMS = {"runs": 1, "seed": 0, "workers": 1, "grid_1d": 2, "grid_2d": 2}


class ConfigError(ValueError):
    """Invalid configuration, with the offending location when known."""

    def __init__(self, message: str, path: str = "", line: Optional[int] = None):
        where = path or "<config>"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")


def _tuples(value):
    """Nested lists as nested tuples, so a config stays hashable."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description (model + execution settings) that checks itself.

    The model values are the fields of ``ModelSpec``: construction builds
    that spec, which checks them, and stores its values back as tuples.  The
    spec's ``effective_sigmas()`` rule (no all-zero diffusion row) holds for
    every engine here.  Checked here are only the run settings' integer
    minimums, the ``engine`` word, a non-empty ``out`` and ``dt``: a given
    ``dt`` is checked by its ``CmcConfig`` whatever the engine, and a
    config whose ``engines`` include ``cmc`` requires it and checks that
    ``CmcConfig`` against the spec.  A ``ValueError`` starts with the field
    it is about.
    """

    m: int
    x0: tuple[float, ...]
    mu: tuple[float, ...]
    sigma: tuple[tuple[float, ...], ...]
    jump_rate: float
    jump_mean: tuple[float, ...]
    jump_sd: tuple[float, ...]
    barrier_intercept: tuple[float, ...]
    barrier_slope: tuple[float, ...]
    horizon: float
    engine: str
    runs: int
    dt: Optional[float] = None
    seed: int = 0
    workers: int = 1
    grid_1d: int = 512
    grid_2d: int = 128
    out: str = "out"

    def __post_init__(self):
        for name, minimum in _MINIMUMS.items():
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        spec = self.to_model_spec()
        spec.effective_sigmas()
        for f in fields(ModelSpec):
            value = np.asarray(getattr(spec, f.name)).tolist()
            object.__setattr__(self, f.name, _tuples(value))
        if not isinstance(self.engine, str) or self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {', '.join(ENGINES)}; got {self.engine!r}"
            )
        if not self.out:
            raise ValueError("out must be a non-empty path")
        if self.dt is not None:
            object.__setattr__(self, "dt", _finite("dt", self.dt))
            cmc_cfg = CmcConfig(self.dt, self.runs, self.seed, self.workers)
            if "cmc" in self.engines:
                cmc_cfg.validate_for(spec)
        elif "cmc" in self.engines:
            raise ValueError(f"missing required key 'dt' (engine = {self.engine})")

    def to_model_spec(self) -> ModelSpec:
        return ModelSpec(**{f.name: getattr(self, f.name) for f in fields(ModelSpec)})

    @property
    def engines(self) -> tuple[str, ...]:
        """The engines that ``engine`` runs, in report order."""
        return ENGINES[self.engine]


# config key -> ExperimentConfig field
_FIELDS = {_KEY_OF_FIELD.get(f.name, f.name): f for f in fields(ExperimentConfig)}


def _parse_value(raw: str):
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return raw  # bare word


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    """Parse a configuration from text; ``ExperimentConfig`` checks the values."""
    values: dict = {}
    lines: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected 'key = value', got {body!r}", path, lineno)
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in lines:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}", path, lineno)
        values[_FIELDS[key].name] = raw if key == "out" else _parse_value(raw)
        lines[key] = lineno
    for key, f in _FIELDS.items():
        if f.default is MISSING and key not in lines:
            raise ConfigError(f"missing required key {key!r}", path)
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise _located(exc, path, lines) from exc


def _located(exc: ValueError, path: str, lines: dict) -> ConfigError:
    """A value's error, restated in config keys at the line of the key its
    message starts with, when there is one."""
    message = str(exc)
    field = re.match(r"\w*", message).group()
    key = _KEY_OF_FIELD.get(field, field)
    return ConfigError(key + message[len(field):], path, lines.get(key))


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    return parse_config_text(text, str(path))


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """``cfg`` with the non-None overrides, checked by the same rules as the
    file's keys; ``out`` is taken as given."""
    try:
        return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:
        raise _located(exc, "<overrides>", {}) from exc
