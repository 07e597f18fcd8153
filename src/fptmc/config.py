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
    dt                 float      cmc/both    baseline step size
    seed               int        0
    workers            int        1
    grid_1d            int        512         marginal density grid points
    grid_2d            int        128         joint density grid points/axis
    out                path       "out"       output directory

The parser checks keys, types, dimensions and finiteness; the model and
baseline rules are ``ModelSpec``'s and ``CmcConfig``'s own, reported at the
line of the key their message names.

Command-line flags override file values.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .cmc import CmcConfig
from .model import LinearBarrier, ModelSpec

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_text",
           "serialize_config", "apply_overrides"]

ENGINES = ("unif", "cmc", "both")

_REQUIRED = (
    "m", "x0", "mu", "sigma", "lambda", "jump_mean", "jump_sd",
    "barrier_intercept", "barrier_slope", "horizon", "engine", "runs",
)
_OPTIONAL_DEFAULTS = {
    "dt": None,
    "seed": 0,
    "workers": 1,
    "grid_1d": 512,
    "grid_2d": 128,
    "out": "out",
}

# the one ModelSpec field whose config key has another name
_KEY_OF_FIELD = {"jump_rate": "lambda"}


class ConfigError(ValueError):
    """Invalid configuration, with the offending location when known."""

    def __init__(self, message: str, path: str = "", line: Optional[int] = None):
        where = path or "<config>"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (model + execution settings)."""

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

    def to_model_spec(self) -> ModelSpec:
        return ModelSpec(
            m=self.m,
            x0=np.array(self.x0),
            mu=np.array(self.mu),
            sigma=np.array(self.sigma),
            jump_rate=self.jump_rate,
            jump_mean=np.array(self.jump_mean),
            jump_sd=np.array(self.jump_sd),
            barriers=tuple(
                LinearBarrier(b, s)
                for b, s in zip(self.barrier_intercept, self.barrier_slope)
            ),
            horizon=self.horizon,
        )

    @property
    def needs_cmc(self) -> bool:
        return self.engine in ("cmc", "both")

    @property
    def needs_unif(self) -> bool:
        return self.engine in ("unif", "both")


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return raw  # bare word


def _read_pairs(text: str, path: str) -> dict:
    pairs: dict = {}
    lines: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected 'key = value', got {body!r}", path, lineno)
        key, raw = body.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        pairs[key] = raw.strip() if key == "out" else _parse_value(raw)
        lines[key] = lineno
    pairs["__lines__"] = lines
    return pairs


def _vector(pairs, lines, key, m, path) -> tuple[float, ...]:
    val = pairs[key]
    if not isinstance(val, (list, tuple)) or not all(map(_is_number, val)):
        raise ConfigError(f"{key} must be a list of numbers", path, lines.get(key))
    if len(val) != m:
        raise ConfigError(
            f"dimension mismatch: {key} has {len(val)} entries, expected m = {m}",
            path,
            lines.get(key),
        )
    if not all(map(math.isfinite, val)):
        raise ConfigError(f"{key} entries must be finite", path, lines.get(key))
    return tuple(float(v) for v in val)


def _is_number(value) -> bool:
    """An int or a float; a bool is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    """Parse and fully validate a configuration from text."""
    pairs = _read_pairs(text, path)
    lines = pairs.pop("__lines__")

    known = set(_REQUIRED) | set(_OPTIONAL_DEFAULTS)
    for key in pairs:
        if key not in known:
            raise ConfigError(f"unknown key {key!r}", path, lines.get(key))
    for key in _REQUIRED:
        if key not in pairs:
            raise ConfigError(f"missing required key {key!r}", path)

    def _positive_int(key, minimum=1):
        val = pairs[key]
        if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
            raise ConfigError(
                f"{key} must be an integer >= {minimum}", path, lines.get(key)
            )
        return val

    def _finite(key):
        val = pairs[key]
        if not _is_number(val) or not math.isfinite(val):
            raise ConfigError(f"{key} must be a finite number", path, lines.get(key))
        return float(val)

    m = _positive_int("m")
    x0 = _vector(pairs, lines, "x0", m, path)
    mu = _vector(pairs, lines, "mu", m, path)
    jump_mean = _vector(pairs, lines, "jump_mean", m, path)
    jump_sd = _vector(pairs, lines, "jump_sd", m, path)
    icpt = _vector(pairs, lines, "barrier_intercept", m, path)
    slope = _vector(pairs, lines, "barrier_slope", m, path)

    sig = pairs["sigma"]
    if (
        not isinstance(sig, (list, tuple))
        or len(sig) != m
        or any(not isinstance(row, (list, tuple)) or len(row) != m for row in sig)
    ):
        raise ConfigError(
            f"dimension mismatch: sigma must be an {m} x {m} matrix",
            path,
            lines.get("sigma"),
        )
    if not all(_is_number(v) and math.isfinite(v) for row in sig for v in row):
        raise ConfigError("sigma entries must be finite numbers", path, lines.get("sigma"))
    sigma = tuple(tuple(float(v) for v in row) for row in sig)

    engine = pairs["engine"]
    if engine not in ENGINES:
        raise ConfigError(
            f"engine must be one of {', '.join(ENGINES)}; got {engine!r}",
            path,
            lines.get("engine"),
        )
    runs = _positive_int("runs")

    cfg = ExperimentConfig(
        m=m,
        x0=x0,
        mu=mu,
        sigma=sigma,
        jump_rate=_finite("lambda"),
        jump_mean=jump_mean,
        jump_sd=jump_sd,
        barrier_intercept=icpt,
        barrier_slope=slope,
        horizon=_finite("horizon"),
        engine=engine,
        runs=runs,
        dt=_finite("dt") if "dt" in pairs else None,
        seed=_positive_int("seed", minimum=0) if "seed" in pairs else 0,
        workers=_positive_int("workers") if "workers" in pairs else 1,
        grid_1d=_positive_int("grid_1d", minimum=2) if "grid_1d" in pairs else 512,
        grid_2d=_positive_int("grid_2d", minimum=2) if "grid_2d" in pairs else 128,
        out=pairs.get("out", "out"),
    )
    if cfg.needs_cmc and cfg.dt is None:
        raise ConfigError(f"missing required key 'dt' (engine = {cfg.engine})", path)
    try:
        spec = cfg.to_model_spec()
        spec.effective_sigmas()
        if cfg.needs_cmc:
            CmcConfig(cfg.dt, cfg.runs, cfg.seed, cfg.workers).validate_for(spec)
    except ValueError as exc:
        raise _located(exc, path, lines) from exc
    return cfg


def _located(exc: ValueError, path: str, lines: dict) -> ConfigError:
    """A model or baseline rule's error, restated in config keys at the line
    of the key its message starts with."""
    message = str(exc)
    field = re.match(r"\w*", message).group()
    key = _KEY_OF_FIELD.get(field, field)
    return ConfigError(key + message[len(field):], path, lines.get(key))


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    return parse_config_text(text, str(path))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config back to the file format; parse(serialize(c)) == c."""
    out = [
        f"m = {cfg.m}",
        f"x0 = {_fmt(cfg.x0)}",
        f"mu = {_fmt(cfg.mu)}",
        f"sigma = {_fmt(cfg.sigma)}",
        f"lambda = {_fmt(cfg.jump_rate)}",
        f"jump_mean = {_fmt(cfg.jump_mean)}",
        f"jump_sd = {_fmt(cfg.jump_sd)}",
        f"barrier_intercept = {_fmt(cfg.barrier_intercept)}",
        f"barrier_slope = {_fmt(cfg.barrier_slope)}",
        f"horizon = {_fmt(cfg.horizon)}",
        f"engine = {cfg.engine}",
        f"runs = {cfg.runs}",
    ]
    if cfg.dt is not None:
        out.append(f"dt = {_fmt(cfg.dt)}")
    out += [
        f"seed = {cfg.seed}",
        f"workers = {cfg.workers}",
        f"grid_1d = {cfg.grid_1d}",
        f"grid_2d = {cfg.grid_2d}",
        f"out = {cfg.out}",
    ]
    return "\n".join(out) + "\n"


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Apply non-None command-line overrides and re-validate.

    ``out`` is kept exact: the file format would cut a path at a '#'."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    if not changes:
        return cfg
    new = replace(cfg, **changes)
    return replace(parse_config_text(serialize_config(new), "<overrides>"), out=str(new.out))
