import math
from dataclasses import replace

import pytest

from fptmc import ConfigError, ExperimentConfig, parse_config, parse_config_text
from fptmc.config import apply_overrides

GOOD = """
m = 2
x0 = [0.0, 0.0]
mu = [-0.002, -0.012]
sigma = [[0.2, 0.0], [0.0, 0.2]]
lambda = 1.0
jump_mean = [0.0, 0.0]
jump_sd = [0.2, 0.12]
barrier_intercept = [-0.10536051565782628, -0.05129329438755058]
barrier_slope = [-0.002, -0.012]
horizon = 1.0
engine = both
runs = 1000
dt = 0.001
seed = 7
workers = 2
out = /tmp/fptmc_demo
"""


def test_parse_bundled_example1():
    cfg = parse_config("configs/example1.cfg")
    assert cfg.m == 2
    assert cfg.x0 == (0.0, 0.0)
    assert cfg.mu == (-0.002, -0.012)
    assert cfg.sigma == ((0.2, 0.0), (0.0, 0.2))
    assert cfg.jump_rate == 1.0
    assert cfg.jump_mean == (0.0, 0.0)
    assert cfg.jump_sd == (0.2, 0.12)
    assert cfg.barrier_intercept == (math.log(0.9), math.log(0.95))
    assert cfg.barrier_slope == (-0.002, -0.012)
    assert cfg.horizon == 1.0
    assert cfg.runs == 100_000
    assert cfg.dt == 0.0002
    assert cfg.engine == "both"


def test_bundled_examples_differ_only_in_rate():
    cfgs = [parse_config(f"configs/example{i}.cfg") for i in (1, 2, 3)]
    assert [c.jump_rate for c in cfgs] == [1.0, 3.0, 8.0]
    for c in cfgs[1:]:
        assert c.sigma == cfgs[0].sigma
        assert c.barrier_intercept == cfgs[0].barrier_intercept


def test_parse_good_text():
    cfg = parse_config_text(GOOD)
    assert cfg.workers == 2
    assert cfg.out == "/tmp/fptmc_demo"
    assert cfg.grid_1d == 512  # default


def test_missing_required_key():
    broken = GOOD.replace("x0 = [0.0, 0.0]\n", "")
    with pytest.raises(ConfigError, match="missing required key 'x0'"):
        parse_config_text(broken)


def test_dimension_mismatch():
    broken = GOOD.replace(
        "barrier_slope = [-0.002, -0.012]", "barrier_slope = [-0.002, -0.012, 0.0]"
    )
    with pytest.raises(ConfigError, match="dimension mismatch"):
        parse_config_text(broken)


def test_sigma_shape_mismatch():
    broken = GOOD.replace(
        "sigma = [[0.2, 0.0], [0.0, 0.2]]", "sigma = [[0.2, 0.0]]"
    )
    with pytest.raises(ConfigError, match="sigma"):
        parse_config_text(broken)


def test_degenerate_sigma_row():
    broken = GOOD.replace(
        "sigma = [[0.2, 0.0], [0.0, 0.2]]", "sigma = [[0.0, 0.0], [0.0, 0.2]]"
    )
    with pytest.raises(ConfigError, match="degenerate diffusion row"):
        parse_config_text(broken)


def test_x0_not_above_barrier():
    broken = GOOD.replace("x0 = [0.0, 0.0]", "x0 = [0.0, -0.06]")
    with pytest.raises(ConfigError, match="not above its barrier"):
        parse_config_text(broken)


def test_rate_dt_product_bound():
    broken = GOOD.replace("lambda = 1.0", "lambda = 8.0").replace(
        "dt = 0.001", "dt = 0.2"
    )
    with pytest.raises(ConfigError, match="must be < 1"):
        parse_config_text(broken)


def test_dt_required_for_baseline():
    broken = GOOD.replace("dt = 0.001\n", "")
    with pytest.raises(ConfigError, match="missing required key 'dt'"):
        parse_config_text(broken)
    # pure bridge engine needs no dt
    ok = broken.replace("engine = both", "engine = unif")
    assert parse_config_text(ok).dt is None


@pytest.mark.parametrize("dt", ["-5", "0"])
def test_given_dt_is_positive_for_every_engine(dt):
    unif = GOOD.replace("engine = both", "engine = unif")
    broken = unif.replace("dt = 0.001", f"dt = {dt}")
    line = broken.splitlines().index(f"dt = {dt}") + 1
    with pytest.raises(ConfigError, match=f":{line}: dt must be positive"):
        parse_config_text(broken)
    # the bounds dt takes from the model hold for the baseline only
    assert parse_config_text(unif.replace("dt = 0.001", "dt = 2")).dt == 2


@pytest.mark.parametrize("value", ["abc", "[0.1]", "True"])
def test_non_numeric_dt_names_its_line(value):
    broken = GOOD.replace("dt = 0.001", f"dt = {value}")
    line = broken.splitlines().index(f"dt = {value}") + 1
    with pytest.raises(ConfigError, match=f":{line}: dt must be a finite number"):
        parse_config_text(broken)


@pytest.mark.parametrize(
    "key, good, bad",
    [
        ("horizon", "horizon = 1.0", "horizon = 1e400"),
        ("lambda", "lambda = 1.0", "lambda = 1e400"),
        ("dt", "dt = 0.001", "dt = -1e400"),
        ("x0", "x0 = [0.0, 0.0]", "x0 = [1e400, 0.0]"),
        ("mu", "mu = [-0.002, -0.012]", "mu = [-0.002, -1e400]"),
        ("sigma", "sigma = [[0.2, 0.0], [0.0, 0.2]]", "sigma = [[0.2, 0.0], [0.0, 1e400]]"),
        ("jump_mean", "jump_mean = [0.0, 0.0]", "jump_mean = [-1e400, 0.0]"),
        ("jump_sd", "jump_sd = [0.2, 0.12]", "jump_sd = [0.2, 1e400]"),
    ],
)
def test_non_finite_value_names_its_line(key, good, bad):
    # 1e400 reads as inf
    broken = GOOD.replace(good, bad)
    line = broken.splitlines().index(bad) + 1
    with pytest.raises(ConfigError, match=f":{line}: {key} .*finite"):
        parse_config_text(broken)


@pytest.mark.parametrize(
    "key, good, bad",
    [
        ("x0", "x0 = [0.0, 0.0]", "x0 = [-0.10536051565782628, 0.0]"),
        ("x0", "x0 = [0.0, 0.0]", "x0 = [0.0, -0.06]"),
        ("sigma", "sigma = [[0.2, 0.0], [0.0, 0.2]]", "sigma = [[0.2, 0.0], [0.0, 0.0]]"),
        ("jump_sd", "jump_sd = [0.2, 0.12]", "jump_sd = [0.2, -0.12]"),
        ("lambda", "lambda = 1.0", "lambda = -1.0"),
        ("horizon", "horizon = 1.0", "horizon = 0"),
        ("horizon", "horizon = 1.0", "horizon = -2"),
        ("dt", "dt = 0.001", "dt = 0"),
        ("dt", "dt = 0.001", "dt = -0.1"),
        ("dt", "dt = 0.001", "dt = 2"),
        # lambda = 1.0, so lambda * dt = 1
        ("dt", "dt = 0.001", "dt = 1.0"),
        ("out", "out = /tmp/fptmc_demo", "out = "),
    ],
)
def test_model_rule_names_its_line(key, good, bad):
    broken = GOOD.replace(good, bad)
    line = broken.splitlines().index(bad) + 1
    with pytest.raises(ConfigError, match=rf":{line}: .*\b{key}\b"):
        parse_config_text(broken)


def test_unknown_engine():
    # a bare word, and a literal that is no word
    for value in ("fast", "[1]"):
        broken = GOOD.replace("engine = both", f"engine = {value}")
        with pytest.raises(ConfigError, match="engine must be one of"):
            parse_config_text(broken)


def test_unknown_key_and_syntax():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(GOOD + "\ncolour = blue\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text(GOOD + "\njust some words\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text(GOOD + "\nm = 2\n")


def test_error_reports_line_number():
    broken = GOOD.replace("mu = [-0.002, -0.012]", "mu = oops")
    line = broken.splitlines().index("mu = oops") + 1
    with pytest.raises(ConfigError, match=f":{line}: mu must be a list of numbers"):
        parse_config_text(broken)


def test_overrides_applied_and_revalidated():
    cfg = parse_config_text(GOOD)
    bumped = apply_overrides(cfg, runs=5000, engine="unif")
    assert bumped.runs == 5000
    assert bumped.engine == "unif"
    assert bumped.sigma == cfg.sigma
    with pytest.raises(ConfigError, match="must be < 1"):
        apply_overrides(parse_config_text(GOOD.replace("lambda = 1.0", "lambda = 8.0")), dt=0.2)


@pytest.mark.parametrize(
    "line, out",
    [
        ("out = 1e3", "1e3"),
        ("out = 0x10", "0x10"),
        ("out = 1_000", "1_000"),
        ("out = results/a  # a comment", "results/a"),
    ],
)
def test_out_is_read_verbatim(line, out):
    cfg = parse_config_text(GOOD.replace("out = /tmp/fptmc_demo", line))
    assert cfg.out == out


@pytest.mark.parametrize(
    "out", ["1e3", "0x10", "1_000", "runs#2", "#", "a\nb", "x\ndt = 0.5"]
)
def test_out_override_is_kept_exact(out):
    # a unif config without dt: no part of the path may set another key
    unif = GOOD.replace("engine = both", "engine = unif").replace("dt = 0.001\n", "")
    base = parse_config_text(unif)
    cfg = apply_overrides(base, out=out, runs=10)
    assert cfg == replace(base, out=out, runs=10)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"x0": [0.0, 0.0, 0.0]}, r"x0 has 3 entries, expected m = 2 \(dimension mismatch\)"),
        ({"runs": 0}, "runs must be an integer >= 1"),
        ({"jump_rate": -1.0}, "jump_rate must be >= 0"),
    ],
)
def test_direct_construction_is_checked(change, message):
    with pytest.raises(ValueError, match="^" + message):
        ExperimentConfig(**dict(vars(parse_config_text(GOOD)), **change))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config("/nonexistent/path.cfg")


def test_model_spec_carries_the_barrier_vectors():
    cfg = parse_config_text(GOOD.replace("barrier_slope = [-0.002, -0.012]",
                                         "barrier_slope = [0.25, -3]"))
    spec = cfg.to_model_spec()
    assert spec.barrier_intercept.tolist() == list(cfg.barrier_intercept)
    assert spec.barrier_intercept.tolist() == [-0.10536051565782628, -0.05129329438755058]
    assert spec.barrier_slope.tolist() == [0.25, -3.0]
    assert cfg.barrier_slope == (0.25, -3.0)
    assert cfg == replace(cfg) and hash(cfg) == hash(replace(cfg))
