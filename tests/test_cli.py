import os

import pytest

from fptmc.cli import main

GOOD_CFG = """
m = 1
x0 = [0.0]
mu = [0.0]
sigma = [[1.0]]
lambda = 0.0
jump_mean = [0.0]
jump_sd = [0.0]
barrier_intercept = [-1.0]
barrier_slope = [0.0]
horizon = 1.0
engine = both
runs = 2000
dt = 0.01
seed = 5
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD_CFG + f"out = {tmp_path}/out\n")
    return str(path)


def test_validate_ok(cfg_file, capsys):
    assert main(["validate", "--config", cfg_file]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "engine = both" in out


def test_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CFG.replace("x0 = [0.0]", "x0 = [-2.0]") + "out = x\n")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_non_numeric_dt(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CFG.replace("dt = 0.01", "dt = abc") + "out = x\n")
    line = bad.read_text().splitlines().index("dt = abc") + 1
    assert main(["validate", "--config", str(bad)]) == 1
    assert f"config error: {bad}:{line}: dt" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["validate", "--config", "/nope/missing.cfg"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_run_writes_outputs(cfg_file, tmp_path, capsys):
    assert main(["run", "--config", cfg_file]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert os.path.exists(tmp_path / "out" / "report.txt")
    assert os.path.exists(tmp_path / "out" / "unif_marginal_1.csv")


def test_run_flag_overrides(cfg_file, tmp_path, capsys):
    assert (
        main(
            [
                "run",
                "--config",
                cfg_file,
                "--engine",
                "unif",
                "--runs",
                "500",
                "--seed",
                "9",
                "--workers",
                "2",
                "--out",
                str(tmp_path / "other"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "runs: 500" in out
    assert os.path.exists(tmp_path / "other" / "unif_marginal_1.csv")
    assert not os.path.exists(tmp_path / "other" / "cmc_marginal_1.csv")


@pytest.mark.parametrize("out", ["1e3", "runs#2"])
def test_run_writes_to_the_out_path_as_given(cfg_file, tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    args = ["run", "--config", cfg_file, "--engine", "unif", "--runs", "200", "--out", out]
    assert main(args) == 0
    assert os.path.exists(tmp_path / out / "report.txt")


def test_bad_override_is_config_error(cfg_file, capsys):
    assert main(["run", "--config", cfg_file, "--dt", "2.0"]) == 1
    err = capsys.readouterr().err
    assert "config error: <overrides>: dt must not exceed the horizon" in err


def test_runtime_error_exit_code(cfg_file, capsys, tmp_path, monkeypatch):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    assert main(["run", "--config", cfg_file, "--out", str(blocked)]) == 2
    assert "error" in capsys.readouterr().err
