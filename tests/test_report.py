import math
import os

import numpy as np
import pytest

from fptmc import (
    DensityEstimate,
    emit_density_csv,
    normalized_l1,
    parse_config_text,
    run_experiment,
)
from helpers import traced_peak

TINY_CFG = """
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
runs = 3000
dt = 0.01
seed = 123
grid_1d = 128
grid_2d = 32
"""


def small_estimate(n=32):
    grid = np.linspace(0.0, 1.0, n)
    values = np.exp(-np.square(grid - 0.4) / 0.02)
    return DensityEstimate(
        grid=grid,
        values=values,
        bandwidth=0.05,
        total_mass=float(np.trapezoid(values, grid)),
    )


class TestNormalizedL1:
    def test_identical_is_zero(self):
        est = small_estimate()
        assert normalized_l1(est.values, est.values, est.grid) == 0.0

    def test_zero_against_zero(self):
        grid = np.linspace(0.0, 1.0, 8)
        assert normalized_l1(np.zeros(8), np.zeros(8), grid) == 0.0

    def test_disjoint_masses_give_two(self):
        grid = np.linspace(0.0, 1.0, 2001)
        a = np.where(grid < 0.3, 1.0, 0.0)
        b = np.where(grid > 0.7, 1.0, 0.0)
        assert normalized_l1(a, b, grid) == pytest.approx(2.0, abs=0.01)


class TestDensityCsv:
    def test_1d_format_and_roundtrip(self, tmp_path):
        est = small_estimate(512)
        path = tmp_path / "density.csv"
        emit_density_csv(est, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# t,density"
        assert len(lines) == 513
        for line, t, v in zip(lines[1:], est.grid, est.values):
            st, sv = line.split(",")
            assert float(st) == t  # exact round-trip
            assert float(sv) == v

    def test_2d_format_t1_major(self, tmp_path):
        g0 = np.linspace(0.0, 1.0, 16)
        g1 = np.linspace(0.0, 1.0, 16)
        values = np.arange(256, dtype=float).reshape(16, 16)
        est = DensityEstimate(
            grid=(g0, g1), values=values, bandwidth=0.1, total_mass=1.0
        )
        path = tmp_path / "joint.csv"
        emit_density_csv(est, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# t1,t2,density"
        assert len(lines) == 257
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert float(first[0]) == float(second[0]) == 0.0  # t1 fixed, t2 scans
        assert float(second[1]) == g1[1]
        assert float(lines[-1].split(",")[2]) == 255.0

    def test_zero_mass_rows(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 8)
        est = DensityEstimate(
            grid=grid, values=np.zeros(8), bandwidth=0.1, total_mass=0.0
        )
        path = tmp_path / "zero.csv"
        emit_density_csv(est, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        assert all(line.endswith(",0.0") for line in lines[1:])


    def test_bytes_match_per_element_repr(self, tmp_path, rng):
        # the reference writer formats every element with repr(float(...)),
        # as the writer did before it formatted each axis value once; 128 is
        # the report's joint grid, here with rows of zero density
        for n in (24, 128):
            axis = np.linspace(0.0, 1.0, n)
            values = rng.lognormal(size=(n, n - 7)) * 1e-7
            values[:3] = 0.0
            joint = DensityEstimate(
                grid=(axis, axis[: n - 7] * 0.7),
                values=values,
                bandwidth=0.1,
                total_mass=1.0,
            )
            marginal = DensityEstimate(
                grid=axis,
                values=rng.lognormal(size=n),
                bandwidth=0.1,
                total_mass=1.0,
            )
            g0, g1 = joint.grid
            expected = {
                "joint": ["# t1,t2,density"] + [
                    f"{repr(float(g0[i]))},{repr(float(g1[j]))},"
                    f"{repr(float(joint.values[i, j]))}"
                    for i in range(len(g0))
                    for j in range(len(g1))
                ],
                "marginal": ["# t,density"] + [
                    f"{repr(float(t))},{repr(float(v))}"
                    for t, v in zip(marginal.grid, marginal.values)
                ],
            }
            for name, est in (("joint", joint), ("marginal", marginal)):
                path = tmp_path / f"{name}.csv"
                emit_density_csv(est, str(path))
                reference = ("\n".join(expected[name]) + "\n").encode("utf-8")
                assert path.read_bytes() == reference

    def test_joint_text_is_held_one_row_at_a_time(self, tmp_path, rng):
        # a 512 x 512 joint writes 15 MB of text: held whole, with its row
        # strings, it peaked at 57 MiB traced; one row at a time, at 0.2
        n = 512
        axis = np.linspace(0.0, 1.0, n)
        joint = DensityEstimate(
            grid=(axis, axis),
            values=rng.lognormal(size=(n, n)),
            bandwidth=0.1,
            total_mass=1.0,
        )
        path = tmp_path / "joint.csv"
        peak, _ = traced_peak(lambda: emit_density_csv(joint, str(path)))
        assert peak < 2**20
        assert path.stat().st_size > 10**7


class TestRunExperiment:
    def test_report_shape_and_files(self, tmp_path):
        cfg = parse_config_text(TINY_CFG + f"out = {tmp_path}/exp\n")
        report = run_experiment(cfg)
        assert report.engines == ["unif", "cmc"]
        assert len(report.h_opt["unif"]) == 2
        assert len(report.h_opt["cmc"]) == 2
        assert report.seconds_per_run["unif"] > 0
        assert report.seconds_per_run["cmc"] > 0
        assert report.speedup == pytest.approx(
            report.seconds_per_run["cmc"] / report.seconds_per_run["unif"], rel=0.0
        )
        assert len(report.l1_distance) == 2
        for name in (
            "unif_marginal_1.csv",
            "unif_marginal_2.csv",
            "cmc_marginal_1.csv",
            "cmc_marginal_2.csv",
            "unif_joint.csv",
            "cmc_joint.csv",
            "report.txt",
        ):
            assert os.path.exists(os.path.join(tmp_path, "exp", name))

    def test_report_values_block_consistent(self, tmp_path):
        cfg = parse_config_text(TINY_CFG + f"out = {tmp_path}/exp\n")
        report = run_experiment(cfg)
        text = (tmp_path / "exp" / "report.txt").read_text()
        values = {}
        in_block = False
        for line in text.splitlines():
            if line.strip() == "[values]":
                in_block = True
                continue
            if in_block and "=" in line:
                key, raw = line.split("=", 1)
                values[key.strip()] = float(raw)
        # speedup equals the exact ratio of the recorded per-run times
        assert values["speedup"] == values["cmc.seconds_per_run"] / values["unif.seconds_per_run"]
        assert "unif.h_opt.1" in values and "cmc.h_opt.2" in values
        assert "l1.1" in values and "l1.2" in values
        assert 0.0 < values["unif.crossing_prob.1"] < 1.0
        # the crossing counts add up to the crossing probabilities times the
        # runs; the baseline checks the barrier only on its grid, so none of
        # its crossings is at a jump
        runs = 3000
        for eng in ("unif", "cmc"):
            crossings = values[f"{eng}.interior_crossings"] + values[f"{eng}.at_jump_crossings"]
            assert crossings == round(runs * sum(values[f"{eng}.crossing_prob.{i}"] for i in (1, 2)))
        assert values["unif.at_jump_crossings"] > 0
        assert values["cmc.at_jump_crossings"] == 0
        assert "unif.total_jumps" not in values
        # lambda = 1 over the unit horizon: about one jump per run, fewer
        # where a run retires before the horizon
        assert 0 < values["cmc.total_jumps"] < runs + 5 * math.sqrt(runs)
        # the baseline's work: 100 steps of dt = 0.01 for each cell that
        # never crossed, and at most all 100 for every cell
        assert "unif.stepped_cells" not in values and "unif.live_cells" not in values
        steps = 100
        uncrossed = runs * (2 - values["cmc.crossing_prob.1"] - values["cmc.crossing_prob.2"])
        assert steps * round(uncrossed) < values["cmc.live_cells"]
        assert values["cmc.live_cells"] <= values["cmc.stepped_cells"] <= 2 * steps * runs
        # every count an engine makes is printed, the crossing counts first
        assert list(report.counts["unif"]) == [
            "interior_crossings", "at_jump_crossings", "grazing_entries"
        ]
        assert list(report.counts["cmc"]) == [
            "interior_crossings", "at_jump_crossings", "total_jumps", "stepped_cells", "live_cells"
        ]
        for eng, counts in report.counts.items():
            for name, count in counts.items():
                assert values[f"{eng}.{name}"] == count
        # these barriers fall, and a graze needs a rising one
        assert values["unif.grazing_entries"] == 0
        assert "cmc.grazing_entries" not in values

    def test_density_files_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            cfg = parse_config_text(TINY_CFG + f"out = {tmp_path}/{sub}\n")
            run_experiment(cfg)
        for name in ("unif_marginal_1.csv", "cmc_marginal_2.csv", "unif_joint.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_single_engine_report(self, tmp_path):
        cfg = parse_config_text(
            TINY_CFG.replace("engine = both", "engine = unif")
            + f"out = {tmp_path}/solo\n"
        )
        report = run_experiment(cfg)
        assert report.engines == ["unif"]
        assert report.speedup is None
        assert report.l1_distance is None
        assert not os.path.exists(os.path.join(tmp_path, "solo", "cmc_marginal_1.csv"))

    def test_three_component_model_skips_joint_file(self, tmp_path):
        cfg = parse_config_text(
            f"""
m = 3
x0 = [0.0, 0.0, 0.0]
mu = [0.0, 0.0, 0.0]
sigma = [[0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3]]
lambda = 1.0
jump_mean = [0.0, 0.0, 0.0]
jump_sd = [0.1, 0.1, 0.1]
barrier_intercept = [-0.2, -0.3, -0.4]
barrier_slope = [0.0, 0.0, 0.0]
horizon = 1.0
engine = unif
runs = 2000
seed = 4
out = {tmp_path}/tri
"""
        )
        report = run_experiment(cfg)
        assert len(report.h_opt["unif"]) == 3
        for i in (1, 2, 3):
            assert os.path.exists(os.path.join(tmp_path, "tri", f"unif_marginal_{i}.csv"))
        assert not os.path.exists(os.path.join(tmp_path, "tri", "unif_joint.csv"))
