"""Print a SHA-256 digest of every output the engines and the density layer
produce on fixed seeds, one ``<label> <sha256>`` line each.

A change that should leave the output bitwise unchanged prints the same
lines as its parent commit:

    PYTHONPATH=src python tools/output_digests.py > after.txt

The digests depend on the platform's floating-point libraries, so compare
them only between runs on one machine.  The runs, on the bundled configs:

- ``run_engine`` on example1 (100,000 runs, seed 7, 2 workers) and on
  example3 (300,000 runs, seed 8, 2 workers);
- ``run_cmc`` on example2 (20,000 runs, seed 9, its own dt);
- ``run_experiment`` on example2 with both engines (20,000 runs, dt 1e-3),
  into a temporary directory: each CSV, and the report's ``[values]`` lines
  without the timings (``*.seconds_per_run`` and ``speedup``);

and on models that reach the engines' other inputs:

- example1's model with no jumps (lambda = 0), through ``run_engine``
  (100,000 runs, seed 10, 2 workers) and ``run_cmc`` (20,000 runs, seed 11,
  dt 1e-3);
- example1's first component alone, a single-component model with a
  positive sigma, through ``run_cmc`` (20,000 runs, seed 12, dt 1e-3);
- a rising barrier, where ``run_engine`` records grazing entries: x0 0,
  mu 0, intercept -0.3, slope 0.5, sigma 0.2, lambda 3, jump sd 0.05 and
  horizon 1 (100,000 runs, seed 1, 2 workers);
- three components with a full lower-triangular sigma, so each diffusion
  step mixes every component's normals: x0 0, mu [-0.01, 0, 0.01], sigma
  [[0.2, 0, 0], [0.1, 0.17, 0], [0.06, 0.05, 0.18]], lambda 2, jump sd 0.1,
  intercepts [-0.1, -0.15, -0.2], slopes [0, -0.05, 0] and horizon 1,
  through ``run_engine`` (100,000 runs, seed 13, 2 workers) and ``run_cmc``
  (20,000 runs, seed 14, dt 1e-3).
"""

import hashlib
import os
import tempfile

import numpy as np

from fptmc import CmcConfig, ModelSpec, parse_config, run_cmc, run_engine, run_experiment
from fptmc.config import apply_overrides

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def config(name: str):
    return parse_config(os.path.join(CONFIGS, f"{name}.cfg"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(a) -> str:
    """Digest of an array's dtype, shape and values."""
    a = np.ascontiguousarray(a)
    return digest(f"{a.dtype.str} {a.shape}".encode() + a.tobytes())


def result_lines(label: str, result) -> list[str]:
    arrays = {"times": result.times, "kinds": result.kinds}
    for i, (ws, rows) in enumerate(zip(result.marginals, result.marginal_run_indices)):
        arrays[f"marginal.{i + 1}.times"] = ws.times
        arrays[f"marginal.{i + 1}.runs"] = rows
    arrays["joint.times"] = result.joint.times
    arrays["joint.runs"] = result.joint_run_indices
    arrays["crossing_probabilities"] = result.crossing_probabilities()
    lines = [f"{label}.{name} {array_digest(a)}" for name, a in arrays.items()]
    diagnostics = repr(sorted(result.diagnostics.items())).encode()
    return lines + [f"{label}.diagnostics {digest(diagnostics)}"]


def experiment_lines(label: str, cfg) -> list[str]:
    with tempfile.TemporaryDirectory() as out:
        run_experiment(apply_overrides(cfg, out=out))
        lines = []
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as handle:
                data = handle.read()
            if name == "report.txt":
                values = data.decode().split("[values]\n", 1)[1].splitlines()
                kept = [
                    line
                    for line in values
                    if not line.split(" = ")[0].endswith(("seconds_per_run", "speedup"))
                ]
                data = "\n".join(kept).encode()
                name = "report.values"
            lines.append(f"{label}.{name} {digest(data)}")
    return lines


def main() -> None:
    lines = []
    for name, n_runs, seed in (("example1", 100_000, 7), ("example3", 300_000, 8)):
        spec = config(name).to_model_spec()
        lines += result_lines(f"{name}.unif", run_engine(spec, n_runs, seed=seed, workers=2))
    cfg = config("example2")
    cmc = CmcConfig(dt=cfg.dt, n_runs=20_000, seed=9)
    lines += result_lines("example2.cmc", run_cmc(cfg.to_model_spec(), cmc))
    both = apply_overrides(cfg, engine="both", runs=20_000, dt=1e-3)
    lines += experiment_lines("example2.both", both)

    no_jumps = apply_overrides(config("example1"), jump_rate=0.0).to_model_spec()
    lines += result_lines("example1.lam0.unif", run_engine(no_jumps, 100_000, seed=10, workers=2))
    lines += result_lines(
        "example1.lam0.cmc", run_cmc(no_jumps, CmcConfig(dt=1e-3, n_runs=20_000, seed=11))
    )
    ex1 = config("example1")
    first = ModelSpec(
        m=1,
        x0=ex1.x0[:1],
        mu=ex1.mu[:1],
        sigma=[ex1.sigma[0][:1]],
        jump_rate=ex1.jump_rate,
        jump_mean=ex1.jump_mean[:1],
        jump_sd=ex1.jump_sd[:1],
        barrier_intercept=ex1.barrier_intercept[:1],
        barrier_slope=ex1.barrier_slope[:1],
        horizon=ex1.horizon,
    )
    lines += result_lines(
        "example1.first.cmc", run_cmc(first, CmcConfig(dt=1e-3, n_runs=20_000, seed=12))
    )
    rising = ModelSpec(
        m=1,
        x0=[0.0],
        mu=[0.0],
        sigma=[[0.2]],
        jump_rate=3.0,
        jump_mean=[0.0],
        jump_sd=[0.05],
        barrier_intercept=[-0.3],
        barrier_slope=[0.5],
        horizon=1.0,
    )
    lines += result_lines("rising.unif", run_engine(rising, 100_000, seed=1, workers=2))
    mixed = ModelSpec(
        m=3,
        x0=[0.0, 0.0, 0.0],
        mu=[-0.01, 0.0, 0.01],
        sigma=[[0.2, 0.0, 0.0], [0.1, 0.17, 0.0], [0.06, 0.05, 0.18]],
        jump_rate=2.0,
        jump_mean=[0.0, 0.0, 0.0],
        jump_sd=[0.1, 0.1, 0.1],
        barrier_intercept=[-0.1, -0.15, -0.2],
        barrier_slope=[0.0, -0.05, 0.0],
        horizon=1.0,
    )
    lines += result_lines("mixed3.unif", run_engine(mixed, 100_000, seed=13, workers=2))
    lines += result_lines(
        "mixed3.cmc", run_cmc(mixed, CmcConfig(dt=1e-3, n_runs=20_000, seed=14))
    )
    print("\n".join(lines))


if __name__ == "__main__":
    main()
