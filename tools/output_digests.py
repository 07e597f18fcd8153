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
  without the timings (``*.seconds_per_run`` and ``speedup``).
"""

import hashlib
import os
import tempfile

import numpy as np

from fptmc import CmcConfig, parse_config, run_cmc, run_engine, run_experiment
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
    print("\n".join(lines))


if __name__ == "__main__":
    main()
