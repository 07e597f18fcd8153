"""Smoke test of the benchmark itself, at tiny run counts.

    python3 -m pytest perfbench/tests -q

Checks the output contract (every metric named in BENCHMARK.json is printed
with its unit), that the correctness gate fails against a wrong reference,
and that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    out = last_json(run_bench(workload, trace, "--scale", "0.02"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = out["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_gate_fails_on_wrong_reference(tmp_path):
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for entry in reference.values():
        entry["crossing_prob"] = [p - 0.2 for p in entry["crossing_prob"]]
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(reference))
    out = last_json(run_bench("ex1-density", 0, "--scale", "0.02", "--reference", str(wrong)))
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
