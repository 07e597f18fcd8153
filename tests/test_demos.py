import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run from a scratch directory holding the configs, so output the demo
    # writes next to itself stays out of the repository; development mode,
    # with a RuntimeWarning or a ResourceWarning failing the run
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    strict = ["-X", "dev", "-W", "error::RuntimeWarning", "-W", "error::ResourceWarning"]
    proc = subprocess.run(
        [sys.executable, *strict, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
