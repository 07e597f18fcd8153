import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fptmc

MODULES = ["fptmc"] + [f"fptmc.{m.name}" for m in pkgutil.iter_modules(fptmc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never uses.  A name counts as used where
    it is read anywhere in the module, annotations included, or listed in
    ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(fptmc.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from fptmc import parse_config, run_experiment
from fptmc.config import apply_overrides
cfg = apply_overrides(parse_config(sys.argv[1]), runs=2000, dt=0.01,
                      grid_1d=64, grid_2d=16, out=sys.argv[2])
report = run_experiment(cfg)
assert 0.0 < report.crossing_prob["unif"][0] < 1.0
assert 0.0 < report.crossing_prob["cmc"][0] < 1.0
"""


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: the package imports and runs without it
    src = os.path.dirname(os.path.dirname(fptmc.__file__))
    config = os.path.join(os.path.dirname(src), "configs", "example1.cfg")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, config, str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
