import importlib
import pkgutil

import pytest

import fptmc

MODULES = ["fptmc"] + [f"fptmc.{m.name}" for m in pkgutil.iter_modules(fptmc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
