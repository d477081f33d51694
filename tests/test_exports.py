"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import ou_drift_bench

_MODULES = sorted(m.name for m in pkgutil.iter_modules(ou_drift_bench.__path__))


@pytest.mark.parametrize("module_name", ["__init__"] + _MODULES)
def test_all_names_resolve(module_name):
    if module_name == "__init__":
        module = ou_drift_bench
    else:
        module = importlib.import_module(f"ou_drift_bench.{module_name}")
    names = module.__all__
    assert len(names) == len(set(names)), f"{module.__name__}.__all__ repeats a name"
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names missing attributes"
