"""Every exported name resolves, in the package and in each module; no
module imports another's private names; the command line imports only what
it uses."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_package_exports_are_the_module_exports():
    # the package declares no name of its own beyond __version__
    joined = ["__version__"]
    for module_name in ("errors", "ou_core", "estimators", "oracles", "metrics", "harness"):
        joined += importlib.import_module(f"ou_drift_bench.{module_name}").__all__
    assert ou_drift_bench.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_no_module_imports_a_private_name():
    # What one module takes from another is that module's public interface;
    # the command line once imported three private harness names.
    found = []
    for path in sorted(Path(ou_drift_bench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            ours = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("ou_drift_bench")
            )
            if ours:
                found += [
                    f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_cli_and_distances_leave_out_scipy():
    # scipy is the tests' reference library, not a dependency: importing
    # scipy.special alone once took more than half of every command's
    # start-up and 26 MiB, and scipy.signal once 1 s and 50 MiB.  yaml is
    # read only with a config file; imported with the command line, it took
    # 13-18 ms of every command's start-up.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ou_drift_bench.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    code = (
        "import sys, ou_drift_bench.cli\n"
        "from ou_drift_bench import distance_report, w1_to_std_normal\n"
        "sample = [-1.5, -0.2, 0.1, 0.7, 2.0]\n"
        "distance_report(sample, n_bootstrap=20)\n"
        "w1_to_std_normal(sample)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
