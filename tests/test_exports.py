"""Every name a module lists in ``__all__`` exists, so ``import *`` works,
and every boundary the benchmark's tracer wraps exists."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hessiancone

# importing __main__ would run the command line
MODULES = sorted(m.name for m in pkgutil.iter_modules(hessiancone.__path__)
                 if m.name != "__main__")


def test_every_module_is_listed():
    assert {"arrowhead", "cli", "cones", "geometry", "linsolve", "operators",
            "presets", "solve"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"hessiancone.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []


def _tracer_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, path, layer", _tracer_spans().WRAPPED)
def test_traced_boundary_exists(module_name, path, layer):
    # a renamed boundary is skipped by the tracer with a warning and its
    # layer reads 0
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_cli_import_leaves_out_scipy_sparse():
    # the Krylov solver is in the package, so no command pays for
    # importing scipy.sparse at start-up
    src = str(Path(hessiancone.__file__).resolve().parents[1])
    code = ("import sys, hessiancone.cli; "
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
