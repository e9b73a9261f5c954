"""Every name a module lists in ``__all__`` exists, so ``import *`` works,
every public function and class a module defines is listed there, and
every boundary the benchmark's tracer wraps exists."""

import importlib
import inspect
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


# the modules that declare their public surface (cli is the front-end)
EXPORTING = [name for name in MODULES
             if hasattr(importlib.import_module(f"hessiancone.{name}"), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_public_names_are_listed(name):
    # a module-level function or class without a leading underscore is
    # public, so __all__ names it; a helper is private
    module = importlib.import_module(f"hessiancone.{name}")
    public = [x for x, obj in vars(module).items()
              if not x.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert sorted(set(public) - set(module.__all__)) == []


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


def _run_python(code, tmp_path):
    src = str(Path(hessiancone.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src))


def test_cli_import_leaves_out_scipy(tmp_path):
    # the package needs numpy alone, so no command pays for importing
    # scipy at start-up
    code = ("import sys, hessiancone.cli, hessiancone.presets; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert _run_python(code, tmp_path).stdout.strip() == "[]"


def test_solve_and_sweep_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import fail
    code = """
import sys
sys.modules["scipy"] = None
from hessiancone import cli, cones, presets, solve
from hessiancone.geometry import GridGeometry, ScalarField
geom, fun = GridGeometry(n=2, resolution=8), cones.monge_ampere(2)
prob = presets.build_problem(geom, fun, "degenerate-cos", "zero", "zero")
psi = ScalarField(geom=geom, values=prob.psi.values + 1e-3)
u, report = solve.continuity_solve(fun, prob.chi, psi, prob.phi, prob.u_sub)
assert report.final_residual <= solve.SolverConfig().tolerance
print(cli.main(["lemma-sweep", "--config", "run.cfg", "--out", "out"]))
"""
    (tmp_path / "run.cfg").write_text("ns = 2 3\ntrials = 200\n")
    assert _run_python(code, tmp_path).stdout.strip() == "0"
