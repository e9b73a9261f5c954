"""Tests of the benchmark itself: the output checks reject wrong answers,
and the command prints exactly the metrics BENCHMARK.json declares.

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
from hessiancone import cli, cones, presets, solve  # noqa: E402
from hessiancone.geometry import CylinderGeometry, GridGeometry, ScalarField  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
M = 8  # small grids keep the reference solves to seconds


def _solve(geom, fun, psi_name, sub, eps=0.0):
    prob = presets.build_problem(geom, fun, psi_name, "zero", sub)
    psi = ScalarField(geom=geom, values=prob.psi.values + eps)
    solver = solve.continuity_solve if geom.is_complex else solve.solve_riemannian
    u, _ = solver(fun, prob.chi, psi, prob.phi, prob.u_sub)
    return u.values


@pytest.fixture(scope="module")
def complex_manufactured():
    return _solve(GridGeometry(n=2, resolution=M), cones.monge_ampere(2),
                  "manufactured", "star-bump")


@pytest.fixture(scope="module")
def real_manufactured():
    return _solve(CylinderGeometry(d=3, resolution=M), cones.monge_ampere(3),
                  "manufactured", "star-bump")


@pytest.fixture(scope="module")
def degenerate():
    return _solve(GridGeometry(n=2, resolution=M), cones.monge_ampere(2),
                  "degenerate-cos", "zero", eps=1e-3)


def _bump(u, amplitude):
    """amplitude sin(pi x_dirichlet): zero on both faces."""
    x = checks.coords(u.shape, M)[2]
    return u + amplitude * np.sin(np.pi * x)


def _face_moved(u):
    v = u.copy()
    v[:, :, 0, ...] += 1e-12
    return v


class TestSolveChecks:
    def test_manufactured_complex(self, complex_manufactured):
        u = complex_manufactured
        assert checks.check_complex_manufactured(u, M) == []
        assert checks.check_complex_manufactured(_bump(u, 0.01), M)
        assert checks.check_complex_manufactured(_face_moved(u), M)

    def test_manufactured_real(self, real_manufactured):
        u = real_manufactured
        assert checks.check_real_manufactured(u, M) == []
        assert checks.check_real_manufactured(_bump(u, 0.01), M)
        assert checks.check_real_manufactured(_face_moved(u), M)

    def test_residual_alone_catches_a_small_bump(self, complex_manufactured):
        star, psi = checks.trig_star(complex_manufactured.shape, M)
        r = checks.complex_ma_residual(_bump(complex_manufactured, 1e-5), M, psi)
        assert np.abs(r).max() > checks.RESIDUAL_TOL

    def test_degenerate(self, degenerate):
        u = degenerate
        assert checks.check_complex_degenerate(u, M, 1e-3) == []
        assert checks.check_complex_degenerate(_bump(u, 0.01), M, 1e-3)
        assert checks.check_complex_degenerate(_face_moved(u), M, 1e-3)
        # the sandwich alone: u = majorant + bump, and u = -bump
        x = checks.coords(u.shape, M)[2]
        above = 4 * x * (1 - x) + 0.01 * np.sin(np.pi * x)
        assert any("majorant" in p for p in checks.check_complex_degenerate(
            np.broadcast_to(above, u.shape), M, 1e-3))
        below = np.broadcast_to(-0.01 * np.sin(np.pi * x), u.shape)
        assert any("subsolution" in p for p in checks.check_complex_degenerate(
            below, M, 1e-3))


NS, EPS = (2, 3), (0.2,)
PICKS = np.arange(0, 512, 32)
CONE_ROWS = ["kind,check,samples,failures,stat"] + [
    f"{kind},{check},10,0," for kind in worker.CONE_KINDS
    for check in ("gradient_positivity", "fd_gradient", "ray_unique")
]


@pytest.fixture()
def studies_out(tmp_path):
    cfg = tmp_path / "lemma.cfg"
    cfg.write_text("ns = 2 3\neps = 0.2\ntrials = 600\n")
    assert cli.main(["lemma-sweep", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    (tmp_path / "cone_check.csv").write_text("# header\n" + "\n".join(CONE_ROWS) + "\n")
    return tmp_path


def _edit_cell(path, row_index, column, value):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row_index].split(",")
    cells[header.index(column)] = value
    lines[2 + row_index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestStudiesChecks:
    def _check(self, out, cone_exit=0):
        return checks.check_studies(out, 0, PICKS, NS, EPS, worker.CONE_KINDS, cone_exit)

    def test_clean_outputs_pass(self, studies_out):
        assert self._check(studies_out) == []

    def test_nonzero_violation(self, studies_out):
        _edit_cell(studies_out / "lemma_weak.csv", 0, "violations", "1")
        assert self._check(studies_out)

    def test_nonzero_cone_failure(self, studies_out):
        _edit_cell(studies_out / "cone_check.csv", 0, "failures", "1")
        assert self._check(studies_out)

    def test_fd_gradient_exempt_only_in_a_failed_run(self, studies_out):
        _edit_cell(studies_out / "cone_check.csv", 1, "failures", "1")
        assert self._check(studies_out, cone_exit=0)
        assert self._check(studies_out, cone_exit=1) == []

    def test_missing_row(self, studies_out):
        path = studies_out / "lemma_strong.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        assert self._check(studies_out)

    def test_understated_max_dev(self, studies_out):
        _edit_cell(studies_out / "lemma_strong.csv", 0, "max_dev", "1e-6")
        assert self._check(studies_out)

    def test_recheck_catches_a_low_threshold(self, monkeypatch):
        assert checks.recheck_strong(0, 4, 0.05, 0.05, PICKS) == []
        monkeypatch.setattr(checks, "strong_threshold",
                            lambda d, a, eps: 0.1 * np.abs(d).sum(axis=-1))
        assert checks.recheck_strong(0, 4, 0.05, 0.05, PICKS)


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names():
    spec = _benchmark()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert tuple(w["name"] for w in spec["workloads"]) == worker.WORKLOADS


@pytest.mark.parametrize("trace_flag,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace_flag, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "studies", "--seed", "0",
         "--seconds", "0", "--trace", str(trace_flag)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in _benchmark()[section]}
    assert printed == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "studies", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
