"""Every script in demos/ runs to its end through the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# a phrase each demo prints once its computation is done
EXPECTED = {
    "arrowhead_concentration": "sweep at 1/4 threshold",
    "barrier_inspection": "max barrier on edge",
    "boundary_scaling_study": "max/min ratio over the family",
    "cone_level_sets": "Euler identity",
    "degenerate_approximation": "Laplacian spread across eps",
    "riemannian_cylinder": "sigma_1 on T^1 x [0,1]",
    "solve_monge_ampere": "observed convergence order",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert EXPECTED[demo.stem] in capsys.readouterr().out
