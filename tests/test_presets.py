"""Analytic preset families: exactness of their Hessians and coherence of
assembled problems."""

import numpy as np
import pytest

from hessiancone import cones as cn
from hessiancone import presets as pr
from hessiancone.geometry import CylinderGeometry, GridGeometry, ScalarField
from hessiancone.operators import form_field

from dense_forms import dense_form


STAR_CASES = [GridGeometry(n=2, resolution=8), GridGeometry(n=3, resolution=4),
              CylinderGeometry(d=3, resolution=8), CylinderGeometry(d=4, resolution=8)]


def star_id(geom):
    return (f"complex-{geom.n}" if geom.is_complex else f"cylinder-{geom.d}")


@pytest.mark.parametrize("geom", STAR_CASES, ids=star_id)
class TestStar:
    """The one star family on both geometries, its Hessian through the
    complex-structure map on the complex model."""

    def test_analytic_hessian_matches_discrete_at_order2(self, geom):
        errs = {}
        for m in (geom.resolution, 2 * geom.resolution):
            grid = type(geom)(geom.form_dim, m)
            star = ScalarField(geom=grid, values=pr.star_values(grid))
            discrete = dense_form(form_field(star, None), grid.is_complex)
            analytic = dense_form(pr.star_hessian(grid)[(slice(None),) + grid.interior],
                                  grid.is_complex)
            errs[m] = float(np.abs(discrete - analytic).max())
        assert 1.7 <= np.log2(errs[geom.resolution] / errs[2 * geom.resolution]) <= 2.3

    def test_boundary_trace_vanishes(self, geom):
        assert np.abs(pr.star_values(geom)[geom.faces]).max() <= 1e-15

    def test_amplitude_guard(self, geom):
        # the default amplitude is admissible with a margin; five times the
        # complex model's trips the guard on both geometries
        fun = cn.monge_ampere(geom.form_dim)
        chi = pr.chi_identity(geom)
        assert pr.manufactured_psi(fun, chi, pr.star_hessian(geom)).min() > 0.3
        with pytest.raises(ValueError, match="amplitude"):
            pr.manufactured_psi(fun, chi, pr.star_hessian(geom, amplitude=0.1))


class TestTrigStar:
    def test_default_amplitude_admissible(self):
        geom = GridGeometry(n=2, resolution=8)
        fun = cn.monge_ampere(2)
        psi = pr.manufactured_psi(fun, pr.chi_identity(geom),
                                  pr.star_hessian(geom))
        assert psi.min() > 0.3


class TestBuildProblem:
    def test_unknown_names_rejected(self):
        geom = GridGeometry(n=2, resolution=4)
        fun = cn.monge_ampere(2)
        with pytest.raises(ValueError):
            pr.build_problem(geom, fun, "nope", "zero", "zero")
        with pytest.raises(ValueError):
            pr.build_problem(geom, fun, "one", "nope", "zero")
        with pytest.raises(ValueError):
            pr.build_problem(geom, fun, "one", "zero", "nope")

    def test_degenerate_cos_hits_zero_exactly(self):
        geom = GridGeometry(n=2, resolution=8)
        fun = cn.monge_ampere(2)
        prob = pr.build_problem(geom, fun, "degenerate-cos", "zero", "zero")
        assert prob.psi.values.min() == 0.0
        assert cn.delta_nondegeneracy(fun, prob.psi.values.ravel()) == 0.0

    def test_scaled_cos_traces_match(self):
        geom = GridGeometry(n=2, resolution=8)
        fun = cn.monge_ampere(2)
        prob = pr.build_problem(geom, fun, "one", "scaled-cos", "scaled-cos",
                                scale=8.0)
        np.testing.assert_allclose(prob.u_sub.values[geom.faces],
                                   prob.phi.values[geom.faces], atol=1e-14)

    def test_amplitude_guard_raises(self):
        geom = GridGeometry(n=2, resolution=8)
        fun = cn.monge_ampere(2)
        with pytest.raises(ValueError, match="amplitude"):
            pr.manufactured_psi(fun, pr.chi_identity(geom),
                                pr.star_hessian(geom, amplitude=0.1))
