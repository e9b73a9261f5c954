"""Analytic preset families: exactness of their Hessians and coherence of
assembled problems."""

import numpy as np
import pytest

from hessiancone import cones as cn
from hessiancone import presets as pr
from hessiancone.geometry import CylinderGeometry, GridGeometry, ScalarField
from hessiancone.operators import form_field


class TestTrigStar:
    def test_analytic_hessian_matches_discrete_at_order2(self):
        errs = {}
        for m in (8, 16):
            geom = GridGeometry(n=2, resolution=m)
            star = ScalarField(geom=geom, values=pr.trig_star_values(geom))
            discrete = form_field(star, None)
            analytic = pr.trig_star_hessian(geom)[geom.interior]
            errs[m] = float(np.abs(discrete - analytic).max())
        assert 1.7 <= np.log2(errs[8] / errs[16]) <= 2.3

    def test_boundary_trace_vanishes(self):
        geom = GridGeometry(n=2, resolution=8)
        vals = pr.trig_star_values(geom)
        for face in (0, 1):
            assert np.abs(vals[geom.boundary_slicer(face)]).max() <= 1e-15

    def test_default_amplitude_admissible(self):
        geom = GridGeometry(n=2, resolution=8)
        fun = cn.monge_ampere(2)
        psi = pr.manufactured_psi(fun, pr.chi_identity(geom),
                                  pr.trig_star_hessian(geom))
        assert psi.min() > 0.3


class TestRealStar:
    def test_analytic_hessian_matches_discrete_at_order2(self):
        errs = {}
        for m in (8, 16):
            geom = CylinderGeometry(d=3, resolution=m)
            star = ScalarField(geom=geom, values=pr.real_star_values(geom))
            discrete = form_field(star, None)
            analytic = pr.real_star_hessian(geom)[geom.interior]
            errs[m] = float(np.abs(discrete - analytic).max())
        assert 1.7 <= np.log2(errs[8] / errs[16]) <= 2.3


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
        for face in (0, 1):
            sl = geom.boundary_slicer(face)
            np.testing.assert_allclose(prob.u_sub.values[sl],
                                       prob.phi.values[sl], atol=1e-14)

    def test_amplitude_guard_raises(self):
        geom = GridGeometry(n=2, resolution=8)
        fun = cn.monge_ampere(2)
        with pytest.raises(ValueError, match="amplitude"):
            pr.manufactured_psi(fun, pr.chi_identity(geom),
                                pr.trig_star_hessian(geom, amplitude=0.1))
