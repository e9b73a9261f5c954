"""Discrete Hessian operators, per-node eigenvalues, and linearization.

Quadratic fields are differentiated exactly by the centered stencils away
from the periodic wrap seam; nodes whose stencil crosses the seam are
excluded where a global quadratic cannot respect the identification.
"""

import numpy as np
import pytest

from hessiancone import arrowhead as ah
from hessiancone import cones as cn
from hessiancone import operators as op
from hessiancone.geometry import CylinderGeometry, GridGeometry, ScalarField

GEOM = GridGeometry(n=2, resolution=8)


def off_seam(geom):
    """Interior-node mask away from periodic wrap seams."""
    mask = np.ones(geom.interior_shape, dtype=bool)
    for a in geom.periodic_axes:
        sl = [slice(None)] * geom.real_dims
        sl[a] = 0
        mask[tuple(sl)] = False
        sl[a] = -1
        mask[tuple(sl)] = False
    return mask


class TestComplexHessian:
    def test_zero_field_returns_chi(self):
        chi = np.array([[2.0, 1j], [-1j, 3.0]])
        g = op.complex_hessian(ScalarField.zeros(GEOM), chi)
        assert np.allclose(g.values, chi)

    def test_mod_z1_squared(self):
        # |z_1|^2 has dd-bar = diag(1, 0); exact off the wrap seam
        u = ScalarField.from_function(
            GEOM, lambda x1, y1, x2, y2: x1**2 + y1**2
        )
        g = op.complex_hessian(u, np.eye(2))
        m = off_seam(GEOM)
        assert np.allclose(g.values[m][:, 0, 0], 2.0)
        assert np.allclose(g.values[m][:, 1, 1], 1.0)
        assert np.allclose(g.values[m][:, 0, 1], 0.0)

    def test_pluriharmonic(self):
        # Re(z_n^2) = x_n^2 - y_n^2 is pluriharmonic: dd-bar = 0
        u = ScalarField.from_function(
            GEOM, lambda x1, y1, x2, y2: x2**2 - y2**2
        )
        g = op.complex_hessian(u, np.eye(2))
        m = off_seam(GEOM)
        assert np.allclose(g.values[m], np.eye(2))

    def test_hermitian_exact(self):
        rng = np.random.default_rng(0)
        u = ScalarField(geom=GEOM, values=rng.standard_normal(GEOM.shape))
        g = op.complex_hessian(u, None)
        np.testing.assert_array_equal(
            g.values, np.conj(np.swapaxes(g.values, -1, -2))
        )

    def test_min_resolution_guard(self):
        with pytest.raises(ValueError):
            GridGeometry(n=2, resolution=2)


class TestEigenField:
    def test_diagonal(self):
        u = ScalarField.zeros(GEOM)
        g = op.complex_hessian(u, np.diag([3.0, -1.0]).astype(complex))
        lam = op.eigen_field(g)
        assert np.allclose(lam[..., 0], -1.0) and np.allclose(lam[..., 1], 3.0)

    def test_closed_form_2x2(self):
        g = op.complex_hessian(
            ScalarField.zeros(GEOM), np.array([[2.0, 1.0], [1.0, 2.0]])
        )
        lam = op.eigen_field(g)
        assert np.allclose(lam[..., 0], 1.0) and np.allclose(lam[..., 1], 3.0)

    def test_matches_arrowhead_module(self):
        spec = ah.ArrowheadSpec(d=[0.7], a_off=[0.3 + 0.4j], corner=2.0)
        g = op.complex_hessian(ScalarField.zeros(GEOM), ah.assemble(spec))
        lam = op.eigen_field(g)
        expected = ah.eigenvalues(spec).values
        np.testing.assert_allclose(lam[0, 0, 0, 0], expected, atol=1e-10)


class TestResidual:
    def test_trivial_ma(self):
        fun = cn.monge_ampere(2)
        psi = ScalarField(geom=GEOM, values=np.ones(GEOM.shape))
        r = op.residual(ScalarField.zeros(GEOM), fun, psi, np.eye(2))
        assert np.abs(r).max() == 0.0

    def test_subsolution_start_is_zero(self):
        from hessiancone import presets as pr

        fun = cn.monge_ampere(2)
        prob = pr.build_problem(GEOM, fun, "manufactured", "zero", "star-bump")
        lam = op.eigen_field(op.complex_hessian(prob.u_sub, prob.chi))
        psi0 = cn.f_many(fun, lam)
        r = op.residual(prob.u_sub, fun, psi0, prob.chi)
        assert np.abs(r).max() == 0.0

    def test_manufactured_consistency_order(self):
        # residual of the exact reference decays at second order
        from hessiancone import presets as pr

        fun = cn.monge_ampere(2)
        sups = {}
        for m in (8, 16):
            geom = GridGeometry(n=2, resolution=m)
            prob = pr.build_problem(geom, fun, "manufactured", "zero", "star-bump")
            r = op.residual(prob.u_star, fun, prob.psi, prob.chi)
            sups[m] = np.abs(r).max()
        order = np.log2(sups[8] / sups[16])
        assert 1.7 <= order <= 2.3

    def test_inadmissible_node_reported(self):
        fun = cn.monge_ampere(2)
        psi = ScalarField(geom=GEOM, values=np.ones(GEOM.shape))
        with pytest.raises(op.AdmissibilityError) as err:
            op.residual(ScalarField.zeros(GEOM), fun, psi, -np.eye(2))
        assert len(err.value.node) == 4


class TestLinearize:
    def test_sigma1_is_identity(self):
        fun = cn.sigma_k_root(2, 1)
        F = op.linearize(ScalarField.zeros(GEOM), fun, np.eye(2))
        assert np.allclose(F.values, np.eye(2))

    def test_ma_hand_value(self):
        fun = cn.monge_ampere(2)
        F = op.linearize(
            ScalarField.zeros(GEOM), fun, np.diag([1.0, 4.0]).astype(complex)
        )
        np.testing.assert_allclose(F.values[0, 0, 0, 0], np.diag([1.0, 0.25]),
                                   atol=1e-12)

    def test_repeated_eigenvalue_cluster(self):
        fun = cn.monge_ampere(2)
        F = op.linearize(ScalarField.zeros(GEOM), fun, np.eye(2))
        assert np.allclose(F.values, 0.5 * np.eye(2))

    def test_directional_derivative(self):
        rng = np.random.default_rng(5)
        fun = cn.monge_ampere(2)
        # second differences amplify by 1/h^2; keep the field admissible
        u = ScalarField(
            geom=GEOM, values=1e-4 * rng.standard_normal(GEOM.shape)
        )
        chi = np.eye(2, dtype=complex)
        F = op.linearize(u, fun, chi)
        g = op.complex_hessian(u, chi)
        E = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        E = 0.5 * (E + E.conj().T)
        s = 1e-5
        lam0 = np.linalg.eigvalsh(g.values)
        lam1 = np.linalg.eigvalsh(g.values + s * E)
        fd = (cn.f_many(fun, lam1) - cn.f_many(fun, lam0)) / s
        analytic = np.real(np.einsum("...ij,ji->...", F.values, E))
        np.testing.assert_allclose(fd, analytic, atol=1e-4)

    def test_ellipticity(self):
        from hessiancone import presets as pr

        fun = cn.monge_ampere(2)
        prob = pr.build_problem(GEOM, fun, "manufactured", "zero", "star-bump")
        F = op.linearize(prob.u_sub, fun, prob.chi)
        lam = np.linalg.eigvalsh(F.values)
        assert lam.min() > 0
        C = op.coefficient_tensor(F)
        lc = np.linalg.eigvalsh(C)
        assert lc.min() > 0


class TestCoefficientTensor:
    def test_sigma1_quarter_laplacian(self):
        fun = cn.sigma_k_root(2, 1)
        F = op.linearize(ScalarField.zeros(GEOM), fun, np.eye(2))
        C = op.coefficient_tensor(F)
        assert np.allclose(C, 0.25 * np.eye(4))

    def test_contraction_matches_complex_form(self):
        # sum F^{ij} u_{ij-bar} computed spectrally equals the real-tensor
        # contraction of second partials
        rng = np.random.default_rng(11)
        u = ScalarField(geom=GEOM, values=rng.standard_normal(GEOM.shape))
        Fmat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Fmat = 0.5 * (Fmat + Fmat.conj().T)
        F = op.HermitianFormField(
            geom=GEOM, values=np.broadcast_to(Fmat, GEOM.interior_shape + (2, 2)).copy()
        )
        H = op.complex_hessian(u, None)
        direct = np.real(np.einsum("...ij,...ji->...", F.values, H.values))
        C = op.coefficient_tensor(F)
        via_real = op.apply_second_order(C, u.values, GEOM)
        np.testing.assert_allclose(via_real, direct, atol=1e-10)


class TestRealHessian:
    def test_quadratic_exact(self):
        geom = CylinderGeometry(d=3, resolution=8)
        x3 = geom.grids()[2]
        u = ScalarField(
            geom=geom, values=np.broadcast_to(x3 * (1 - x3), geom.shape).copy()
        )
        g = op.real_hessian(u, np.eye(3))
        expected = np.eye(3) + np.diag([0.0, 0.0, -2.0])
        assert np.allclose(g.values, expected)

    def test_symmetry(self):
        geom = CylinderGeometry(d=3, resolution=8)
        rng = np.random.default_rng(1)
        u = ScalarField(geom=geom, values=rng.standard_normal(geom.shape))
        g = op.real_hessian(u, None)
        np.testing.assert_array_equal(g.values, np.swapaxes(g.values, -1, -2))


def ddbar_from_real(D):
    """u_{i jbar} = ((u_{x_i x_j} + u_{y_i y_j}) + i (u_{x_i y_j} - u_{y_i x_j})) / 4
    from real second partials in interleaved (x_1, y_1, ..., x_n, y_n) order."""
    X, Y = D[..., 0::2, 0::2], D[..., 1::2, 1::2]
    XY, YX = D[..., 0::2, 1::2], D[..., 1::2, 0::2]
    return 0.25 * ((X + Y) + 1j * (XY - YX))


class TestComplexForm:
    def test_interior_and_faces_match_real_hessian(self):
        rng = np.random.default_rng(4)
        u = ScalarField(geom=GEOM, values=rng.standard_normal(GEOM.shape))
        np.testing.assert_allclose(op.complex_hessian(u).values,
                                   ddbar_from_real(op.real_hessian(u).values),
                                   rtol=0, atol=1e-12)
        for H, D in zip(op.boundary_complex_hessian(u), op.boundary_real_hessian(u)):
            np.testing.assert_allclose(H, ddbar_from_real(D), rtol=0, atol=1e-12)


class TestBoundaryDerivatives:
    def test_linear_field_gradient(self):
        c = 0.7
        x2 = GEOM.grids()[2]
        u = ScalarField(geom=GEOM, values=np.broadcast_to(c * x2, GEOM.shape).copy())
        for face in op.gradient_boundary(u):
            np.testing.assert_allclose(face[..., 2], c, atol=1e-13)
            np.testing.assert_allclose(face[..., 0], 0.0, atol=1e-13)

    def test_quadratic_boundary_hessian(self):
        x2 = GEOM.grids()[2]
        u = ScalarField(
            geom=GEOM, values=np.broadcast_to(x2 * (1 - x2), GEOM.shape).copy()
        )
        faces = op.boundary_complex_hessian(u)
        for H in faces:
            np.testing.assert_allclose(H[..., 1, 1], -0.5, atol=1e-12)
            np.testing.assert_allclose(H[..., 0, 0], 0.0, atol=1e-12)
            np.testing.assert_allclose(H[..., 0, 1], 0.0, atol=1e-12)
