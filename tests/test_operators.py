"""Discrete Hessian operators, per-node eigenvalues, and linearization.

Quadratic fields are differentiated exactly by the centered stencils away
from the periodic wrap seam; nodes whose stencil crosses the seam are
excluded where a global quadratic cannot respect the identification.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert np.allclose(g, chi)

    def test_mod_z1_squared(self):
        # |z_1|^2 has dd-bar = diag(1, 0); exact off the wrap seam
        u = ScalarField.from_function(
            GEOM, lambda x1, y1, x2, y2: x1**2 + y1**2
        )
        g = op.complex_hessian(u, np.eye(2))
        m = off_seam(GEOM)
        assert np.allclose(g[m][:, 0, 0], 2.0)
        assert np.allclose(g[m][:, 1, 1], 1.0)
        assert np.allclose(g[m][:, 0, 1], 0.0)

    def test_pluriharmonic(self):
        # Re(z_n^2) = x_n^2 - y_n^2 is pluriharmonic: dd-bar = 0
        u = ScalarField.from_function(
            GEOM, lambda x1, y1, x2, y2: x2**2 - y2**2
        )
        g = op.complex_hessian(u, np.eye(2))
        m = off_seam(GEOM)
        assert np.allclose(g[m], np.eye(2))

    def test_hermitian_exact(self):
        rng = np.random.default_rng(0)
        u = ScalarField(geom=GEOM, values=rng.standard_normal(GEOM.shape))
        g = op.complex_hessian(u, None)
        np.testing.assert_array_equal(
            g, np.conj(np.swapaxes(g, -1, -2))
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
        # psi0 comes from the solver's own path, so the stage-0 residual
        # is an exact zero
        from hessiancone import presets as pr
        from hessiancone import solve as sv

        fun = cn.monge_ampere(2)
        prob = pr.build_problem(GEOM, fun, "manufactured", "zero", "star-bump")
        psi0 = sv._check_subsolution(prob.u_sub, prob.phi, fun, prob.chi,
                                     prob.psi.values[GEOM.interior])
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
        assert np.allclose(F, np.eye(2))

    def test_ma_hand_value(self):
        fun = cn.monge_ampere(2)
        F = op.linearize(
            ScalarField.zeros(GEOM), fun, np.diag([1.0, 4.0]).astype(complex)
        )
        np.testing.assert_allclose(F[0, 0, 0, 0], np.diag([1.0, 0.25]),
                                   atol=1e-12)

    def test_repeated_eigenvalue_cluster(self):
        fun = cn.monge_ampere(2)
        F = op.linearize(ScalarField.zeros(GEOM), fun, np.eye(2))
        assert np.allclose(F, 0.5 * np.eye(2))

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
        lam0 = np.linalg.eigvalsh(g)
        lam1 = np.linalg.eigvalsh(g + s * E)
        fd = (cn.f_many(fun, lam1) - cn.f_many(fun, lam0)) / s
        analytic = np.real(np.einsum("...ij,ji->...", F, E))
        np.testing.assert_allclose(fd, analytic, atol=1e-4)

    def test_ellipticity(self):
        from hessiancone import presets as pr

        fun = cn.monge_ampere(2)
        prob = pr.build_problem(GEOM, fun, "manufactured", "zero", "star-bump")
        F = op.linearize(prob.u_sub, fun, prob.chi)
        lam = np.linalg.eigvalsh(F)
        assert lam.min() > 0
        C = op.coefficient_tensor(F, GEOM)
        lc = np.linalg.eigvalsh(C)
        assert lc.min() > 0


def dense_reference(fun, g):
    """f(lambda(g)) and sum_p f_p v_p v_p^* from the dense eigensolver."""
    lam, vec = np.linalg.eigh(g)
    fp = cn.grad_many(fun, lam)
    return cn.f_many(fun, lam), (vec * fp) @ vec.conj().T, lam


def sigma_condition(fun, lam):
    """max_j sigma_{j-1}(|lambda|) max|lambda| / sigma_j(lambda): the
    relative change of the sigmas under a rounding-size perturbation of g,
    per unit of that perturbation.  It grows like the eigenvalue ratio
    near the cone boundary."""
    m = fun.cone_order
    e, ea = cn.elem_sym(lam, m), cn.elem_sym(np.abs(lam), m)
    return max(ea[j - 1] * np.abs(lam).max() / e[j] for j in range(1, m + 1))


@st.composite
def spectral_cases(draw):
    complex_ = draw(st.booleans())
    # the complex model grid at resolution 3 has 2 * 3^(2n-1) interior
    # nodes (39,366 at n = 5), so complex forms stop at dim 4
    dim = draw(st.integers(2, 4 if complex_ else 6))
    kind = draw(st.sampled_from(("sigma1", "sigmaK", "ma", "quotient")))
    if kind == "sigma1":
        fun = cn.sigma_k_root(dim, 1)
    elif kind == "sigmaK":
        fun = cn.sigma_k_root(dim, draw(st.integers(2, dim)))
    elif kind == "ma":
        fun = cn.monge_ampere(dim)
    else:
        l = draw(st.integers(2, dim))
        fun = cn.hessian_quotient(dim, draw(st.integers(1, l - 1)), l)
    pattern = draw(st.sampled_from(("cone", "repeated", "near", "boundary")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.uniform(-1.0, 1.0, dim)
    while pattern == "cone" and not cn.in_cone(fun, lam):
        lam = rng.uniform(-1.0, 1.0, dim)
    if pattern != "cone":  # positive orthant, inside every cone
        lam = rng.uniform(0.05, 1.0, dim)
    if pattern == "repeated":
        lam[1:draw(st.integers(2, dim))] = lam[0]  # multiplicity 2..dim
    elif pattern == "near":
        lam[1] = lam[0] + 1e-12
    elif pattern == "boundary":
        lam[0] = 10.0 ** draw(st.floats(-8.0, -1.0)) * lam.max()
    if draw(st.booleans()):  # random eigenbasis, else the coordinate one
        z = rng.standard_normal((dim, dim))
        if complex_:
            z = z + 1j * rng.standard_normal((dim, dim))
        basis, _ = np.linalg.qr(z)
        g = (basis * lam) @ basis.conj().T
        g = 0.5 * (g + g.conj().T)
    else:
        g = np.diag(lam).astype(complex)
    if not complex_:
        g = g.real
    return fun, g, complex_


class TestNewtonTensors:
    """The sigma recurrence against the dense eigendecomposition."""

    @given(spectral_cases())
    @settings(max_examples=200, deadline=None)
    def test_residual_and_linearize_match_dense_reference(self, case):
        fun, g, complex_ = case
        dim = g.shape[-1]
        geom = (GridGeometry(n=dim, resolution=3) if complex_
                else CylinderGeometry(d=dim, resolution=3))
        u = ScalarField.zeros(geom)
        f = op.residual(u, fun, 0.0, g)
        F = op.linearize(u, fun, g)
        f_ref, F_ref, lam = dense_reference(fun, g)
        # 1e-12 where the sigmas are well conditioned; near the cone
        # boundary both routes carry the rounding error eps * condition
        tol = 1e-12 + 100 * np.finfo(float).eps * sigma_condition(fun, lam)
        assert np.abs(f - f_ref).max() <= tol * abs(f_ref)
        assert np.abs(F - F_ref).max() <= tol * np.abs(F_ref).max()

    def test_sigmas_of_a_diagonal_matrix(self):
        lam = np.array([2.0, -1.0, 3.0, 0.5])
        sigma, tensors = op.newton_tensors(np.diag(lam), 4)
        np.testing.assert_allclose(sigma, cn.elem_sym(lam, 4), rtol=1e-15)
        # T_{j-1} = diag(d sigma_j / d lambda)
        for j in range(1, 5):
            np.testing.assert_allclose(np.diag(tensors[j - 1]),
                                       cn.elem_sym_grad(lam, j), rtol=1e-15)


class TestCoefficientTensor:
    def test_sigma1_quarter_laplacian(self):
        fun = cn.sigma_k_root(2, 1)
        F = op.linearize(ScalarField.zeros(GEOM), fun, np.eye(2))
        C = op.coefficient_tensor(F, GEOM)
        assert np.allclose(C, 0.25 * np.eye(4))

    def test_contraction_matches_complex_form(self):
        # sum F^{ij} u_{ij-bar} computed spectrally equals the real-tensor
        # contraction of second partials
        rng = np.random.default_rng(11)
        u = ScalarField(geom=GEOM, values=rng.standard_normal(GEOM.shape))
        Fmat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Fmat = 0.5 * (Fmat + Fmat.conj().T)
        F = np.broadcast_to(Fmat, GEOM.interior_shape + (2, 2)).copy()
        H = op.complex_hessian(u, None)
        direct = np.real(np.einsum("...ij,...ji->...", F, H))
        C = op.coefficient_tensor(F, GEOM)
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
        assert np.allclose(g, expected)

    def test_symmetry(self):
        geom = CylinderGeometry(d=3, resolution=8)
        rng = np.random.default_rng(1)
        u = ScalarField(geom=geom, values=rng.standard_normal(geom.shape))
        g = op.real_hessian(u, None)
        np.testing.assert_array_equal(g, np.swapaxes(g, -1, -2))


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
        np.testing.assert_allclose(op.complex_hessian(u),
                                   ddbar_from_real(op.real_hessian(u)),
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


def roll_face_reference(u_full, geom, face):
    """Gradient and real Hessian on one face from np.roll stencils on the
    face layers: the face formulas the padded windows replaced."""
    h, da = geom.h, geom.dirichlet_axis
    h2 = h * h
    idx, sgn = (0, 1) if face == 0 else (geom.shape[da] - 1, -1)
    layers = [np.take(u_full, idx + sgn * k, axis=da) for k in range(4)]
    f0 = layers[0]

    def tangential(f, pos):
        return (np.roll(f, -1, axis=pos) - np.roll(f, 1, axis=pos)) / (2.0 * h)

    def one_sided(ls):
        return sgn * (-3.0 * ls[0] + 4.0 * ls[1] - ls[2]) / (2.0 * h)

    faxes = [a for a in range(geom.real_dims) if a != da]
    r = geom.real_dims
    grad = np.zeros(f0.shape + (r,))
    D = np.zeros(f0.shape + (r, r))
    for pos_a, a in enumerate(faxes):
        grad[..., a] = tangential(f0, pos_a)
        D[..., a, a] = (np.roll(f0, -1, pos_a) - 2.0 * f0 + np.roll(f0, 1, pos_a)) / h2
        for pos_b in range(pos_a + 1, len(faxes)):
            b = faxes[pos_b]
            D[..., a, b] = D[..., b, a] = (
                np.roll(np.roll(f0, -1, pos_a), -1, pos_b)
                - np.roll(np.roll(f0, -1, pos_a), 1, pos_b)
                - np.roll(np.roll(f0, 1, pos_a), -1, pos_b)
                + np.roll(np.roll(f0, 1, pos_a), 1, pos_b)
            ) / (4.0 * h2)
        D[..., a, da] = D[..., da, a] = one_sided([tangential(f, pos_a)
                                                   for f in layers[:3]])
    grad[..., da] = one_sided(layers)
    D[..., da, da] = (2.0 * f0 - 5.0 * layers[1] + 4.0 * layers[2] - layers[3]) / h2
    return grad, D


class TestFaceStencils:
    """The face stencils read the interior's padded windows and keep the
    operation order of the np.roll formulas, so they agree to the bit."""

    @pytest.mark.parametrize("geom", [GridGeometry(n=2, resolution=6),
                                      GridGeometry(n=3, resolution=4),
                                      CylinderGeometry(d=3, resolution=7)],
                             ids=["complex-2", "complex-3", "cylinder-3"])
    def test_bit_identical_to_roll_formulas(self, geom):
        rng = np.random.default_rng(7)
        u = ScalarField(geom=geom, values=rng.standard_normal(geom.shape))
        grads, hessians = op.gradient_boundary(u), op.boundary_real_hessian(u)
        for face in (0, 1):
            grad, D = roll_face_reference(u.values, geom, face)
            np.testing.assert_array_equal(grads[face], grad)
            np.testing.assert_array_equal(hessians[face], D)
        both = u.values[geom.faces]
        for a in geom.periodic_axes:
            rolled = (np.roll(both, -1, axis=a)
                      - np.roll(both, 1, axis=a)) / (2.0 * geom.h)
            np.testing.assert_array_equal(
                op.first_derivative_centered(u.values, geom, a, layer=[0, -1]), rolled)
