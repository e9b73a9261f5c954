"""Discrete Hessian operators, per-node eigenvalues, and linearization.

Quadratic fields are differentiated exactly by the centered stencils away
from the periodic wrap seam; nodes whose stencil crosses the seam are
excluded where a global quadratic cannot respect the identification.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessiancone import arrowhead as ah
from hessiancone import cones as cn
from hessiancone import operators as op
from hessiancone import presets as pr
from hessiancone import solve as sv
from hessiancone.geometry import CylinderGeometry, GridGeometry, ScalarField

from dense_coefficients import (dense_apply, dense_coefficient_tensor, dense_of,
                                distinct_planes)
from dense_forms import (dense_exit_polynomial, dense_form, dense_linearize,
                         dense_newton_tensors, planes_of)

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
        assert np.allclose(dense_form(g, True), chi)

    def test_mod_z1_squared(self):
        # |z_1|^2 has dd-bar = diag(1, 0); exact off the wrap seam
        u = ScalarField.from_function(
            GEOM, lambda x1, y1, x2, y2: x1**2 + y1**2
        )
        g = dense_form(op.complex_hessian(u, np.eye(2)), True)
        m = off_seam(GEOM)
        assert np.allclose(g[m][:, 0, 0], 2.0)
        assert np.allclose(g[m][:, 1, 1], 1.0)
        assert np.allclose(g[m][:, 0, 1], 0.0)

    def test_pluriharmonic(self):
        # Re(z_n^2) = x_n^2 - y_n^2 is pluriharmonic: dd-bar = 0
        u = ScalarField.from_function(
            GEOM, lambda x1, y1, x2, y2: x2**2 - y2**2
        )
        g = dense_form(op.complex_hessian(u, np.eye(2)), True)
        m = off_seam(GEOM)
        assert np.allclose(g[m], np.eye(2))

    def test_hermitian_exact(self):
        # the planes hold the diagonal and the entries i < j alone; the
        # entries they drop are the conjugates of the kept ones, bit for
        # bit, in the complex Hessian of the real one
        rng = np.random.default_rng(0)
        u = ScalarField(geom=GEOM, values=rng.standard_normal(GEOM.shape))
        g = op.complex_hessian(u, None)
        assert g.shape == (GEOM.n**2,) + GEOM.interior_shape
        assert g.dtype == float
        full = ddbar_from_real(dense_form(op.real_hessian(u), False))
        np.testing.assert_array_equal(full, np.conj(np.swapaxes(full, -1, -2)))
        np.testing.assert_allclose(dense_form(g, True), full, rtol=0, atol=1e-12)

    def test_min_resolution_guard(self):
        with pytest.raises(ValueError):
            GridGeometry(n=2, resolution=2)


class TestEigenField:
    def test_diagonal(self):
        u = ScalarField.zeros(GEOM)
        g = op.complex_hessian(u, np.diag([3.0, -1.0]).astype(complex))
        lam = op.eigen_field(dense_form(g, True))
        assert np.allclose(lam[..., 0], -1.0) and np.allclose(lam[..., 1], 3.0)

    def test_closed_form_2x2(self):
        g = op.complex_hessian(
            ScalarField.zeros(GEOM), np.array([[2.0, 1.0], [1.0, 2.0]])
        )
        lam = op.eigen_field(dense_form(g, True))
        assert np.allclose(lam[..., 0], 1.0) and np.allclose(lam[..., 1], 3.0)

    def test_matches_arrowhead_module(self):
        spec = ah.ArrowheadSpec(d=[0.7], a_off=[0.3 + 0.4j], corner=2.0)
        g = op.complex_hessian(ScalarField.zeros(GEOM),
                               ah._assemble(spec.d, spec.a_off, spec.corner))
        lam = op.eigen_field(dense_form(g, True))
        expected = ah.eigenvalues(spec).values
        np.testing.assert_allclose(lam[0, 0, 0, 0], expected, atol=1e-10)


class TestResidual:
    """The residual f(lambda(g[u])) - psi as the solver forms it."""

    def test_trivial_ma(self):
        fun = cn.monge_ampere(2)
        _, rn, _ = sv._residual_and_mask(ScalarField.zeros(GEOM), fun, np.eye(2),
                                         np.ones(GEOM.interior_shape))
        assert rn == 0.0

    def test_subsolution_start_is_zero(self):
        # psi0 comes from the solver's own path, so the stage-0 residual
        # is an exact zero
        fun = cn.monge_ampere(2)
        prob = pr.build_problem(GEOM, fun, "manufactured", "zero", "star-bump")
        psi0, _ = sv._check_subsolution(prob.u_sub, prob.phi, fun, prob.chi,
                                        prob.psi.values[GEOM.interior])
        _, rn, _ = sv._residual_and_mask(prob.u_sub, fun, prob.chi, psi0)
        assert rn == 0.0

    def test_manufactured_consistency_order(self):
        # residual of the exact reference decays at second order
        fun = cn.monge_ampere(2)
        sups = {}
        for m in (8, 16):
            geom = GridGeometry(n=2, resolution=m)
            prob = pr.build_problem(geom, fun, "manufactured", "zero", "star-bump")
            _, sups[m], _ = sv._residual_and_mask(
                prob.u_star, fun, prob.chi, prob.psi.values[geom.interior])
        order = np.log2(sups[8] / sups[16])
        assert 1.7 <= order <= 2.3

    def test_inadmissible_node_reported(self):
        # newton_state names the first inadmissible node by its full-grid
        # index, and the subsolution check passes the index on
        fun = cn.monge_ampere(2)
        zero = ScalarField.zeros(GEOM)
        with pytest.raises(op.AdmissibilityError) as err:
            op.newton_state(zero, fun, -np.eye(2))
        assert err.value.node == (0, 0, 1, 0)  # x_2 the Dirichlet axis
        assert sv._residual_and_mask(zero, fun, -np.eye(2), 1.0) == (None,) * 3
        with pytest.raises(sv.SubsolutionError,
                           match=r"not admissible: .* grid index \(0, 0, 1, 0\)"):
            sv._check_subsolution(zero, zero, fun, -np.eye(2),
                                  np.ones(GEOM.interior_shape))


class TestLinearize:
    def test_sigma1_is_identity(self):
        fun = cn.sigma_k_root(2, 1)
        F = op.linearize(ScalarField.zeros(GEOM), fun, np.eye(2))
        assert len(F) == 2  # the diagonal planes alone
        assert np.allclose(dense_form(F, True, r=2), np.eye(2))

    def test_ma_hand_value(self):
        fun = cn.monge_ampere(2)
        F = op.linearize(
            ScalarField.zeros(GEOM), fun, np.diag([1.0, 4.0]).astype(complex)
        )
        np.testing.assert_allclose(dense_form(F, True)[0, 0, 0, 0],
                                   np.diag([1.0, 0.25]), atol=1e-12)

    def test_repeated_eigenvalue_cluster(self):
        fun = cn.monge_ampere(2)
        F = op.linearize(ScalarField.zeros(GEOM), fun, np.eye(2))
        assert np.allclose(dense_form(F, True), 0.5 * np.eye(2))

    def test_directional_derivative(self):
        rng = np.random.default_rng(5)
        fun = cn.monge_ampere(2)
        # second differences amplify by 1/h^2; keep the field admissible
        u = ScalarField(
            geom=GEOM, values=1e-4 * rng.standard_normal(GEOM.shape)
        )
        chi = np.eye(2, dtype=complex)
        F = dense_form(op.linearize(u, fun, chi), True)
        g = dense_form(op.complex_hessian(u, chi), True)
        E = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        E = 0.5 * (E + E.conj().T)
        s = 1e-5
        lam0 = np.linalg.eigvalsh(g)
        lam1 = np.linalg.eigvalsh(g + s * E)
        fd = (cn.f_many(fun, lam1) - cn.f_many(fun, lam0)) / s
        analytic = np.real(np.einsum("...ij,ji->...", F, E))
        np.testing.assert_allclose(fd, analytic, atol=1e-4)

    def test_ellipticity(self):
        fun = cn.monge_ampere(2)
        prob = pr.build_problem(GEOM, fun, "manufactured", "zero", "star-bump")
        F = op.linearize(prob.u_sub, fun, prob.chi)
        lam = np.linalg.eigvalsh(dense_form(F, True))
        assert lam.min() > 0
        C = op.coefficient_tensor(F, GEOM)
        lc = np.linalg.eigvalsh(dense_of(C, GEOM))
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


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def recurrence_error_bounds(g, sigma, tensors):
    """First-order bounds on the rounding error of newton_tensors' sigma_j
    and T_j for one (r, r) form g, from its computed sigma and
    T_0..T_{m-1}: per step the local rounding (the operands' moduli times
    gamma of the operation count) plus the inherited error carried
    through T_j = sigma_j I - g T_{j-1} and sigma_j = tr(g T_{j-1}) / j
    with |g| in place of g.  Returns (sigma bounds, list of T bounds);
    the sigma bounds are indexed by the order j, 0 at j = 0."""
    r, m = g.shape[-1], len(tensors)
    A, eye = np.abs(g), np.eye(r)
    err_sigma = np.zeros(m + 1)
    err_sigma[1] = gamma(r) * np.abs(np.diag(g)).sum()
    err_T = [np.zeros((r, r))]
    for j in range(1, m + 1):
        T = np.abs(tensors[j - 1])
        if j > 1:
            err_sigma[j] = ((A.T * err_T[-1]).sum()
                            + gamma(r * r + 2) * (A.T * T).sum()) / j
        if j < m:
            err_T.append(err_sigma[j] * eye + A @ err_T[-1]
                         + 2 * gamma(r + 2) * (abs(sigma[j - 1]) * eye + A @ T))
    return err_sigma, err_T


def assert_matches_dense_reference(fun, g, f, F, is_complex):
    """f and dense F, computed through newton_tensors at nodes whose dense
    form is g, against dense_reference.  The reference carries the rounding error
    eps * sigma_condition (1e-12 where the sigmas are well conditioned).
    The recurrence adds its own, which from r = 3 on compounds from level
    to level beyond that: recurrence_error_bounds, carried into f and F
    to first order.  Every f is a product of powers of sigmas, so
    df/dsigma_j = a_j f / sigma_j carries the relative errors of f and
    sigma_j; gamma covers linearize's sum."""
    f_ref, F_ref, lam = dense_reference(fun, g)
    tol = 1e-12 + 100 * np.finfo(float).eps * sigma_condition(fun, lam)
    sigma, tensors = op.newton_tensors(planes_of(g, is_complex), fun.cone_order,
                                       is_complex)
    tensors = [dense_form(T, is_complex, r=len(g)) for T in tensors]
    err_sigma, err_T = recurrence_error_bounds(g, sigma, tensors)
    c = {j: abs(cj) for j, cj in cn.df_dsigmas(fun, sigma).items()}
    err_f = sum(cj * err_sigma[j] for j, cj in c.items())
    rel_f = err_f / cn.f_from_sigmas(fun, sigma)
    err_F = sum(cj * ((rel_f + err_sigma[j] / sigma[j - 1] + gamma(len(c) + 2))
                      * np.abs(tensors[j - 1]) + err_T[j - 1])
                for j, cj in c.items())
    assert np.abs(f - f_ref).max() <= tol * abs(f_ref) + err_f
    assert np.abs(F - F_ref).max() <= tol * np.abs(F_ref).max() + err_F.max()


@st.composite
def spectral_cases(draw, complex_dims=(2, 4), real_dims=(2, 6), count=None):
    """(fun, g, complex_): one form g, or with ``count`` a stack of that
    many drawn with the same pattern: complex forms of the dims
    ``complex_dims`` (low, high), or real ones of ``real_dims``; None
    draws none of that kind."""
    complex_ = real_dims is None or (complex_dims is not None
                                     and draw(st.booleans()))
    # the complex model grid at resolution 3 has 2 * 3^(2n-1) interior
    # nodes (39,366 at n = 5), so forms checked on a grid stop at dim 4
    low, high = complex_dims if complex_ else real_dims
    dim = draw(st.integers(low, high))
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
    forms = [draw_form(draw, rng, fun, dim, pattern, complex_)
             for _ in range(count or 1)]
    return fun, (np.stack(forms) if count else forms[0]), complex_


def draw_form(draw, rng, fun, dim, pattern, complex_):
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
    return g


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
        f = cn.f_from_sigmas(fun, op.newton_state(u, fun, g)[0])
        F = dense_form(op.linearize(u, fun, g), complex_, r=dim)
        assert_matches_dense_reference(fun, g, f, F, complex_)

    @given(spectral_cases(complex_dims=(5, 6), real_dims=None, count=4))
    @example((cn.hessian_quotient(6, 2, 6), np.diag([float.fromhex(x) for x in (
        "0x1.53d020b173a2ap-13", "0x1.2d6fb7e006a50p-3",
        "0x1.b95481cd2ab8cp-1", "0x1.1992558ce3b4dp-4",
        "0x1.3d6982f9f975ap-4", "0x1.74cd71f0e58bap-4")]).astype(complex)[None],
        True))
    @settings(max_examples=100, deadline=None)
    def test_complex_dims_5_6_match_dense_reference(self, case):
        # a stack of forms with no grid, through the same residual and
        # linearization as above.  In the example the recurrence's
        # sigma_6 is 4.9e-10 off, 400 times eps sigma_condition: T_5's
        # entry at lambda = 0.86 cancels 6.2e-5 down to 1.2e-8 on top of
        # the error inherited from sigma_5 and T_4
        fun, g, _ = case
        state = op.newton_tensors(planes_of(g, True), fun.cone_order, True)
        f = cn.f_from_sigmas(fun, state[0])
        F = dense_form(op.linearize(None, fun, state=state), True, r=g.shape[-1])
        for k in range(len(g)):
            assert_matches_dense_reference(fun, g[k], f[k], F[k], True)

    def test_sigmas_of_a_diagonal_matrix(self):
        lam = np.array([2.0, -1.0, 3.0, 0.5])
        sigma, tensors = op.newton_tensors(planes_of(np.diag(lam), False), 4,
                                           False)
        np.testing.assert_allclose(sigma, cn.elem_sym(lam, 4)[1:], rtol=1e-15)
        np.testing.assert_array_equal(tensors[0], np.ones(4))
        # T_{j-1} = diag(d sigma_j / d lambda)
        for j in range(1, 5):
            np.testing.assert_allclose(np.diag(dense_form(tensors[j - 1], False, r=4)),
                                       cn.elem_sym_grad(lam, j), rtol=1e-15)


def dense_bounds(g, m, is_complex):
    """The dense recurrence at each form of the stack g, and
    recurrence_error_bounds of it, node by node."""
    sigma, tensors = dense_newton_tensors(g, m)
    bounds = [recurrence_error_bounds(g[k], sigma[k], [T if T.ndim == 2 else T[k]
                                                        for T in tensors])
              for k in range(len(g))]
    return sigma, tensors, bounds


def assert_within(got, ref, bound):
    assert np.all(np.abs(got - ref) <= bound)


class TestPlaneAlgebra:
    """newton_tensors, linearize and exit_polynomial on the distinct planes
    against the dense per-node algebra (tests/dense_forms.py) on stacks of
    complex forms (r = 2, 3, 4) and real ones (r = 3, 4).  Both sides are
    within recurrence_error_bounds of exact arithmetic, so they differ by
    at most twice that bound; for m <= 2 they sum the same products in
    the same order, so sigma_1, sigma_2, T_1 and F agree to the bit."""

    @given(spectral_cases(complex_dims=(2, 4), real_dims=(3, 4), count=5))
    @settings(max_examples=200, deadline=None)
    def test_newton_tensors_and_linearize_match_dense(self, case):
        fun, g, is_complex = case
        m, r = fun.cone_order, g.shape[-1]
        planes = planes_of(g, is_complex)
        g = dense_form(planes, is_complex)  # exactly Hermitian
        sigma, tensors = op.newton_tensors(planes, m, is_complex)
        F = op.linearize(None, fun, state=(sigma, tensors))
        ref_sigma, ref_tensors, bounds = dense_bounds(g, m, is_complex)
        ref_F = planes_of(dense_linearize(fun, ref_sigma, ref_tensors), is_complex)
        assert not ref_F[len(F):].any()  # the planes F leaves out
        if m <= 2:
            np.testing.assert_array_equal(sigma, ref_sigma)
            for T, ref_T in zip(tensors[1:], ref_tensors[1:]):
                np.testing.assert_array_equal(T, planes_of(ref_T, is_complex))
            np.testing.assert_array_equal(F, ref_F[:len(F)])
        lam = np.linalg.eigvalsh(g)
        eps = np.finfo(float).eps
        for k, (err_sigma, err_T) in enumerate(bounds):
            assert_within(sigma[k], ref_sigma[k], 2 * err_sigma[1:])
            for j in range(1, m):
                assert_within(dense_form(tensors[j][:, k], is_complex),
                              ref_tensors[j][k], 2 * err_T[j])
            # sigma_j against elem_sym of the eigenvalues: their error of
            # about eps ||g|| moves e_j by up to r e_{j-1}(|lambda|) times it
            e, ea = cn.elem_sym(lam[k], m), cn.elem_sym(np.abs(lam[k]), m)
            scale = np.abs(lam[k]).max()
            for j in range(1, m + 1):
                bound = err_sigma[j] + 100 * eps * (r * ea[j - 1] * scale + ea[j])
                assert abs(sigma[k, j - 1] - e[j]) <= bound
            # F to first order in the errors of the sigmas and tensors,
            # as in assert_matches_dense_reference, on both sides
            c = {j: abs(cj[k]) for j, cj in cn.df_dsigmas(fun, ref_sigma).items()}
            err_f = sum(cj * err_sigma[j] for j, cj in c.items())
            rel_f = err_f / cn.f_from_sigmas(fun, ref_sigma[k])
            err_F = sum(cj * ((rel_f + err_sigma[j] / ref_sigma[k, j - 1]
                               + gamma(len(c) + 2))
                              * np.abs(ref_tensors[j - 1] if j == 1
                                       else ref_tensors[j - 1][k])
                              + err_T[j - 1])
                        for j, cj in c.items())
            assert_within(dense_form(F[:, k], is_complex, r=r),
                          dense_form(ref_F[:, k], is_complex), 2 * err_F)

    @given(spectral_cases(complex_dims=(2, 4), real_dims=(3, 4), count=5),
           st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_exit_polynomial_matches_dense(self, case, seed, exponent):
        # a random direction H at each form g; m <= 3 as exit_polynomial
        # takes it.  c_0 and c_m are sigma_m of g and H; c_1 and c_{m-1}
        # are traces of a tensor with the other form, summed over the
        # planes here and over all r^2 entries by einsum
        fun, g, is_complex = case
        m, r = min(fun.cone_order, 3), g.shape[-1]
        rng = np.random.default_rng(seed)
        z = rng.uniform(-1.0, 1.0, g.shape) * 10.0**exponent
        if is_complex:
            z = z + 1j * rng.uniform(-1.0, 1.0, g.shape) * 10.0**exponent
        planes = planes_of(g, is_complex), planes_of(z, is_complex)
        g, H = (dense_form(p, is_complex) for p in planes)
        c = op.exit_polynomial(*planes, m, is_complex)
        ref = dense_exit_polynomial(g, H, m)
        sigma_g, tensors_g, bounds_g = dense_bounds(g, m, is_complex)
        sigma_h, tensors_h, bounds_h = dense_bounds(H, m, is_complex)
        for k in range(len(g)):
            bound = np.zeros(m + 1)
            bound[0], bound[m] = 2 * bounds_g[k][0][m], 2 * bounds_h[k][0][m]

            def trace_bound(tensors, bounds, other):
                T = tensors[m - 1][k]
                return (2 * gamma(r * r + 2) * (np.abs(T) * np.abs(other[k]).T).sum()
                        + 2 * (bounds[k][1][m - 1] * np.abs(other[k]).T).sum())

            if m > 1:
                bound[1] = trace_bound(tensors_g, bounds_g, H)
            if m > 2:
                bound[m - 1] = trace_bound(tensors_h, bounds_h, g)
            assert_within(c[k], ref[k], bound)
            if m <= 2:  # sigma_m of g and H to the bit
                assert c[k, 0] == ref[k, 0] and c[k, m] == ref[k, m]


@st.composite
def exit_cases(draw):
    """(g, H, m): a stack of 3 forms g inside Gamma_m with sigma_m(g) >=
    1e-3 and directions H, r = 2 Hermitian with m = 1, 2 or r = 3 real
    symmetric with m = 1, 2, 3.  H is random, a negative multiple of g (a
    root of multiplicity r along the ray at 1 / mu, through the origin),
    positive semidefinite (no exit) or zero."""
    r, m = draw(st.sampled_from(((2, 1), (2, 2), (3, 1), (3, 2), (3, 3))))
    complex_ = r == 2
    pattern = draw(st.sampled_from(("random", "random", "toward-origin",
                                    "semidefinite", "zero")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-1.0, 1.0))

    def basis():
        z = rng.standard_normal((r, r))
        if complex_:
            z = z + 1j * rng.standard_normal((r, r))
        return np.linalg.qr(z)[0]

    gs, hs = [], []
    for _ in range(3):
        lam = rng.uniform(-1.0, 1.0, r)
        while cn.elem_sym(lam, m)[1:].min() < 1e-3:
            lam = rng.uniform(-1.0, 1.0, r)
        q = basis()
        g = (q * lam) @ q.conj().T
        if pattern == "random":
            h = scale * rng.uniform(-1.0, 1.0, (r, r))
            if complex_:
                h = h + 1j * scale * rng.uniform(-1.0, 1.0, (r, r))
        elif pattern == "toward-origin":
            h = -scale * g
        elif pattern == "semidefinite":
            q = basis()
            h = (q * rng.uniform(0.0, scale, r)) @ q.conj().T
        else:
            h = np.zeros((r, r))
        gs.append(0.5 * (g + g.conj().T))
        hs.append(0.5 * (h + h.conj().T))
    dtype = complex if complex_ else float
    return np.array(gs).astype(dtype), np.array(hs).astype(dtype), m


def sigmas_along(g, H, thetas, m):
    """sigma_1..sigma_m of eigvalsh(g + theta H) per theta (dense)."""
    forms = g + np.asarray(thetas)[:, None, None] * H
    return cn.elem_sym(np.linalg.eigvalsh(forms), m)[:, 1:]


class TestConeExit:
    """theta*, where the ray g + theta H leaves Gamma_m, against a dense
    eigenvalue scan of the ray."""

    # relative step below and above theta*.  Rounded coefficients fix a
    # root of multiplicity k only to about eps^(1/k) relative: 6e-6 for the
    # triple root of a ray through the origin at r = 3
    MARGIN = 1e-4

    @given(exit_cases())
    @settings(max_examples=300, deadline=None)
    def test_exit_against_dense_scan(self, case):
        g, H, m = case
        is_complex = np.iscomplexobj(g)
        exits = op.cone_exit(planes_of(g, is_complex), planes_of(H, is_complex),
                             m, is_complex)
        assert exits.shape == (len(g),) and np.all(exits > 0.0)
        for gk, hk, exit_ in zip(g, H, exits):
            # inside the cone all the way up to just below theta* (to
            # theta = 100 when the ray never leaves)
            top = exit_ * (1.0 - self.MARGIN) if np.isfinite(exit_) else 100.0
            inside = sigmas_along(gk, hk, np.linspace(0.0, top, 201), m)
            assert np.all(inside > 0.0)
            if np.isfinite(exit_):
                # just above it the ray is outside: at a simple root
                # sigma_m changes sign; at the multiple root of a ray
                # through the origin sigma_1 turns negative
                [above] = sigmas_along(gk, hk, [exit_ * (1 + self.MARGIN)], m)
                assert not np.all(above > 0.0)
                if np.all(above[:-1] > 0.0):
                    assert above[-1] < 0.0

    @given(exit_cases())
    @settings(max_examples=300, deadline=None)
    def test_polarization_against_sigma_m(self, case):
        # a polynomial of degree m is fixed by m + 1 values: the
        # coefficients reproduce sigma_m(g + theta H) at m + 1 thetas
        g, H, m = case
        is_complex = np.iscomplexobj(g)
        c = op.exit_polynomial(planes_of(g, is_complex), planes_of(H, is_complex),
                               m, is_complex)
        assert c.shape == (len(g), m + 1)
        thetas = np.linspace(-1.0, 1.0, m + 1)
        for gk, hk, ck in zip(g, H, c):
            direct = sigmas_along(gk, hk, thetas, m)[:, -1]
            size = (1.0 + np.abs(gk).max() + np.abs(hk).max()) * gk.shape[-1]
            np.testing.assert_allclose(
                np.polynomial.polynomial.polyval(thetas, ck), direct,
                rtol=0.0, atol=1e-13 * size**m)

    def test_cone_order_above_three_refused(self):
        g = planes_of(np.eye(4)[None], False)
        with pytest.raises(ValueError, match="1 <= m <= 3"):
            op.exit_polynomial(g, g, 4, False)


def reference_newton_tensors(g, m):
    """The einsum / matmul recurrence on (..., r, r) arrays that the entry
    planes replaced, on a C-ordered copy of g."""
    g = np.ascontiguousarray(g)
    eye = np.eye(g.shape[-1])
    gt = np.swapaxes(g, -1, -2)
    sigma = np.empty(g.shape[:-2] + (m,))
    tensors = [eye]
    for j in range(1, m + 1):
        sigma[..., j - 1] = np.einsum("...ab,...ab->...", gt, tensors[-1]).real / j
        if j < m:
            gT = g if j == 1 else g @ tensors[-1]
            tensors.append(sigma[..., j - 1, None, None] * eye - gT)
    return sigma, tensors


def reference_linearize(fun, sigma, tensors):
    coeff = sum(c[..., None, None] * tensors[j - 1]
                for j, c in cn.df_dsigmas(fun, sigma).items())
    return 0.5 * (coeff + np.conj(np.swapaxes(coeff, -1, -2)))


NODE_MAJOR_CASES = [
    (GridGeometry(n=2, resolution=6), ("sigma1", "ma", "quotient:1:2")),
    (GridGeometry(n=3, resolution=6),
     ("sigma1", "sigmaK:2", "ma", "quotient:1:3", "quotient:2:3")),
    (CylinderGeometry(d=3, resolution=8),
     ("sigma1", "sigmaK:2", "ma", "quotient:1:2", "quotient:1:3")),
]
# Off the complex n = 2 path the planes and the reference sum g T in
# different orders (BLAS matmul, einsum's real kernels).  The bound is in
# ulps of max|sigma_j|, of max|T_j|, and for F of sum_j max|df/dsigma_j|
# max|T_{j-1}|, the size of the terms that cancel in a quotient's F.  The
# largest differences measured on these cases were 3.9, 3.9 and 5.1 ulps.
NODE_MAJOR_ULPS = 8


def node_major_case(geom, name):
    """An admissible iterate near chi = I: its form, fun and geometry."""
    rng = np.random.default_rng(geom.real_dims)
    u = ScalarField(geom=geom,
                    values=2e-3 * geom.h**2 * rng.standard_normal(geom.shape))
    dim = geom.form_dim
    return u, np.eye(dim), cn.parse_kind(name, dim)


def assert_planes_contiguous(planes):
    assert all(plane.flags.c_contiguous for plane in planes)


def assert_matches(got, ref, exact, scale=None):
    if exact:
        np.testing.assert_array_equal(got, ref)
    else:
        scale = np.abs(ref).max() if scale is None else scale
        assert np.abs(got - ref).max() <= NODE_MAJOR_ULPS * np.finfo(float).eps * scale


class TestNodeMajor:
    """g, the Newton tensors, F and C are node-major buffers of their
    distinct planes, and the plane algebra reproduces the einsum / matmul
    formulas on the dense forms."""

    @pytest.mark.parametrize("geom,names", NODE_MAJOR_CASES)
    def test_planes_contiguous_and_match_reference(self, geom, names):
        exact = geom.is_complex and geom.n == 2
        is_complex, dim = geom.is_complex, geom.form_dim
        for name in names:
            u, chi, fun = node_major_case(geom, name)
            g = op.form_field(u, chi)
            assert_planes_contiguous(g)
            sigma, tensors = op.newton_tensors(g, fun.cone_order, is_complex)
            ref_sigma, ref_tensors = reference_newton_tensors(
                dense_form(g, is_complex), fun.cone_order)
            assert all(sigma[..., j].flags.c_contiguous
                       for j in range(fun.cone_order))
            for j in range(fun.cone_order):
                assert_matches(sigma[..., j], ref_sigma[..., j], exact)
            np.testing.assert_array_equal(tensors[0], np.ones(dim))
            for T, ref_T in zip(tensors[1:], ref_tensors[1:]):
                assert_planes_contiguous(T)
                assert_matches(T, planes_of(ref_T, is_complex), exact)
            F = op.linearize(u, fun, chi, (sigma, tensors))
            assert_planes_contiguous(F)
            terms = sum(np.abs(c).max() * np.abs(ref_tensors[j - 1]).max()
                        for j, c in cn.df_dsigmas(fun, ref_sigma).items())
            ref_F = planes_of(reference_linearize(fun, ref_sigma, ref_tensors),
                              is_complex)
            assert_matches(F, ref_F[:len(F)], exact, terms)
            assert not ref_F[len(F):].any()  # the planes F leaves out
            assert all(plane.flags.c_contiguous for _, plane
                       in op.coefficient_tensor(F, geom).values())

    @pytest.mark.parametrize("geom", [GridGeometry(n=2, resolution=6),
                                      CylinderGeometry(d=3, resolution=8)])
    @pytest.mark.parametrize("name", ["sigma1", "quotient:1:2"])
    def test_sigma1_term_matches_dense_reference(self, geom, name):
        # df/dsigma_1 multiplies T_0 = I, which adds to the diagonal
        # planes only
        u, chi, fun = node_major_case(geom, name)
        F = dense_form(op.linearize(u, fun, chi), geom.is_complex, r=fun.n)
        lam, vec = np.linalg.eigh(dense_form(op.form_field(u, chi), geom.is_complex))
        F_ref = ((vec * cn.grad_many(fun, lam)[..., None, :])
                 @ np.conj(np.swapaxes(vec, -1, -2)))
        assert np.abs(F - F_ref).max() <= 1e-12 * np.abs(F_ref).max()
        if name == "sigma1":
            # f = sigma_1: F = I exactly
            np.testing.assert_array_equal(
                F, np.broadcast_to(np.eye(fun.n), F.shape))

    @pytest.mark.parametrize("geom", [GEOM, CylinderGeometry(d=3, resolution=8)],
                             ids=["complex-8", "cylinder-8"])
    def test_sigma1_fills_no_off_diagonal_plane(self, geom):
        # F = I for sigma_1: linearize fills the diagonal planes alone and
        # C keys the diagonal pairs alone, so no application forms a mixed
        # partial with zero coefficients
        u, chi, fun = node_major_case(geom, "sigma1")
        F = op.linearize(u, fun, chi)
        assert F.shape == (geom.form_dim,) + geom.interior_shape
        C = op.coefficient_tensor(F, geom)
        assert sorted(C) == [(a, a) for a in range(geom.real_dims)]


class TestCoefficientTensor:
    def test_sigma1_quarter_laplacian(self):
        fun = cn.sigma_k_root(2, 1)
        F = op.linearize(ScalarField.zeros(GEOM), fun, np.eye(2))
        C = op.coefficient_tensor(F, GEOM)
        assert np.allclose(dense_of(C, GEOM), 0.25 * np.eye(4))

    def test_contraction_matches_complex_form(self):
        # sum F^{ij} u_{ij-bar} computed spectrally equals the real-tensor
        # contraction of second partials
        rng = np.random.default_rng(11)
        u = ScalarField(geom=GEOM, values=rng.standard_normal(GEOM.shape))
        Fmat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Fmat = 0.5 * (Fmat + Fmat.conj().T)
        F = np.broadcast_to(Fmat, GEOM.interior_shape + (2, 2)).copy()
        H = dense_form(op.complex_hessian(u, None), True)
        direct = np.real(np.einsum("...ij,...ji->...", F, H))
        C = op.coefficient_tensor(planes_of(F, True), GEOM)
        via_real = op.apply_second_order(C, u.values, GEOM)
        np.testing.assert_allclose(via_real, direct, atol=1e-10)


DISTINCT_GEOMS = [GridGeometry(n=2, resolution=5), GridGeometry(n=3, resolution=3),
                  CylinderGeometry(d=3, resolution=6),
                  CylinderGeometry(d=4, resolution=4)]


class TestDistinctPlanes:
    """C as its distinct planes against the dense form with all r^2 planes
    (tests/dense_coefficients.py), which the package stored before."""

    @staticmethod
    def linearization(geom):
        # Monge-Ampere at a random admissible iterate near chi = I: every
        # plane of F varies, and on the complex model Im F is nonzero
        rng = np.random.default_rng(geom.real_dims + geom.resolution)
        dim = geom.form_dim
        u = ScalarField(geom=geom,
                        values=0.05 * geom.h**2 * rng.standard_normal(geom.shape))
        F = op.linearize(u, cn.monge_ampere(dim), np.eye(dim))
        return F, rng.standard_normal(geom.shape)

    @pytest.mark.parametrize("geom", DISTINCT_GEOMS, ids=str)
    def test_apply_matches_dense_reference(self, geom):
        F, u = self.linearization(geom)
        # C takes F's planes over and scales them: the dense form first
        dense = dense_coefficient_tensor(dense_form(F, geom.is_complex), geom)
        C = op.coefficient_tensor(F, geom)
        np.testing.assert_array_equal(dense_of(C, geom), dense)
        got = op.apply_second_order(C, u, geom)
        # both sides sum the same products; within rounding of the np.roll
        # reference's term sizes, as in TestSecondOrderStencil
        _, size = roll_second_order(dense, u, geom)
        r = geom.real_dims
        bound = 2.0 * gamma(r * (r + 1) // 2 + 8) * size
        assert np.all(np.abs(got - dense_apply(dense, u, geom)) <= bound)

    @pytest.mark.parametrize("geom", DISTINCT_GEOMS, ids=str)
    def test_keys_signs_and_shared_planes(self, geom):
        F, _ = self.linearization(geom)
        C = op.coefficient_tensor(F, geom)
        r = geom.real_dims
        assert all(a <= b < r for a, b in C)
        assert all(C[a, a][0] == 1 for a in range(r))
        planes = {id(plane): plane for _, plane in C.values()}
        # F's own planes, every one of them keyed: C holds no plane that
        # it does not apply
        assert all(plane.base is F.base and plane.flags.c_contiguous
                   for plane in planes.values())
        assert len(F) == len(planes)
        if not geom.is_complex:
            assert len(C) == len(planes) == r * (r + 1) // 2
            return
        n = geom.n
        assert len(planes) == n * n
        assert len(C) == r * (r + 1) // 2 - n  # no (x_i, y_i) entry
        for i in range(n):
            xi, yi = geom.complex_axes(i)
            assert (xi, yi) not in C
            for j in range(i, n):
                xj, yj = geom.complex_axes(j)
                assert C[yi, yj] is C[xi, xj]
                if j > i:
                    assert C[yi, xj][0] == -1 and C[xi, yj][0] == 1
                    assert C[yi, xj][1] is C[xi, yj][1]

    @pytest.mark.parametrize("geom", [GridGeometry(n=2, resolution=5),
                                      CylinderGeometry(d=3, resolution=6)],
                             ids=str)
    def test_constant_operator_is_scalars(self, geom, monkeypatch):
        # harmonic_majorant's identity-form operator: one scalar per axis,
        # applied as the dense C of the identity form is
        captured = []
        inner = sv.solve_dirichlet

        def capture(C, *args, **kwargs):
            captured.append(C)
            return inner(C, *args, **kwargs)

        monkeypatch.setattr(sv, "solve_dirichlet", capture)
        dim = geom.form_dim
        sv.harmonic_majorant(np.eye(dim), ScalarField.zeros(geom), geom)
        [C] = captured
        assert sorted(C) == [(a, a) for a in range(geom.real_dims)]
        assert all(np.ndim(plane) == 0 for _, plane in C.values())
        eye = np.broadcast_to(np.eye(dim), geom.interior_shape + (dim, dim))
        u = np.random.default_rng(1).standard_normal(geom.shape)
        np.testing.assert_array_equal(
            op.apply_second_order(C, u, geom),
            dense_apply(dense_coefficient_tensor(eye, geom), u, geom))


STENCIL_GEOMS = [GridGeometry(n=2, resolution=3), GridGeometry(n=2, resolution=5),
                 GridGeometry(n=3, resolution=3), CylinderGeometry(d=3, resolution=4),
                 CylinderGeometry(d=3, resolution=7)]


@st.composite
def stencil_cases(draw):
    """A geometry, variable symmetric C with a random set of zero pairs
    (Dirichlet-axis pairs among them) in dict form, with or without its
    zero planes, and densely, a field and the calling form (full shape or
    a refreshed padded buffer)."""
    geom = draw(st.sampled_from(STENCIL_GEOMS))
    r = geom.real_dims
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    zero = draw(st.sets(st.sampled_from(pairs)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = rng.standard_normal((r, r) + geom.interior_shape)
    planes = planes + np.swapaxes(planes, 0, 1)
    for a, b in zero:
        planes[a, b] = planes[b, a] = 0.0
    u = rng.standard_normal(geom.shape) * 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        # a stale buffer, as a Krylov loop reuses one: NaN ghosts refreshed
        # in place around the new core
        p = np.full(op._padded(u, geom).shape, np.nan)
        p[op._window(geom, {}, slice(None))] = u
        u_arg = op._wrap_ghosts(p, geom)
    else:
        u_arg = u
    dense = np.moveaxis(planes, (0, 1), (-2, -1))
    C = distinct_planes(dense, keep_zero=draw(st.booleans()))
    return geom, C, dense, u, u_arg


def roll_second_order(C, u, geom):
    """sum_ab C_ab u_ab on the interior from np.roll four-window stencils on
    the full grid, over every pair, and the same sum over the moduli of
    every term: the scale the rounding bound is taken against."""
    h2 = geom.h * geom.h
    r = geom.real_dims

    def at(*shifts):
        f = u
        for a, s in shifts:
            f = np.roll(f, -s, axis=a)
        return f[geom.interior]

    ref, size = np.zeros(geom.interior_shape), np.zeros(geom.interior_shape)
    for a in range(r):
        plus, zero, minus = at((a, 1)), at(), at((a, -1))
        ref += C[..., a, a] * ((plus - 2.0 * zero + minus) / h2)
        size += np.abs(C[..., a, a]) * (np.abs(plus) + 2.0 * np.abs(zero) + np.abs(minus)) / h2
        for b in range(a + 1, r):
            corners = [at((a, sa), (b, sb)) for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
            pp, pm, mp, mm = corners
            ref += 2.0 * C[..., a, b] * ((pp - pm - mp + mm) / (4.0 * h2))
            size += 2.0 * np.abs(C[..., a, b]) * sum(map(np.abs, corners)) / (4.0 * h2)
    return ref, size


class TestSecondOrderStencil:
    """apply_second_order against the np.roll four-window reference."""

    @given(stencil_cases())
    @settings(max_examples=200, deadline=None)
    def test_against_roll_reference(self, case):
        # Both sides sum the leaves c_k u_k of one linear stencil, each
        # through at most K roundings (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2002, sec. 3.1), so each lies within
        # gamma_K sum_k |c_k u_k| of the exact sum.  With T = r (r + 1) / 2
        # terms the reference's longest path is T adds after 7 roundings
        # (the corner sum, h, h^2, the division, the product by 2 C_ab);
        # apply_second_order's is at most r + P + 6 <= T + 6 (two
        # subtractions, the product by C_ab, P <= r (r - 1) / 2 pair adds
        # and r - 1 diagonal adds, the final scaling and its constant's
        # three).  K = T + 8 also covers the rounding of ``size`` itself.
        geom, C, dense, u, u_arg = case
        got = op.apply_second_order(C, u_arg, geom)
        ref, size = roll_second_order(dense, u, geom)
        r = geom.real_dims
        bound = 2.0 * gamma(r * (r + 1) // 2 + 8) * size
        assert got.shape == geom.interior_shape
        assert np.all(np.abs(got - ref) <= bound)


class TestRealHessian:
    def test_quadratic_exact(self):
        geom = CylinderGeometry(d=3, resolution=8)
        x3 = geom.grids()[2]
        u = ScalarField(
            geom=geom, values=np.broadcast_to(x3 * (1 - x3), geom.shape).copy()
        )
        g = op.real_hessian(u, np.eye(3))
        expected = np.eye(3) + np.diag([0.0, 0.0, -2.0])
        assert np.allclose(dense_form(g, False), expected)

    def test_symmetry(self):
        # one plane per entry a <= b: u_ab from the first differences along
        # b, against the np.roll stencil that differences along a first
        geom = CylinderGeometry(d=3, resolution=8)
        rng = np.random.default_rng(1)
        u = ScalarField(geom=geom, values=rng.standard_normal(geom.shape))
        g = op.real_hessian(u, None)
        assert g.shape == (6,) + geom.interior_shape

        def diff(f, a):
            return np.roll(f, -1, axis=a) - np.roll(f, 1, axis=a)

        h2 = geom.h**2
        for a in range(3):
            second = np.roll(u.values, -1, a) - 2 * u.values + np.roll(u.values, 1, a)
            np.testing.assert_allclose(g[a], second[geom.interior] / h2,
                                       rtol=1e-12, atol=1e-9)
            for b in range(a + 1, 3):
                ref = diff(diff(u.values, a), b)[geom.interior] / (4 * h2)
                np.testing.assert_allclose(g[op._index(3, a, b)], ref,
                                           rtol=1e-12, atol=1e-9)


class TestLaplacian:
    @pytest.mark.parametrize("geom", [GridGeometry(n=2, resolution=6),
                                      GridGeometry(n=3, resolution=4),
                                      CylinderGeometry(d=3, resolution=8)])
    def test_equals_trace_of_form_field(self, geom, monkeypatch):
        # degenerate_sweep's sup_lap is max |tr form_field(u)| of each
        # solved field, bit for bit
        fun = cn.monge_ampere(geom.form_dim)
        prob = pr.build_problem(geom, fun, "one", "zero", "zero")
        solved = []
        solve = sv.continuity_solve

        def keep(*args):
            u, report = solve(*args)
            solved.append(u)
            return u, report

        monkeypatch.setattr(sv, "continuity_solve", keep)
        rows = sv.degenerate_sweep(fun, prob.chi, ScalarField.zeros(geom),
                                   prob.phi, prob.u_sub, [0.25, 0.5])
        for row, u in zip(rows, solved, strict=True):
            trace = sum(op.form_field(u)[:geom.form_dim])
            assert row["sup_lap"] == np.abs(trace).max() > 0.0


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
        np.testing.assert_allclose(dense_form(op.complex_hessian(u), True),
                                   ddbar_from_real(dense_form(op.real_hessian(u), False)),
                                   rtol=0, atol=1e-12)
        for H, D in zip(op.boundary_complex_hessian(u), op.boundary_real_hessian(u)):
            np.testing.assert_allclose(dense_form(H, True),
                                       ddbar_from_real(dense_form(D, False)),
                                       rtol=0, atol=1e-12)


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
        faces = [dense_form(H, True) for H in op.boundary_complex_hessian(u)]
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
    scale = 1.0 / h2
    for pos_a, a in enumerate(faxes):
        grad[..., a] = tangential(f0, pos_a)
        D[..., a, a] = (-2.0 * f0 + np.roll(f0, -1, pos_a) + np.roll(f0, 1, pos_a)) * scale
        for pos_b in range(pos_a + 1, len(faxes)):
            b = faxes[pos_b]
            # the centred difference along b, then its difference along a
            diff_b = np.roll(f0, -1, pos_b) - np.roll(f0, 1, pos_b)
            D[..., a, b] = D[..., b, a] = (
                np.roll(diff_b, -1, pos_a) - np.roll(diff_b, 1, pos_a)
            ) * (0.25 * scale)
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
            np.testing.assert_array_equal(hessians[face], planes_of(D, False))
        both = u.values[geom.faces]
        for a in geom.periodic_axes:
            rolled = (np.roll(both, -1, axis=a)
                      - np.roll(both, 1, axis=a)) / (2.0 * geom.h)
            np.testing.assert_array_equal(
                op.first_derivative_centered(u.values, geom, a, layer=[0, -1]), rolled)

    @pytest.mark.parametrize("geom", [GridGeometry(n=2, resolution=6),
                                      GridGeometry(n=3, resolution=4),
                                      CylinderGeometry(d=3, resolution=7)],
                             ids=["complex-2", "complex-3", "cylinder-3"])
    def test_shared_padded_copy_bit_identical(self, geom):
        # every first-derivative and face stencil reads a caller's padded
        # copy as it reads its own: the same bits as the np.roll formulas
        rng = np.random.default_rng(9)
        u = ScalarField(geom=geom, values=rng.standard_normal(geom.shape))
        p = op._padded(u.values, geom)
        grad = np.stack([(np.roll(u.values, -1, axis=a)
                          - np.roll(u.values, 1, axis=a))[geom.interior]
                         / (2.0 * geom.h) for a in range(geom.real_dims)], axis=-1)
        np.testing.assert_array_equal(op.gradient_interior(u, p), grad)
        np.testing.assert_array_equal(op.gradient_interior(u), grad)
        for a in range(geom.real_dims):
            np.testing.assert_array_equal(
                op.first_derivative_centered(p, geom, a), grad[..., a])
        grads, hessians = op.gradient_boundary(u, p), op.boundary_real_hessian(u, p)
        for face in (0, 1):
            ref_grad, ref_D = roll_face_reference(u.values, geom, face)
            np.testing.assert_array_equal(grads[face], ref_grad)
            np.testing.assert_array_equal(hessians[face], planes_of(ref_D, False))
        if geom.is_complex:
            for shared, own in zip(op.boundary_complex_hessian(u, p),
                                   op.boundary_complex_hessian(u)):
                np.testing.assert_array_equal(shared, own)


@pytest.mark.parametrize("geom", [GridGeometry(n=2, resolution=6),
                                  GridGeometry(n=3, resolution=4),
                                  CylinderGeometry(d=3, resolution=7)],
                         ids=["complex-2", "complex-3", "cylinder-3"])
def test_padding_is_numpy_wrap(geom):
    # the ghost layers are refreshed slab by slab; corners included, the
    # padded copy equals np.pad's, and a stale buffer refreshes to it
    u = np.random.default_rng(8).standard_normal(geom.shape)
    pad = [(1, 1)] * u.ndim
    pad[geom.dirichlet_axis] = (0, 0)
    expected = np.pad(u, pad, mode="wrap")
    np.testing.assert_array_equal(op._padded(u, geom), expected)
    stale = op._padded(np.zeros(geom.shape), geom) + np.nan
    stale[op._window(geom, {}, slice(None))] = u
    np.testing.assert_array_equal(op._wrap_ghosts(stale, geom), expected)
