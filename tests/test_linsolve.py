"""Matrix-free preconditioned solves against a dense-assembly oracle."""

import ast
import inspect
import textwrap
import tracemalloc

import numpy as np
import pytest

from hessiancone import arrowhead, cones, linsolve, operators, presets, solve
from hessiancone.geometry import CylinderGeometry, GridGeometry, ScalarField
from hessiancone.linsolve import (DEFAULT_RTOL, LinearSolveError,
                                  _MeanCoefficientInverse, solve_dirichlet)
from hessiancone.operators import apply_second_order

from dense_coefficients import distinct_planes


def dense_matrix(C, geom):
    """Assemble the interior operator by probing unit vectors."""
    size = int(np.prod(geom.interior_shape))
    A = np.zeros((size, size))
    for k in range(size):
        e = np.zeros(geom.shape)
        e[geom.interior] = np.eye(size)[k].reshape(geom.interior_shape)
        A[:, k] = apply_second_order(C, e, geom).reshape(-1)
    return A


def constant_diagonal(geom, dense=False):
    """C = diag(1, 2, ..., r) at every node (the dense form with
    ``dense``)."""
    r = geom.real_dims
    C = np.broadcast_to(np.diag(np.arange(1.0, r + 1.0)),
                        geom.interior_shape + (r, r)).copy()
    return C if dense else distinct_planes(C)


def random_coefficients(geom, seed):
    """Random symmetric positive definite coefficients per node, the
    generator after drawing them, and their dense form."""
    rng = np.random.default_rng(seed)
    r = geom.real_dims
    base = rng.standard_normal(geom.interior_shape + (r, r))
    dense = np.einsum("...ab,...cb->...ac", base, base) * 0.05 + np.eye(r)
    return distinct_planes(dense), rng, dense


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("geom", [
        GridGeometry(n=2, resolution=4),
        CylinderGeometry(d=2, resolution=6),
    ], ids=["complex-4", "cyl-6"])
    def test_variable_coefficients(self, geom):
        C, rng, _ = random_coefficients(geom, 3)
        rhs = rng.standard_normal(geom.interior_shape)
        bc = rng.standard_normal(geom.shape)
        u, _ = solve_dirichlet(C, geom, rhs, boundary_values=bc)
        A = dense_matrix(C, geom)
        shift = np.zeros(geom.shape)
        shift[geom.faces] = bc[geom.faces]
        b = rhs - apply_second_order(C, shift, geom)
        exact = np.linalg.solve(A, b.reshape(-1))
        np.testing.assert_allclose(
            u[geom.interior].reshape(-1), exact, atol=1e-8
        )
        np.testing.assert_array_equal(u[geom.faces], bc[geom.faces])

    @pytest.mark.parametrize("geom", [
        GridGeometry(n=2, resolution=4),
        CylinderGeometry(d=2, resolution=6),
    ], ids=["complex-4", "cyl-6"])
    def test_coefficient_scale_spans_three_decades(self, geom):
        # the degenerate regime: the size of the coefficients varies by
        # three orders of magnitude from node to node
        _, rng, C = random_coefficients(geom, 5)
        scale = 10.0 ** rng.uniform(-3.0, 0.0, geom.interior_shape)
        scale.flat[:2] = 1e-3, 1.0
        C = distinct_planes(C * scale[..., None, None])
        rhs = rng.standard_normal(geom.interior_shape)
        bc = rng.standard_normal(geom.shape)
        u, _ = solve_dirichlet(C, geom, rhs, boundary_values=bc)
        lift = np.zeros(geom.shape)
        lift[geom.faces] = bc[geom.faces]
        b = rhs - apply_second_order(C, lift, geom)
        exact = np.linalg.solve(dense_matrix(C, geom), b.reshape(-1))
        np.testing.assert_allclose(
            u[geom.interior].reshape(-1), exact, atol=1e-8
        )
        np.testing.assert_array_equal(u[geom.faces], bc[geom.faces])

    def test_zero_rhs_shortcut(self):
        geom = GridGeometry(n=2, resolution=4)
        C = np.zeros(geom.interior_shape + (4, 4))
        for a in range(4):
            C[..., a, a] = 1.0
        C = distinct_planes(C)
        u, _ = solve_dirichlet(C, geom, np.zeros(geom.interior_shape))
        assert np.abs(u).max() == 0.0

    def test_failure_is_loud(self, monkeypatch):
        geom = GridGeometry(n=2, resolution=4)
        C = np.zeros(geom.interior_shape + (4, 4))
        for a in range(4):
            C[..., a, a] = 0.25
        C = distinct_planes(C)
        rhs = np.ones(geom.interior_shape)
        monkeypatch.setattr(linsolve, "MAX_CYCLES", 0)
        with pytest.raises(LinearSolveError, match="after 0 cycles"):
            solve_dirichlet(C, geom, rhs)


class TestPreconditioner:
    @pytest.mark.parametrize("geom", [
        GridGeometry(n=2, resolution=6),
        CylinderGeometry(d=3, resolution=7),
        GridGeometry(n=3, resolution=4),
        CylinderGeometry(d=2, resolution=6),
        GridGeometry(n=2, resolution=5),
        GridGeometry(n=2, resolution=3),
    ], ids=["complex-6", "cyl-7-odd", "complex-n3-4", "cyl-d2-6",
            "complex-5-odd", "complex-3-smallest"])
    def test_inverts_constant_diagonal_operator(self, geom):
        # w A is the frozen operator itself, so apply(A x) = x.  The odd
        # periodic lengths check the half-spectrum round trip and the
        # complex transforms; n = 3 takes four complex passes, the d = 2
        # cylinder none; resolution 3 leaves two Dirichlet layers, the
        # shortest Thomas sweep
        C = constant_diagonal(geom)
        x = np.random.default_rng(7).standard_normal(geom.interior_shape)
        e = np.zeros(geom.shape)
        e[geom.interior] = x
        Ax = apply_second_order(C, e, geom)
        back = _MeanCoefficientInverse(C, geom).apply(Ax.reshape(-1))
        err = np.abs(back - x.reshape(-1)).max() / np.abs(x).max()
        assert err <= 1e-12

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_trace_is_loud(self, value):
        geom = GridGeometry(n=2, resolution=4)
        C = constant_diagonal(geom, dense=True)
        C[1, 2, 0, 0] = np.diag([value, 0.0, 0.0, 0.0])
        C = distinct_planes(C)
        with pytest.raises(LinearSolveError, match="trace"):
            solve_dirichlet(C, geom, np.ones(geom.interior_shape))

    def test_degenerate_newton_step_iteration_guard(self, degenerate_run):
        # the first linearization has constant coefficients, the second
        # (after the first accepted Newton step) is the first that varies.
        # Newton's later solves run at looser forcing terms, so every
        # system of the run is solved again here at DEFAULT_RTOL.
        per_solve = [
            solve_dirichlet(*args, **dict(kwargs, rtol=DEFAULT_RTOL))[1]
            .applications for args, kwargs, _ in degenerate_run]
        # guards at 1.5 times the counts measured when every solve also
        # applied A to the zero start and once more for its residual
        # check: 11 for the second solve, 17 for the largest of the run;
        # LGMRES without those two took 9 and 15, GMRES takes 8 and 11.
        # With no weight and the raw means of C_aa the second solve also
        # took 11, but the largest 28.  The run solves 6 Newton systems
        # (9 when the damping halved from twice the last factor, not from
        # the cone exit; 15 with the right-hand side -r in place of the
        # polynomial form's) and the majorant.
        assert len(per_solve) == 7
        assert per_solve[1] <= 16
        assert max(per_solve) <= 25

    def test_loose_solves_stop_at_the_forcing_term(self, degenerate_run):
        # GMRES minimizes the true residual, so a solve asked for eta
        # stops near eta, not orders of magnitude below it; the smallest
        # measured ratio is 0.099 over the run's 5 loose solves (0.22 over
        # 8 when the damping halved from twice the last factor, 0.072 over
        # 14 with the right-hand side -r).  The first solve is left out by
        # its position: it linearizes at the zero subsolution, where the
        # coefficients are constant and the preconditioner is the exact
        # inverse, so its one Krylov step lands far below any eta
        loose = [(args, result) for args, _, result in degenerate_run[1:]
                 if result[1].rtol > DEFAULT_RTOL]
        assert len(loose) >= 5
        for (C, geom, rhs), (field, record) in loose:
            rel = (np.linalg.norm(apply_second_order(C, field, geom) - rhs)
                   / np.linalg.norm(rhs))
            assert rel == pytest.approx(record.residual, rel=1e-9)
            assert record.rtol / 20 <= record.residual <= record.rtol


@pytest.fixture(scope="module")
def degenerate_run():
    """(args, kwargs, result) of every solve_dirichlet call of the 8^4
    degenerate-cos + 1e-3 solve from the zero subsolution."""
    geom = GridGeometry(n=2, resolution=8)
    fun = cones.monge_ampere(2)
    prob = presets.build_problem(geom, fun, "degenerate-cos", "zero", "zero")
    psi = ScalarField(geom=geom, values=prob.psi.values + 1e-3)
    calls = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs, solve_dirichlet(*args, **kwargs)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "solve_dirichlet", capture)
        solve.continuity_solve(fun, prob.chi, psi, prob.phi, prob.u_sub)
    return calls


def counted_applications(monkeypatch):
    """Patch linsolve.apply_second_order to count its calls."""
    count = [0]
    inner = linsolve.apply_second_order

    def apply(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(linsolve, "apply_second_order", apply)
    return count


def counted_preconditioner(monkeypatch):
    """Patch _MeanCoefficientInverse.apply to count its calls."""
    count = [0]
    inner = _MeanCoefficientInverse.apply

    def apply(self, x, **kwargs):
        count[0] += 1
        return inner(self, x, **kwargs)

    monkeypatch.setattr(_MeanCoefficientInverse, "apply", apply)
    return count


class TestSolveRecord:
    @pytest.mark.parametrize("geom", [
        GridGeometry(n=2, resolution=4),
        CylinderGeometry(d=2, resolution=6),
    ], ids=["complex-4", "cyl-6"])
    def test_applications_match_counted_apply(self, geom, monkeypatch):
        C, rng, _ = random_coefficients(geom, 3)
        rhs = rng.standard_normal(geom.interior_shape)
        bc = rng.standard_normal(geom.shape)
        count = counted_applications(monkeypatch)
        precond = counted_preconditioner(monkeypatch)
        _, record = solve_dirichlet(C, geom, rhs, boundary_values=bc, rtol=1e-9)
        assert record.applications == count[0]
        assert record.rtol == 1e-9
        assert 0.0 < record.residual <= 1e-9
        assert record.precond_applications == precond[0] >= 1

    @pytest.mark.parametrize("geom", [
        GridGeometry(n=2, resolution=6),
        CylinderGeometry(d=3, resolution=7),
    ], ids=["complex-6", "cyl-7"])
    def test_constant_coefficients_take_two_applications(self, geom,
                                                         monkeypatch):
        # the preconditioner is the exact inverse: one Arnoldi step and
        # the cycle's closing residual; the zero start costs none.  M runs
        # once in the Arnoldi step and once on the cycle's update M(V y)
        # (once in all while GMRES kept a basis of the M v_j)
        rhs = np.random.default_rng(1).standard_normal(geom.interior_shape)
        count = counted_applications(monkeypatch)
        precond = counted_preconditioner(monkeypatch)
        _, record = solve_dirichlet(constant_diagonal(geom), geom, rhs)
        assert record.applications == count[0] == 2
        assert record.precond_applications == precond[0] == 2
        assert record.residual <= DEFAULT_RTOL

    def test_zero_rhs_record(self):
        geom = GridGeometry(n=2, resolution=4)
        _, record = solve_dirichlet(constant_diagonal(geom), geom,
                                    np.zeros(geom.interior_shape))
        assert (record.applications, record.precond_applications,
                record.residual) == (0, 0, 0.0)

    @pytest.mark.parametrize("corrupt", ["scaled", "offset"])
    def test_wrong_solution_reported_as_success_is_loud(self, corrupt,
                                                        monkeypatch):
        # wrong least-squares coefficients with the residual estimate of
        # the right ones: each cycle believes it converged.  The solve must
        # converge to a residual an independent application confirms, or
        # raise; it must never report a residual above rtol
        inner = linsolve._arnoldi_coefficients

        def lying(H, beta):
            y, estimate = inner(H, beta)
            return (1.5 * y if corrupt == "scaled" else y + 1.0), estimate

        monkeypatch.setattr(linsolve, "_arnoldi_coefficients", lying)
        geom = GridGeometry(n=2, resolution=4)
        C, rng, _ = random_coefficients(geom, 2)
        rhs = rng.standard_normal(geom.interior_shape)
        monkeypatch.setattr(linsolve, "MAX_CYCLES", 100)
        try:
            u, record = solve_dirichlet(C, geom, rhs)
        except LinearSolveError as exc:
            assert "relative residual" in str(exc)
            return
        rel = (np.linalg.norm(apply_second_order(C, u, geom) - rhs)
               / np.linalg.norm(rhs))
        assert record.residual <= DEFAULT_RTOL
        assert rel == pytest.approx(record.residual, rel=1e-6)

    @pytest.mark.parametrize("geom", [
        GridGeometry(n=2, resolution=8),
        CylinderGeometry(d=3, resolution=8),
    ], ids=["complex-8", "cyl-8"])
    def test_stalled_solve_raises_within_three_cycles(self, geom,
                                                      monkeypatch):
        # least-squares coefficients offset by 1 hold the true residual
        # near where it started: the solve must name the stall rather
        # than spend all MAX_CYCLES cycles
        inner = linsolve._arnoldi_coefficients
        cycles = [0]

        def offset(H, beta):
            cycles[0] += H.shape[1] == 1  # the first Arnoldi step of a cycle
            y, estimate = inner(H, beta)
            return y + 1.0, estimate

        monkeypatch.setattr(linsolve, "_arnoldi_coefficients", offset)
        rhs = np.random.default_rng(4).standard_normal(geom.interior_shape)
        with pytest.raises(LinearSolveError, match="stalled"):
            solve_dirichlet(constant_diagonal(geom), geom, rhs)
        assert 1 <= cycles[0] <= 3

    def test_nan_preconditioner_raises_at_once(self, monkeypatch):
        calls = [0]

        def nan_apply(self, x, out=None):
            calls[0] += 1
            if out is None:
                return np.full_like(x, np.nan)
            out[...] = np.nan
            return out

        monkeypatch.setattr(_MeanCoefficientInverse, "apply", nan_apply)
        geom = GridGeometry(n=2, resolution=4)
        rhs = np.random.default_rng(2).standard_normal(geom.interior_shape)
        with pytest.raises(LinearSolveError, match="non-finite"):
            solve_dirichlet(constant_diagonal(geom), geom, rhs)
        assert calls[0] == 1

    def test_nan_rhs_is_loud(self):
        geom = GridGeometry(n=2, resolution=4)
        rhs = np.ones(geom.interior_shape)
        rhs[1, 1, 1, 1] = np.nan
        with pytest.raises(LinearSolveError, match="non-finite"):
            solve_dirichlet(constant_diagonal(geom), geom, rhs)

    @pytest.mark.parametrize("geom, fun", [
        (GridGeometry(n=2, resolution=16), cones.monge_ampere(2)),
        (CylinderGeometry(d=3, resolution=32), cones.monge_ampere(3)),
    ], ids=["complex-16", "cyl-32"])
    def test_krylov_buffer_application_is_bit_identical(self, geom, fun,
                                                        monkeypatch):
        # every Krylov vector goes into one padded buffer whose ghost
        # layers are refreshed in place; each application must equal the
        # one on the full-shape field, which is padded afresh
        prob = presets.build_problem(geom, fun, "manufactured", "zero",
                                     "star-bump")
        C = operators.coefficient_tensor(
            operators.linearize(prob.u_star, fun, prob.chi), geom)
        assert any(a < b for a, b in C)
        inner = linsolve.apply_second_order
        core = [slice(1, -1)] * geom.real_dims
        core[geom.dirichlet_axis] = slice(None)
        checked = [0]

        def apply(C_, buffer, geom_):
            out = inner(C_, buffer, geom_)
            if buffer.shape != geom.shape:
                full = buffer[tuple(core)].copy()
                np.testing.assert_array_equal(out, inner(C_, full, geom_))
                checked[0] += 1
            return out

        monkeypatch.setattr(linsolve, "apply_second_order", apply)
        rhs = np.random.default_rng(6).standard_normal(geom.interior_shape)
        solve_dirichlet(C, geom, rhs, rtol=1e-6)
        assert checked[0] >= 3


class TestMemory:
    def test_solve_holds_one_basis_and_the_distinct_planes(self):
        # tracemalloc peak of forming C (complex n = 2: 4 distinct planes)
        # and one 12^4 solve_dirichlet, in interior vectors: the RESTART + 1
        # rows of V, the planes, and SLACK for the rest (the padded Krylov
        # buffer and the stencils' first differences, 1.9 vectors each at
        # 12^4; the preconditioner's weight, transform buffers and pivots,
        # 4.3; x, r, the scratch vector and the outputs of A and M; the
        # operator's two planes; the small Hessenberg solves).  Measured
        # 51.0 against the bound 55; the parent kept a basis of the M v_j
        # (30 more rows), all 16 planes of C, a copy of the right-hand side
        # and the solution field through GMRES, and peaked at 94.2
        SLACK = 20
        geom, fun = GridGeometry(n=2, resolution=12), cones.monge_ampere(2)
        prob = presets.build_problem(geom, fun, "manufactured", "zero",
                                     "star-bump")
        F = operators.linearize(prob.u_sub, fun, prob.chi)
        rhs = np.random.default_rng(8).standard_normal(geom.interior_shape)
        vector = rhs.nbytes
        tracemalloc.start()
        try:
            C = operators.coefficient_tensor(F, geom)
            solve_dirichlet(C, geom, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len({id(plane) for _, plane in C.values()}) == 4
        assert peak <= (linsolve.RESTART + 1 + 4 + SLACK) * vector


# numpy calls that run level-1 BLAS on interior-sized vectors or on a
# lemma-sweep batch, and so wake OpenBLAS's second thread, which then spins
# through the numpy work after it
BLAS_CALLS = ("dot", "vdot", "inner", "linalg.norm")
SINGLE_THREAD = [linsolve._gmres, operators.apply_second_order,
                 operators.coefficient_tensor, operators.exit_polynomial,
                 operators.cone_exit, solve._cone_exit,
                 operators.newton_tensors, operators.newton_state,
                 operators.linearize, operators._trace_product,
                 operators._negated_product,
                 operators._chi_planes, operators._dense,
                 solve._extreme_eigenvalues,
                 operators._second_partials, operators._real_partials,
                 operators.complex_hessian, operators.real_hessian,
                 operators.form_field,
                 operators._boundary_real_second, operators._complex_form,
                 operators.boundary_real_hessian,
                 operators.boundary_complex_hessian,
                 arrowhead._bounds, arrowhead._secular_sum, arrowhead._root,
                 arrowhead._sorted_planes, arrowhead._settled,
                 arrowhead._lower, arrowhead._top_lower,
                 arrowhead._certified, arrowhead._weights, arrowhead._growth,
                 arrowhead._chunk_stats, arrowhead.sweep_cells,
                 arrowhead._concentration]


def blas_calls(function):
    """Source lines of the BLAS calls and matrix products in a function,
    nested functions included."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = ast.unparse(node.func)
            if any(name == call or name.endswith("." + call) for call in BLAS_CALLS):
                found.append(ast.unparse(node))
    return found


class TestSingleThread:
    @pytest.mark.parametrize("function", SINGLE_THREAD, ids=lambda f: f.__name__)
    def test_no_blas_in_krylov_and_stencils(self, function):
        assert blas_calls(function) == []

    def test_check_sees_the_exempt_least_squares(self):
        # the small Hessenberg solve may use BLAS; the check must see it
        assert blas_calls(linsolve._arnoldi_coefficients) == [
            "np.linalg.norm(H @ y - g)", "H @ y"]
