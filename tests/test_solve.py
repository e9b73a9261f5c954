"""Continuity solves, majorant/comparison sandwich, reports, barriers.

Small grids (8^4, 8^3) keep these fast; the full-scale runs live in the
acceptance suite.
"""

import numpy as np
import pytest

from hessiancone import cones as cn
from hessiancone import presets as pr
from hessiancone import solve as sv
from hessiancone.geometry import CylinderGeometry, GridGeometry, ScalarField
from hessiancone.linsolve import solve_dirichlet
from hessiancone.operators import form_field, eigen_field

GEOM8 = GridGeometry(n=2, resolution=8)
MA2 = cn.monge_ampere(2)
S1 = cn.sigma_k_root(2, 1)


def solve_problem(geom, fun, psi, phi, sub, scale=1.0, config=None):
    prob = pr.build_problem(geom, fun, psi, phi, sub, scale=scale)
    u, rep = sv.continuity_solve(fun, prob.chi, prob.psi, prob.phi,
                                 prob.u_sub, config)
    return prob, u, rep


class TestHarmonicMajorant:
    def test_zero_data(self):
        w = sv.harmonic_majorant(np.zeros((2, 2)), ScalarField.zeros(GEOM8), GEOM8)
        assert w.sup() == 0.0

    def test_identity_chi_one_dimensional_profile(self):
        # trace chi = 2, so w solves (1/4) Lap w = -2: w = 4 x_n (1 - x_n)
        w = sv.harmonic_majorant(np.eye(2), ScalarField.zeros(GEOM8), GEOM8)
        xn = GEOM8.grids()[GEOM8.dirichlet_axis]
        expected = np.broadcast_to(4.0 * xn * (1.0 - xn), GEOM8.shape)
        np.testing.assert_allclose(w.values, expected, atol=1e-10)

    def test_cylinder_identity_chi_profile(self):
        # on the cylinder the trace Laplacian is the full one: Lap w = -3
        geom = CylinderGeometry(d=3, resolution=8)
        w = sv.harmonic_majorant(np.eye(3), ScalarField.zeros(geom), geom)
        xd = geom.grids()[geom.dirichlet_axis]
        expected = np.broadcast_to(1.5 * xd * (1.0 - xd), geom.shape)
        np.testing.assert_allclose(w.values, expected, atol=1e-10)

    def test_superposition(self):
        rng = np.random.default_rng(2)
        face_profile = rng.standard_normal(GEOM8.shape)
        phi1 = ScalarField(geom=GEOM8, values=face_profile)
        phi0 = ScalarField.zeros(GEOM8)
        w1 = sv.harmonic_majorant(np.eye(2), phi1, GEOM8)
        w2 = sv.harmonic_majorant(np.eye(2), phi0, GEOM8)
        w3 = sv.harmonic_majorant(np.zeros((2, 2)), phi1, GEOM8)
        np.testing.assert_allclose(w1.values, w2.values + w3.values, atol=1e-9)


class TestTrivialSolve:
    def test_identity_problem_stays_zero(self):
        prob, u, rep = solve_problem(GEOM8, MA2, "one", "zero", "zero")
        assert rep.converged
        assert rep.final_residual <= 1e-8
        assert rep.sup_u <= 1e-8
        assert rep.comparison_violations == 0
        assert rep.newton_iterations == 0

    def test_path_constant_when_target_matches_subsolution(self):
        prob = pr.build_problem(GEOM8, MA2, "manufactured", "zero", "star-bump")
        lam = eigen_field(form_field(prob.u_sub, prob.chi))
        psi0 = ScalarField(geom=GEOM8, values=np.zeros(GEOM8.shape))
        psi0.values[GEOM8.interior] = cn.f_many(MA2, lam)
        u, rep = sv.continuity_solve(MA2, prob.chi, psi0, prob.phi, prob.u_sub)
        np.testing.assert_allclose(u.values, prob.u_sub.values, atol=1e-12)


def run_controller(monkeypatch, too_long):
    """Target t values the controller tries, and its report, with a
    stand-in stage solve that fails when too_long(t_target, step)."""
    attempts, accepted = [], [0.0]

    def stage(u0, fun, chi, psi_t, config, t_label):
        attempts.append(t_label)
        if too_long(t_label, t_label - accepted[-1]):
            raise sv._StageFailure("step too long")
        accepted.append(t_label)
        return u0, sv.StageRecord(t=t_label, residuals=[0.0], dampings=[])

    monkeypatch.setattr(sv, "_newton_solve", stage)
    prob = pr.build_problem(GEOM8, MA2, "manufactured", "zero", "star-bump")
    u, rep = sv.continuity_solve(MA2, prob.chi, prob.psi, prob.phi, prob.u_sub)
    return attempts, rep


class TestNewton:
    def test_zero_residual_is_fixed_point(self):
        prob = pr.build_problem(GEOM8, MA2, "one", "zero", "zero")
        u, record = sv._newton_solve(
            ScalarField.zeros(GEOM8), MA2, prob.chi,
            np.ones(GEOM8.interior_shape), sv.SolverConfig(), 1.0,
        )
        assert u.sup() == 0.0 and record.dampings == []

    def test_sigma1_single_step_solves_poisson(self):
        prob = pr.build_problem(GEOM8, S1, "manufactured", "zero", "star-bump")
        psi_int = prob.psi.values[GEOM8.interior]
        u, record = sv._newton_solve(
            prob.u_sub, S1, prob.chi, psi_int, sv.SolverConfig(), 1.0
        )
        lam = eigen_field(form_field(u, prob.chi))
        resid = np.abs(cn.f_many(S1, lam) - psi_int).max()
        assert resid <= 1e-9
        assert record.dampings == [1.0]  # one undamped step

    def test_superlinear_tail(self):
        prob, u, rep = solve_problem(GEOM8, MA2, "manufactured", "zero",
                                     "star-bump")
        ratios = sv.newton_tail_ratios(rep.stage_history, count=2)
        assert ratios and all(r >= 10.0 for r in ratios)

    def test_stages_end_exactly_at_one(self):
        prob, u, rep = solve_problem(GEOM8, MA2, "manufactured", "zero",
                                     "star-bump")
        ts = [stage.t for stage in rep.stage_history]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert ts[-1] == 1.0 and rep.continuity_stages == len(ts)

    def test_controller_halves_on_failure_and_doubles_on_success(self,
                                                                 monkeypatch):
        attempts, rep = run_controller(monkeypatch, lambda t, step: step > 0.3)
        assert attempts == [1.0, 0.5, 0.25, 0.75, 0.5, 1.0, 0.75, 1.0]
        assert [s.t for s in rep.stage_history] == [0.25, 0.5, 0.75, 1.0]
        assert rep.continuity_stages == 4 and rep.min_dt_used == 0.25
        assert rep.rejected_stages == [
            (0.0, 1.0, "step too long"), (0.0, 0.5, "step too long"),
            (0.25, 0.75, "step too long"), (0.5, 1.0, "step too long"),
        ]

    def test_failed_step_clipped_at_one_is_halved_not_retried(self,
                                                              monkeypatch):
        # after t = 0.75 the doubled step overshoots and is clipped to 0.25;
        # its failure must halve the step taken, not retry the same stage
        attempts, rep = run_controller(
            monkeypatch, lambda t, step: t == 1.0 and step > 0.2)
        assert attempts == [1.0, 0.5, 1.0, 0.75, 1.0, 0.875, 1.0]
        assert rep.rejected_stages == [
            (0.0, 1.0, "step too long"), (0.5, 1.0, "step too long"),
            (0.75, 1.0, "step too long"),
        ]
        assert rep.min_dt_used == 0.125

    def test_subsolution_violation_rejected(self):
        prob = pr.build_problem(GEOM8, MA2, "one", "zero", "zero")
        bad_psi = ScalarField(geom=GEOM8, values=2.0 * np.ones(GEOM8.shape))
        with pytest.raises(sv.SubsolutionError):
            sv.continuity_solve(MA2, prob.chi, bad_psi, prob.phi, prob.u_sub)

    def test_boundary_mismatch_rejected(self):
        prob = pr.build_problem(GEOM8, MA2, "one", "zero", "zero")
        phi_bad = ScalarField(geom=GEOM8, values=np.ones(GEOM8.shape))
        with pytest.raises(sv.SubsolutionError, match="boundary"):
            sv.continuity_solve(MA2, prob.chi, prob.psi, phi_bad, prob.u_sub)

    def test_path_stall_reports_position(self):
        # a zero Newton budget fails every stage; the step shrinks to the
        # floor and the driver must stall loudly with its position
        prob = pr.build_problem(GEOM8, MA2, "manufactured", "zero",
                                "star-bump")
        config = sv.SolverConfig(max_newton=0, dt_min=1e-2)
        with pytest.raises(sv.ContinuationError) as err:
            sv.continuity_solve(MA2, prob.chi, prob.psi, prob.phi,
                                prob.u_sub, config)
        assert err.value.t == 0.0

    def test_linear_solver_failure_surfaces_as_stage_failure(self):
        from hessiancone.linsolve import LinearSolveError, solve_dirichlet

        C = np.zeros(GEOM8.interior_shape + (4, 4))
        for a in range(4):
            C[..., a, a] = 0.25
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(GEOM8.interior_shape)
        with pytest.raises(LinearSolveError):
            solve_dirichlet(C, GEOM8, rhs, maxiter=0)

    def test_linear_solver_failure_in_newton_stalls_the_path(self, monkeypatch):
        from hessiancone.linsolve import LinearSolveError

        def fail(*args, **kwargs):
            raise LinearSolveError("forced")

        monkeypatch.setattr(sv, "solve_dirichlet", fail)
        prob = pr.build_problem(GEOM8, MA2, "manufactured", "zero",
                                "star-bump")
        with pytest.raises(sv.ContinuationError, match="forced"):
            sv.continuity_solve(MA2, prob.chi, prob.psi, prob.phi,
                                prob.u_sub)


class TestManufactured:
    @pytest.mark.parametrize("fun", [MA2, S1], ids=lambda f: f.label)
    def test_second_order_recovery(self, fun):
        errs = {}
        for m in (8, 16):
            geom = GridGeometry(n=2, resolution=m)
            prob, u, rep = solve_problem(geom, fun, "manufactured", "zero",
                                         "star-bump")
            assert rep.converged and rep.comparison_violations == 0
            errs[m] = float(np.abs(u.values - prob.u_star.values).max())
        order = np.log2(errs[8] / errs[16])
        assert 1.7 <= order <= 2.3


class TestComparison:
    def test_equal_fields(self):
        z = ScalarField.zeros(GEOM8)
        assert sv.comparison_check(z, z, z) == 0

    def test_detects_violation(self):
        z = ScalarField.zeros(GEOM8)
        above = ScalarField(geom=GEOM8, values=np.full(GEOM8.shape, 1.0))
        assert sv.comparison_check(above, z, z) == above.values.size


class TestEstimateReport:
    def test_zero_field(self):
        rep = sv.estimate_report(ScalarField.zeros(GEOM8))
        assert rep.sup_u == 0.0 and rep.boundary_ratio == 0.0

    def test_linear_normal_profile(self):
        c = 0.7
        xn = GEOM8.grids()[GEOM8.dirichlet_axis]
        u = ScalarField(geom=GEOM8,
                        values=np.broadcast_to(c * xn, GEOM8.shape).copy())
        rep = sv.estimate_report(u)
        assert max(rep.sup_grad_interior, rep.sup_grad_boundary) == pytest.approx(c)
        assert rep.sup_ddbar_interior <= 1e-12
        assert rep.boundary_ratio <= 1e-12

    def test_csv_row_cells(self):
        rep = sv.SolveReport(label="ma", resolution=8, converged=True,
                             t_final=1.0, final_residual=2.5e-10,
                             comparison_violations=0, newton_iterations=3,
                             continuity_stages=1, min_dt_used=1.0)
        assert sv.SolveReport.CSV_FIELDS.count(",") == 16
        assert rep.csv_row() == (
            "ma,8,1,1.0,2.5e-10,nan,nan,nan,nan,nan,nan,nan,nan,0,3,1,1.0"
        )


class TestBarrier:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="N\\*delta"):
            sv.BarrierSpec(A1=1, A2=1, A3=1, N=10.0, t_barrier=0.1, delta=0.2)
        with pytest.raises(ValueError, match="half"):
            sv.BarrierSpec(A1=1, A2=1, A3=1, N=0.1, t_barrier=0.9, delta=0.8)

    def test_trivial_fields_hand_formula(self):
        spec = sv.BarrierSpec(A1=40, A2=10, A3=40, N=2.0, t_barrier=0.45,
                              delta=0.2)
        z = ScalarField.zeros(GEOM8)
        bar = sv.barrier_eval(z, z, z, MA2, np.eye(2), spec, (0, 0, 0, 0),
                              (1, -1))
        sig = GEOM8.boundary_distance()
        rho = GEOM8.distance_to((0, 0, 0, 0))
        hand = spec.A3 * (spec.N * sig**2 - spec.t_barrier * sig) \
            - spec.A2 * rho**2
        inn = GEOM8.interior
        np.testing.assert_allclose(bar.psi_tilde.values[inn], hand[inn],
                                   atol=1e-12)
        assert bar.b1 == pytest.approx(1.0)
        # nonpositive wherever N sigma <= t
        region = spec.N * sig[inn] <= spec.t_barrier
        assert np.all(bar.psi_tilde.values[inn][region] <= 1e-12)

    def test_solved_case_maximum_principle_shape(self):
        geom = GridGeometry(n=2, resolution=16)
        prob, u, rep = solve_problem(geom, MA2, "manufactured", "zero",
                                     "star-bump")
        spec = sv.BarrierSpec(A1=40, A2=10, A3=40, N=2.0, t_barrier=0.45,
                              delta=0.2)
        bar = sv.barrier_eval(u, prob.u_sub, prob.phi, MA2, prob.chi, spec,
                              (0, 0, 0, 0), (0, +1))
        assert bar.min_L_interior >= -10.0 * geom.h
        assert bar.max_on_ring <= 1e-9
        assert bar.omega_nodes > 0

    def test_direction_validation(self):
        z = ScalarField.zeros(GEOM8)
        spec = sv.BarrierSpec(A1=1, A2=1, A3=1, N=1.0, t_barrier=0.5,
                              delta=0.2)
        with pytest.raises(ValueError, match="tangential"):
            sv.barrier_eval(z, z, z, MA2, np.eye(2), spec, (0, 0, 0, 0),
                            (2, 1))
        with pytest.raises(ValueError, match="boundary"):
            sv.barrier_eval(z, z, z, MA2, np.eye(2), spec, (0, 0, 3, 0),
                            (0, 1))


class TestRiemannian:
    def test_manufactured_order_and_tangential_check(self):
        fun = cn.monge_ampere(3)
        errs = {}
        for m in (8, 16):
            geom = CylinderGeometry(d=3, resolution=m)
            prob = pr.build_problem(geom, fun, "manufactured", "zero",
                                    "star-bump")
            u, rep = sv.solve_riemannian(fun, prob.chi, prob.psi, prob.phi,
                                         prob.u_sub)
            assert rep.converged and rep.comparison_violations == 0
            assert rep.boundary_tangential_min >= -10.0 * geom.h**2
            errs[m] = float(np.abs(u.values - prob.u_star.values).max())
        order = np.log2(errs[8] / errs[16])
        assert 1.7 <= order <= 2.3

    def test_sigma1_poisson_matches_linear_oracle(self):
        fun = cn.sigma_k_root(2, 1)
        geom = CylinderGeometry(d=2, resolution=12)
        prob = pr.build_problem(geom, fun, "manufactured", "zero", "star-bump")
        u, rep = sv.solve_riemannian(fun, prob.chi, prob.psi, prob.phi,
                                     prob.u_sub)
        # direct linear solve: trace(chi + Hess u) = psi
        C = np.zeros(geom.interior_shape + (2, 2))
        C[..., 0, 0] = 1.0
        C[..., 1, 1] = 1.0
        rhs = prob.psi.values[geom.interior] - 2.0
        w = solve_dirichlet(C, geom, rhs, boundary_values=prob.phi.values)
        np.testing.assert_allclose(u.values, w, atol=1e-8)

    def test_path_constant_matches_subsolution(self):
        fun = cn.monge_ampere(3)
        geom = CylinderGeometry(d=3, resolution=8)
        prob = pr.build_problem(geom, fun, "manufactured", "zero", "star-bump")
        lam = eigen_field(form_field(prob.u_sub, prob.chi))
        psi0 = ScalarField.zeros(geom)
        psi0.values[geom.interior] = cn.f_many(fun, lam)
        u, rep = sv.solve_riemannian(fun, prob.chi, psi0, prob.phi, prob.u_sub)
        np.testing.assert_allclose(u.values, prob.u_sub.values, atol=1e-12)


class TestDegenerate:
    def test_strictness_required(self):
        prob = pr.build_problem(GEOM8, MA2, "one", "zero", "zero")
        with pytest.raises(sv.SubsolutionError, match="strict"):
            sv.degenerate_sweep(MA2, prob.chi, prob.psi, prob.phi, prob.u_sub,
                                [0.1])

    def test_eps_shift_equals_plain_solve(self):
        # psi == 0 with eps = 1 is exactly the psi == 1 problem
        zero_psi = ScalarField.zeros(GEOM8)
        prob = pr.build_problem(GEOM8, MA2, "one", "zero", "zero")
        rows = sv.degenerate_sweep(MA2, prob.chi, zero_psi, prob.phi,
                                   prob.u_sub, [1.0])
        assert rows[0]["converged"]
        assert rows[0]["sup_u"] <= 1e-10

    def test_bounded_laplacian_across_eps(self):
        prob = pr.build_problem(GEOM8, MA2, "degenerate-cos", "zero", "zero")
        rows = sv.degenerate_sweep(MA2, prob.chi, prob.psi, prob.phi,
                                   prob.u_sub, [1e-1, 1e-2, 1e-3])
        assert all(r["converged"] for r in rows)
        assert rows[0]["delta0"] >= 0.5
        laps = [r["sup_lap"] for r in rows]
        assert max(laps) / min(laps) <= 2.0

    def test_strict_margin_keeps_subsolution_valid(self):
        prob = pr.build_problem(GEOM8, MA2, "degenerate-cos", "zero", "zero")
        lam = eigen_field(form_field(prob.u_sub, prob.chi))
        psi0 = cn.f_many(MA2, lam)
        for eps in (1e-1, 1e-2, 1e-3):
            shifted = prob.psi.values[GEOM8.interior] + eps
            assert np.all(psi0 >= shifted)
