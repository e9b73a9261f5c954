"""Continuity solves, majorant/comparison sandwich, reports, barriers.

Small grids (8^4, 8^3) keep these fast; the full-scale runs live in the
acceptance suite.
"""

import functools
import inspect
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessiancone import cones as cn
from hessiancone import operators as op
from hessiancone import presets as pr
from hessiancone import solve as sv
from hessiancone.geometry import CylinderGeometry, GridGeometry, ScalarField
from hessiancone.linsolve import DEFAULT_RTOL, solve_dirichlet
from hessiancone.operators import (
    boundary_complex_hessian,
    boundary_real_hessian,
    eigen_field,
    form_field,
    gradient_boundary,
    gradient_interior,
)

from dense_coefficients import distinct_planes
from dense_forms import dense_form, planes_of

GEOM8 = GridGeometry(n=2, resolution=8)
MA2 = cn.monge_ampere(2)
S1 = cn.sigma_k_root(2, 1)


def eigenvalues(u, chi=None):
    """The eigenvalues of chi + Hessian of u at every interior node, from a
    dense solve."""
    return eigen_field(dense_form(form_field(u, chi), u.geom.is_complex))


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
        lam = eigenvalues(prob.u_sub, prob.chi)
        psi0 = ScalarField(geom=GEOM8, values=np.zeros(GEOM8.shape))
        psi0.values[GEOM8.interior] = cn.f_many(MA2, lam)
        u, rep = sv.continuity_solve(MA2, prob.chi, psi0, prob.phi, prob.u_sub)
        np.testing.assert_allclose(u.values, prob.u_sub.values, atol=1e-12)


def count_stages(monkeypatch):
    """The argument lists _newton_solve is called with, filled as it runs."""
    calls = []
    inner = sv._newton_solve

    def stage(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(sv, "_newton_solve", stage)
    return calls


def expected_factors(step, exit_):
    """The damping factors _newton_solve tries in a step with the step's
    trials and cone exit: 1, then EXIT_FRACTION theta* when the full trial
    left the cone (0.5 when theta* >= 1 or nan), or 0.5 when it raised
    the residual; then halving."""
    full_left_cone = step[0][1] == "inadmissible"
    assert full_left_cone != np.isnan(exit_)  # theta* just when it left
    second = sv.EXIT_FRACTION * exit_ if exit_ < 1.0 else 0.5
    return [1.0] + [second * 0.5**i for i in range(len(step) - 1)]


class TestForcing:
    TOLERANCE = sv.SolverConfig().tolerance

    def test_first_step_at_eta_max(self):
        # no residual history yet: the loosest forcing term
        assert sv._forcing_term([0.3], self.TOLERANCE) == sv.ETA_MAX

    def test_quadratic_in_the_residual_ratio(self):
        eta = sv._forcing_term([1.0, 1e-2], self.TOLERANCE)
        assert eta == pytest.approx(0.9e-4)

    def test_clipped_to_floor_and_cap(self):
        # a fast contraction far above the tolerance would ask for less
        # than DEFAULT_RTOL, a slow one for more than ETA_MAX
        assert sv._forcing_term([1e8, 1e2], self.TOLERANCE) == DEFAULT_RTOL
        assert sv._forcing_term([1.0, 0.9], self.TOLERANCE) == sv.ETA_MAX

    def test_oversolving_floor(self):
        # 0.9 (5e-4)^2 = 2.3e-7, but 0.1 tolerance / r = 0.02 -> the cap
        assert sv._forcing_term([1e-4, 5e-8], self.TOLERANCE) == sv.ETA_MAX
        # 0.1 tolerance / r = 5e-4 wins over 0.9 (1e-2)^2 = 9e-5
        eta = sv._forcing_term([2e-4, 2e-6], self.TOLERANCE)
        assert eta == pytest.approx(sv.OVERSOLVE * self.TOLERANCE / 2e-6)

    def test_floor_is_the_linear_solver_default(self):
        # the tightest Newton solve asks for what solve_dirichlet asks for
        # by default: the quadratic term 9e-13 and the oversolving term
        # 1e-15 both rise to it
        default = inspect.signature(solve_dirichlet).parameters["rtol"].default
        assert sv._forcing_term([1.0, 1e-6], 1e-20) == default == DEFAULT_RTOL

    def test_recorded_sequence_of_a_degenerate_solve(self):
        prob = pr.build_problem(GEOM8, MA2, "degenerate-cos", "zero", "zero")
        psi = ScalarField(geom=GEOM8, values=prob.psi.values + 1e-3)
        u, rep = sv.continuity_solve(MA2, prob.chi, psi, prob.phi, prob.u_sub)
        stage = rep.stage
        etas = [rec.rtol for rec in stage.linear]
        assert len(etas) == len(stage.dampings)
        assert etas[0] == sv.ETA_MAX
        assert all(DEFAULT_RTOL <= e <= sv.ETA_MAX for e in etas[1:])
        assert etas == [sv._forcing_term(stage.residuals[:k + 1],
                                         self.TOLERANCE)
                        for k in range(len(etas))]
        assert all(rec.residual <= 10.0 * rec.rtol for rec in stage.linear)
        assert rep.final_residual <= self.TOLERANCE

    def test_deep_subsolution_quotient_solve_converges(self):
        # far below its target (u_sub = -1000 x_n (1 - x_n)), the
        # quotient's first linearization is one GMRES cannot solve to
        # 1e-10 (it stalls near 2.5e-10); at ETA_MAX the stage converges
        fun = cn.parse_kind("quotient:1:2", 2)
        prob = pr.build_problem(GEOM8, fun, "degenerate-cos", "zero", "zero")
        psi = ScalarField(geom=GEOM8, values=prob.psi.values + 1e-3)
        u_sub = ScalarField(geom=GEOM8,
                            values=-1000.0 * pr.bump_values(GEOM8))
        u, rep = sv.continuity_solve(fun, prob.chi, psi, prob.phi, u_sub)
        assert rep.final_residual <= self.TOLERANCE
        assert rep.stage.linear[0].rtol == sv.ETA_MAX

    @pytest.mark.parametrize("case", ["degenerate-8", "cylinder-16"])
    def test_forced_and_tight_solutions_agree(self, case, monkeypatch):
        if case == "degenerate-8":
            geom, fun = GEOM8, MA2
            prob = pr.build_problem(geom, fun, "degenerate-cos", "zero", "zero")
            psi = ScalarField(geom=geom, values=prob.psi.values + 1e-3)
        else:
            geom, fun = CylinderGeometry(d=3, resolution=16), cn.monge_ampere(3)
            prob = pr.build_problem(geom, fun, "manufactured", "zero",
                                    "star-bump")
            psi = prob.psi
        forced, rep = sv.continuity_solve(fun, prob.chi, psi, prob.phi,
                                          prob.u_sub)
        monkeypatch.setattr(sv, "_forcing_term",
                            lambda residuals, tolerance: DEFAULT_RTOL)
        tight, rep_tight = sv.continuity_solve(fun, prob.chi, psi, prob.phi,
                                               prob.u_sub)
        for report in (rep, rep_tight):
            assert report.final_residual <= self.TOLERANCE
        assert np.abs(forced.values - tight.values).max() <= 1e-9


class TestNewton:
    def test_zero_residual_is_fixed_point(self):
        prob = pr.build_problem(GEOM8, MA2, "one", "zero", "zero")
        u, record = sv._newton_solve(
            ScalarField.zeros(GEOM8), MA2, prob.chi,
            np.ones(GEOM8.interior_shape), sv.SolverConfig(),
        )
        assert u.sup() == 0.0 and record.dampings == []

    def test_sigma1_single_step_solves_poisson(self):
        prob = pr.build_problem(GEOM8, S1, "manufactured", "zero", "star-bump")
        psi_int = prob.psi.values[GEOM8.interior]
        u, record = sv._newton_solve(
            prob.u_sub, S1, prob.chi, psi_int, sv.SolverConfig()
        )
        lam = eigenvalues(u, prob.chi)
        resid = np.abs(cn.f_many(S1, lam) - psi_int).max()
        assert resid <= 1e-9
        assert record.dampings == [1.0]  # one undamped step

    def test_damping_trials_follow_the_cone_exit(self, monkeypatch):
        # degenerate data: every step tries the full step first; when it
        # leaves the cone the next trial is EXIT_FRACTION theta*, and the
        # trials halve from there.  One residual evaluation per trial
        prob = pr.build_problem(GEOM8, MA2, "degenerate-cos", "zero", "zero")
        psi_int = prob.psi.values[GEOM8.interior] + 1e-3
        evals = [0]
        inner = sv._residual_and_mask

        def counted(*args):
            evals[0] += 1
            return inner(*args)

        monkeypatch.setattr(sv, "_residual_and_mask", counted)
        u, record = sv._newton_solve(prob.u_sub, MA2, prob.chi, psi_int,
                                     sv.SolverConfig())
        assert len(record.cone_exits) == len(record.dampings)
        for step, exit_ in zip(record.trials, record.cone_exits):
            assert [f for f, _ in step] == expected_factors(step, exit_)
        assert evals[0] == 1 + sum(map(len, record.trials))
        assert min(record.dampings) < 1.0

    def test_every_damping_trial_recorded(self, monkeypatch):
        # the 8^4 degenerate run: per step, each factor tried with its
        # trial's residual or "inadmissible", the last one accepted
        prob = pr.build_problem(GEOM8, MA2, "degenerate-cos", "zero", "zero")
        psi = ScalarField(geom=GEOM8, values=prob.psi.values + 1e-3)
        seen = []
        inner = sv._residual_and_mask

        def spy(*args):
            out = inner(*args)
            seen.append("inadmissible" if out[0] is None else out[1])
            return out

        monkeypatch.setattr(sv, "_residual_and_mask", spy)
        u, rep = sv.continuity_solve(MA2, prob.chi, psi, prob.phi, prob.u_sub)
        record = rep.stage
        assert len(record.trials) == len(record.dampings)
        # the stage start, then every trial in order
        assert [res for step in record.trials for _, res in step] == seen[1:]
        for k, step in enumerate(record.trials):
            assert [f for f, _ in step] == expected_factors(
                step, record.cone_exits[k])
            assert step[-1] == (record.dampings[k], record.residuals[k + 1])
            assert all(res == "inadmissible" or res >= record.residuals[k]
                       for _, res in step[:-1])
        # 2 of the 6 steps reject their full trial as inadmissible and
        # accept EXIT_FRACTION theta*.  Halving from twice the last factor
        # took 9 steps and rejected 4 trials; with the right-hand side -r,
        # 15 steps rejected 10
        rejected = [res for step in record.trials for _, res in step[:-1]]
        assert len(record.dampings) == 6
        assert len(rejected) == 2 and set(rejected) == {"inadmissible"}

    def test_cone_exit_damps_a_near_degenerate_cold_solve(self, monkeypatch):
        # 8^4 Monge-Ampere, degenerate-cos + 1e-6 from the zero
        # subsolution: 12 steps and 21 residual evaluations, where halving
        # from twice the last factor took 23 and 43.  Every damped step
        # rejects its full trial as inadmissible and accepts EXIT_FRACTION
        # theta*, with theta* < 1
        prob = pr.build_problem(GEOM8, MA2, "degenerate-cos", "zero", "zero")
        psi = ScalarField(geom=GEOM8, values=prob.psi.values + 1e-6)
        evals = [0]
        inner = sv._residual_and_mask

        def counted(*args):
            evals[0] += 1
            return inner(*args)

        monkeypatch.setattr(sv, "_residual_and_mask", counted)
        u, rep = sv.continuity_solve(MA2, prob.chi, psi, prob.phi, prob.u_sub)
        record = rep.stage
        assert rep.final_residual <= sv.SolverConfig().tolerance
        assert (len(record.dampings), evals[0]) == (12, 21)
        damped = [k for k, d in enumerate(record.dampings) if d < 1.0]
        assert len(damped) == 8
        for k, (step, exit_) in enumerate(zip(record.trials,
                                              record.cone_exits)):
            if k in damped:
                assert exit_ < 1.0
                assert step == [(1.0, "inadmissible"),
                                (sv.EXIT_FRACTION * exit_,
                                 record.residuals[k + 1])]
            else:
                assert np.isnan(exit_) and [f for f, _ in step] == [1.0]

    @pytest.mark.parametrize("geom, kind", [
        (GEOM8, "ma"), (CylinderGeometry(d=3, resolution=12), "quotient:1:3"),
    ], ids=["complex-8-ma", "cyl-12-quotient"])
    @pytest.mark.parametrize("block", [1, 300])
    def test_blockwise_cone_exit_equals_one_call(self, geom, kind, block,
                                                 monkeypatch):
        # cone_exit over blocks of first-axis layers (single layers, and
        # blocks that do not divide the grid) gives theta* bit for bit as
        # one call over all nodes: each node's root is its own.  The
        # cylinder's quotient takes the cubic's roots
        fun = cn.parse_kind(kind, geom.form_dim)
        prob = pr.build_problem(geom, fun, "degenerate-cos", "zero", "zero")
        psi = prob.psi.values[geom.interior] + 1e-3
        seen = []
        inner = sv._cone_exit

        def spy(u, delta, fun_, chi):
            theta = inner(u, delta, fun_, chi)
            whole = op.cone_exit(form_field(u, chi),
                                 form_field(ScalarField(geom=geom, values=delta)),
                                 fun_.cone_order, geom.is_complex)
            seen.append((theta, float(whole.min())))
            return theta

        monkeypatch.setattr(sv, "_cone_exit", spy)
        monkeypatch.setattr(sv, "EXIT_BLOCK", block)
        sv._newton_solve(prob.u_sub, fun, prob.chi, psi, sv.SolverConfig())
        assert seen and all(bits(a) == bits(b) for a, b in seen)

    def test_cone_exit_holds_g_and_h_and_one_block(self):
        # tracemalloc peak of _cone_exit at 16^4, where a block is 2 of the
        # 16 first-axis layers, in interior vectors: g and H (4 planes each,
        # complex n = 2) and the rest for forming the second of them while
        # the first is held (the padded field and its first differences,
        # 1.6 vectors each at 16^4, and two planes) or one block's tensors.
        # Measured 13.5 against the bound 16; with all 8 real entries of
        # each dense form (the parent) it peaked at 21.5
        BOUND = 16
        geom = GridGeometry(n=2, resolution=16)
        prob = pr.build_problem(geom, MA2, "degenerate-cos", "zero", "zero")
        delta = np.random.default_rng(3).standard_normal(geom.shape)
        delta[geom.faces] = 0.0
        vector = np.zeros(geom.interior_shape).nbytes
        tracemalloc.start()
        try:
            theta = sv._cone_exit(prob.u_sub, delta, MA2, prob.chi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < theta < 1.0
        assert peak <= BOUND * vector

    def test_newton_state_holds_the_distinct_planes(self):
        # tracemalloc peak of one 16^4 Monge-Ampere newton_state, in
        # interior vectors: g and T_1 (4 planes each), sigma_1 and
        # sigma_2, one pair term and a scratch plane of the trace.
        # Measured 12.0 against the bound 14; with a stored sigma_0 plane
        # it peaked at 13.0, and with the dense forms at 22.0
        BOUND = 14
        geom = GridGeometry(n=2, resolution=16)
        prob = pr.build_problem(geom, MA2, "degenerate-cos", "zero", "zero")
        vector = np.zeros(geom.interior_shape).nbytes
        tracemalloc.start()
        try:
            op.newton_state(prob.u_sub, MA2, prob.chi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= BOUND * vector

    def test_cone_order_four_keeps_plain_halving(self):
        # sigma_4 along a ray has middle coefficients that newton_tensors
        # does not polarize into: no theta*, and the trials halve from 1.
        # The 6^4 cylinder, Monge-Ampere, degenerate-cos + 1e-2 damps 10
        # of its 14 steps to 0.5
        geom, fun = CylinderGeometry(d=4, resolution=6), cn.monge_ampere(4)
        prob = pr.build_problem(geom, fun, "degenerate-cos", "zero", "zero")
        psi = ScalarField(geom=geom, values=prob.psi.values + 1e-2)
        u, rep = sv.solve_riemannian(fun, prob.chi, psi, prob.phi, prob.u_sub)
        record = rep.stage
        assert np.isnan(record.cone_exits).all()
        assert record.dampings.count(0.5) == 10
        for step in record.trials:
            assert [f for f, _ in step] == [0.5**i for i in range(len(step))]
            assert all(res == "inadmissible" for _, res in step[:-1])

    def test_phase_seconds_per_step(self):
        # one (linearization, linear solve, damping trials) triple of wall
        # seconds per Newton step, together within the solve's own time
        prob = pr.build_problem(GEOM8, MA2, "degenerate-cos", "zero", "zero")
        psi = ScalarField(geom=GEOM8, values=prob.psi.values + 1e-3)
        start = time.perf_counter()
        u, rep = sv.continuity_solve(MA2, prob.chi, psi, prob.phi, prob.u_sub)
        elapsed = time.perf_counter() - start
        record = rep.stage
        assert len(record.seconds) == len(record.dampings) > 1
        assert all(len(step) == 3 for step in record.seconds)
        assert all(t >= 0.0 for step in record.seconds for t in step)
        assert sum(map(sum, record.seconds)) <= elapsed

    @pytest.mark.parametrize("solver", ["continuity", "riemannian"])
    def test_report_seconds_per_phase(self, solver):
        # (subsolution check, Newton stage, diagnostics) wall
        # seconds, together within the solve's own time
        if solver == "riemannian":
            geom, fun, run = (CylinderGeometry(d=3, resolution=8),
                              cn.monge_ampere(3), sv.solve_riemannian)
        else:
            geom, fun, run = GEOM8, MA2, sv.continuity_solve
        prob = pr.build_problem(geom, fun, "manufactured", "zero", "star-bump")
        start = time.perf_counter()
        u, rep = run(fun, prob.chi, prob.psi, prob.phi, prob.u_sub)
        elapsed = time.perf_counter() - start
        assert len(rep.seconds) == 3
        assert all(t >= 0.0 for t in rep.seconds)
        assert sum(rep.seconds) <= elapsed
        assert "seconds" not in sv.SolveReport.CSV_FIELDS

    def test_superlinear_tail(self):
        prob, u, rep = solve_problem(GEOM8, MA2, "manufactured", "zero",
                                     "star-bump")
        ratios = sv.newton_tail_ratios(rep.stage, count=2)
        assert ratios and all(r >= 10.0 for r in ratios)

    @pytest.mark.parametrize("residuals, ratios", [
        ([0.25], []),
        ([0.25, 2.0**-10], [256.0]),
        ([1.0, 0.5, 2.0**-4, 2.0**-10], [64.0, 8.0]),
    ], ids=["no-step", "one-step", "three-steps"])
    def test_tail_ratios_of_a_record(self, residuals, ratios):
        # r_{k-1} / r_k of the last two steps, newest first
        record = sv.StageRecord(residuals=residuals,
                                dampings=[1.0] * (len(residuals) - 1))
        assert sv.newton_tail_ratios(record, count=2) == ratios

    def test_report_counts_match_the_stage(self):
        prob, u, rep = solve_problem(GEOM8, MA2, "manufactured", "zero",
                                     "star-bump")
        record = rep.stage
        assert rep.newton_iterations == len(record.dampings) > 0
        assert rep.final_residual == record.residuals[-1]

    def test_single_stage_starts_at_subsolution_and_targets_psi(
            self, monkeypatch):
        # the start is u_sub with phi on its faces; the target is psi's
        # interior to the bit (psi_t at t = 1)
        calls = count_stages(monkeypatch)
        prob, u, rep = solve_problem(GEOM8, MA2, "manufactured", "zero",
                                     "star-bump")
        [(u0, fun, chi, psi, config)] = calls
        start = prob.u_sub.values.copy()
        start[GEOM8.faces] = prob.phi.values[GEOM8.faces]
        assert bits(u0.values) == bits(start)
        assert bits(psi) == bits(prob.psi.values[GEOM8.interior])
        assert fun is MA2 and config == sv.SolverConfig()

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

    @pytest.mark.parametrize("case", ["budget", "linear-solve"])
    def test_failed_stage_raises_after_one_attempt(self, case, monkeypatch):
        # no step-size control: the one stage's failure is the solve's,
        # with its reason in the message
        if case == "budget":
            config = sv.SolverConfig(max_newton=0)
            reason = "newton iteration budget exhausted"
        else:
            from hessiancone.linsolve import LinearSolveError

            def fail(*args, **kwargs):
                raise LinearSolveError("forced")

            monkeypatch.setattr(sv, "solve_dirichlet", fail)
            config, reason = sv.SolverConfig(), "forced"
        calls = count_stages(monkeypatch)
        prob = pr.build_problem(GEOM8, MA2, "manufactured", "zero",
                                "star-bump")
        with pytest.raises(sv.ContinuationError, match=reason) as err:
            sv.continuity_solve(MA2, prob.chi, prob.psi, prob.phi,
                                prob.u_sub, config)
        assert len(calls) == 1
        # the residual at the start, where the stage stopped
        assert err.value.residual > config.tolerance

    def test_linear_solver_failure_surfaces_as_stage_failure(self,
                                                             monkeypatch):
        from hessiancone import linsolve
        from hessiancone.linsolve import LinearSolveError, solve_dirichlet

        C = np.zeros(GEOM8.interior_shape + (4, 4))
        for a in range(4):
            C[..., a, a] = 0.25
        C = distinct_planes(C)
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(GEOM8.interior_shape)
        monkeypatch.setattr(linsolve, "MAX_CYCLES", 0)
        with pytest.raises(LinearSolveError, match="after 0 cycles"):
            solve_dirichlet(C, GEOM8, rhs)

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


class TestPolynomialStep:
    """Newton's right-hand side is the step for f^q = psi^q, taken with
    the f-space linearization, residual and tolerance."""

    @settings(max_examples=300, deadline=None)
    @given(f=st.floats(1e-3, 1e3), ratio=st.floats(0.05, 20.0),
           n=st.integers(2, 6), data=st.data())
    def test_newton_step_of_the_polynomial_form(self, f, ratio, n, data):
        q = data.draw(st.integers(1, n), label="q")
        psi = f * ratio
        r = f - psi
        rhs = sv._polynomial_step(np.array([r]), np.array([psi]), q)[0]
        # exact rationals of the floats passed in, with f = r + psi
        F, P = Fraction(r) + Fraction(psi), Fraction(psi)
        exact = -(F**q - P**q) / (q * F**(q - 1))
        assert abs(Fraction(float(rhs)) - exact) <= 1e-14 * abs(exact)
        # its linear model of f^q is psi^q > 0: it never aims outside the
        # cone, where -r does wherever f > q psi / (q - 1)
        model = F**q + q * F**(q - 1) * Fraction(float(rhs))
        assert abs(model - P**q) <= 1e-14 * abs(F**q - P**q)
        assert model > 0

    @settings(max_examples=200, deadline=None)
    @given(f=st.floats(1e-6, 1e3), psi=st.floats(1e-6, 1e3))
    def test_q1_is_minus_r(self, f, psi):
        r = f - psi
        rhs = sv._polynomial_step(np.array([r]), np.array([psi]), 1)[0]
        assert bits(rhs) == bits(-r)

    @pytest.mark.parametrize("kind, residuals", [
        ("sigma1", [1.999, 4.188316360398403e-14]),
        ("quotient:1:2", [0.499, 0.18519278589950383, 0.05515285401005339,
                          0.02162996879523002, 0.008496577614979961,
                          0.00039609329316388914, 1.3560460772965924e-06,
                          3.0587541072039925e-10]),
    ])
    def test_q1_residual_history_unchanged(self, kind, residuals):
        # q = 1 on the 8^4 degenerate-cos + 1e-3 runs: the residuals of the
        # step with right-hand side -r, to the bit, as the FFT and Thomas
        # sweep preconditioner rounds them.  The quotient's first four
        # steps leave the cone at full length and are damped to
        # EXIT_FRACTION theta* (7 steps; halving from twice the last
        # factor took 9); sigma1's one full step is as it was.  The
        # shared-difference stencils moved the quotient's later residuals
        # by at most 1.3e-15, and sigma1's last by 8.9e-15 with u unchanged
        # to the bit: the residual's own Hessian rounds differently.  One
        # preconditioner application per GMRES cycle on M(V y), in place of
        # a basis of M v_j, moved the quotient's residuals by at most
        # 2.2e-15 and sigma1's last by 7.1e-15
        fun = cn.parse_kind(kind, 2)
        assert fun.power == 1
        prob = pr.build_problem(GEOM8, fun, "degenerate-cos", "zero", "zero")
        psi = ScalarField(geom=GEOM8, values=prob.psi.values + 1e-3)
        u, rep = sv.continuity_solve(fun, prob.chi, psi, prob.phi, prob.u_sub)
        assert rep.stage.residuals == residuals

    def test_cylinder_sigma2_degenerate_takes_one_stage(self):
        # 16^3 cylinder, sigmaK:2, degenerate-cos + 1e-3: the cold stage
        # takes 4 full Newton steps.  With -r the t = 1 stage failed and
        # the path took 2 stages and 23 steps.  The solve itself starts
        # nested and takes 3 steps, the first damped by the cone exit
        geom, fun = CylinderGeometry(d=3, resolution=16), cn.sigma_k_root(3, 2)
        prob = pr.build_problem(geom, fun, "degenerate-cos", "zero", "zero")
        psi = ScalarField(geom=geom, values=prob.psi.values + 1e-3)
        _, stage = sv._newton_solve(sv._stage_start(prob.u_sub, prob.phi),
                                    fun, prob.chi, psi.values[geom.interior],
                                    sv.SolverConfig())
        assert len(stage.dampings) == 4
        assert stage.dampings == [1.0] * 4
        assert stage.residuals[-1] <= sv.SolverConfig().tolerance
        u, rep = sv.solve_riemannian(fun, prob.chi, psi, prob.phi, prob.u_sub)
        assert rep.start == "nested" and rep.fallback == ""
        assert rep.newton_iterations == 3
        assert rep.final_residual <= sv.SolverConfig().tolerance


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


def bits(x):
    return np.float64(x).tobytes()


@st.composite
def form_stacks(draw):
    """(planes, is_complex): the planes of a stack of r x r forms (r = 2..6,
    real or complex) of one pattern, read from the diagonal and the upper
    triangle; contiguous, or a strided view of a buffer twice as long."""
    r = draw(st.integers(2, 6))
    complex_ = draw(st.booleans())
    nodes = draw(st.integers(1, 60))
    pattern = draw(st.sampled_from(["random", "near-identity", "repeated",
                                    "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def hermitian(size):
        z = rng.standard_normal((size, r, r))
        if complex_:
            z = z + 1j * rng.standard_normal((size, r, r))
        return 0.5 * (z + np.swapaxes(z, -1, -2).conj())

    if pattern == "random":
        forms = hermitian(nodes) * 10.0 ** rng.uniform(-3, 3, (nodes, 1, 1))
    elif pattern == "near-identity":  # where ||A||_F^2 / r - m^2 cancels
        c = rng.uniform(-10.0, 10.0, (nodes, 1, 1))
        forms = c * np.eye(r) + 1e-12 * hermitian(nodes)
    elif pattern == "repeated":  # r - 1 equal eigenvalues: the bound is tight
        lam = rng.uniform(-1.0, 1.0, (nodes, r))
        lam[:, 1:] = lam[:, 1:2]
        basis, _ = np.linalg.qr(hermitian(nodes))
        forms = (basis * lam[:, None, :]) @ np.swapaxes(basis, -1, -2).conj()
    else:
        forms = np.zeros((nodes, r, r), dtype=complex if complex_ else float)
    planes = planes_of(forms, complex_)
    if draw(st.booleans()):
        planes = np.repeat(planes, 2, axis=1)[:, ::2]
    return planes, complex_


class TestExtremeEigenvalues:
    """The masked solve against the dense solve of every node."""

    @given(form_stacks())
    @settings(max_examples=300, deadline=None)
    def test_equals_dense_extremes_bit_for_bit(self, stack):
        # against a dense solve of the whole stack
        planes, is_complex = stack
        lowest, highest = sv._extreme_eigenvalues(planes, is_complex)
        lam = eigen_field(dense_form(planes, is_complex))
        assert bits(lowest) == bits(lam.min())
        assert bits(highest) == bits(lam.max())

    def test_slack_scales_with_the_norm(self):
        # lambda_max of y is near 0 against ||y|| near 2, and its computed
        # bound m + s rounds 131072 ulps of lambda_max below it (0.44 eps
        # ||y||); the inner bound of a cI node just under lambda_max must
        # not leave y out (-10 I holds lambda_min)
        off = 0.7101471705128961 - 0.7783394310645367j
        y = np.array([[-1.5355057048658323, off],
                      [np.conj(off), -0.7229477342453987]])
        top = eigen_field(y)[-1]
        x = np.nextafter(top, -np.inf) * np.eye(2)
        forms = planes_of(np.stack([x, y, -10.0 * np.eye(2)]), True)
        assert bits(sv._extreme_eigenvalues(forms, True)[1]) == bits(top)

    def test_zero_forms_solve_one_node(self, monkeypatch):
        # every bound ties; the node of the inner bounds is solved alone
        calls = []

        def counted(g):
            calls.append(len(g))
            return eigen_field(g)

        monkeypatch.setattr(sv, "eigen_field", counted)
        forms = np.zeros((4, 5000))
        assert sv._extreme_eigenvalues(forms, True) == (0.0, 0.0)
        assert calls == [1]

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("factor", [1.0 + 4 * np.finfo(float).eps,
                                        1.0 - 4 * np.finfo(float).eps])
    def test_equal_forms_and_one_perturbed(self, is_complex, factor):
        # the perturbed node holds both extremes, or falls short of the
        # tied ones at every other node
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, 3))
        if is_complex:
            z = z + 1j * rng.standard_normal((3, 3))
        forms = np.repeat((0.5 * (z + z.conj().T))[None], 2000, axis=0)
        forms[1234] *= factor
        planes = planes_of(forms, is_complex)
        lowest, highest = sv._extreme_eigenvalues(planes, is_complex)
        lam = eigen_field(forms)
        assert bits(lowest) == bits(lam.min())
        assert bits(highest) == bits(lam.max())

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_one_by_one_forms(self, is_complex):
        # r = 1: s = 0, and the inner bound must not divide by zero
        planes = np.random.default_rng(3).uniform(-5.0, 5.0, (1, 50))
        with np.errstate(all="raise"):
            lowest, highest = sv._extreme_eigenvalues(planes, is_complex)
        lam = eigen_field(dense_form(planes, is_complex))
        assert bits(lowest) == bits(lam.min())
        assert bits(highest) == bits(lam.max())

    def test_one_node(self):
        form = np.array([[[2.0, 1.0 - 1.0j], [1.0 + 1.0j, -1.0]]])
        lam = eigen_field(form)[0]
        assert sv._extreme_eigenvalues(planes_of(form, True), True) == (lam[0], lam[1])

    def test_empty_stack_is_zero(self):
        empty = np.zeros((6, 0, 7))
        assert sv._extreme_eigenvalues(empty, False) == (0.0, 0.0)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_nan_entry_gives_nan(self, entry):
        forms = np.tile(np.eye(2), (5, 1, 1))
        forms[3][entry] = np.nan
        lowest, highest = sv._extreme_eigenvalues(planes_of(forms, False), False)
        assert np.isnan(lowest) and np.isnan(highest)

    def test_nan_departs_from_dense_solve(self):
        # numpy's eigvalsh loses a NaN on the diagonal of a 2 x 2 form
        form = np.array([[[np.nan, 0.0], [0.0, 1.0]]])
        assert not np.isnan(eigen_field(form)).any()
        assert np.isnan(sv._extreme_eigenvalues(planes_of(form, False), False)[1])


def dense_estimate_report(u):
    """estimate_report as a dense eigenvalue solve of every node."""
    geom = u.geom
    report = sv.SolveReport(resolution=geom.resolution)
    report.sup_u = u.sup()
    gi = gradient_interior(u)
    report.sup_grad_interior = float(np.sqrt((gi**2).sum(axis=-1)).max())
    gb = gradient_boundary(u)
    report.sup_grad_boundary = float(
        max(np.sqrt((g**2).sum(axis=-1)).max() for g in gb))
    sup_grad = max(report.sup_grad_interior, report.sup_grad_boundary)
    h_int = eigenvalues(u)
    faces = [dense_form(f, geom.is_complex)
             for f in (boundary_complex_hessian if geom.is_complex
                       else boundary_real_hessian)(u)]
    k = geom.form_dim - 1
    tn = max(float(np.abs(f[..., :k, k]).max()) for f in faces)
    report.sup_ddbar_interior = float(np.abs(h_int).max()) if h_int.size else 0.0
    report.sup_ddbar_boundary = max(
        float(np.abs(np.linalg.eigvalsh(f)).max()) for f in faces)
    report.boundary_ratio = report.sup_ddbar_boundary / (1.0 + sup_grad**2)
    report.tangential_normal_ratio = tn / (1.0 + sup_grad)
    sup_dd_all = max(report.sup_ddbar_interior, report.sup_ddbar_boundary)
    report.global_second_ratio = sup_dd_all / (
        1.0 + sup_grad**2 + report.sup_ddbar_boundary)
    return report


def dense_tangential_min(u, u_sub):
    tang = list(u.geom.periodic_axes)
    diff = ScalarField(geom=u.geom, values=u.values - u_sub.values)
    return min(float(np.linalg.eigvalsh(dense_form(f, False)[..., tang, :][..., tang]).min())
               for f in boundary_real_hessian(diff))


class TestEstimateReport:
    @pytest.mark.parametrize("case", ["manufactured", "degenerate",
                                      "cylinder"])
    @pytest.mark.parametrize("block", [16, 512])
    def test_equals_dense_reference(self, case, block, monkeypatch):
        if case == "cylinder":
            geom, fun = CylinderGeometry(d=3, resolution=8), cn.monge_ampere(3)
            prob = pr.build_problem(geom, fun, "manufactured", "zero",
                                    "star-bump")

            def solve():
                return sv.solve_riemannian(fun, prob.chi, prob.psi, prob.phi,
                                           prob.u_sub)
        else:
            psi, sub, eps = (("manufactured", "star-bump", 0.0)
                             if case == "manufactured"
                             else ("degenerate-cos", "zero", 1e-3))
            prob = pr.build_problem(GEOM8, MA2, psi, "zero", sub)
            shifted = ScalarField(geom=GEOM8, values=prob.psi.values + eps)

            def solve():
                return sv.continuity_solve(MA2, prob.chi, shifted, prob.phi,
                                           prob.u_sub)
        # the degenerate solve takes the cone exit, over single first-axis
        # layers at both block sizes rather than the default's blocks of
        # many; each node's root does not depend on its block
        whole, _ = solve()
        monkeypatch.setattr(sv, "EXIT_BLOCK", block)
        u, rep = solve()
        assert bits(u.values) == bits(whole.values)
        if case == "cylinder":
            assert bits(rep.boundary_tangential_min) == bits(
                dense_tangential_min(u, prob.u_sub))
        ref = dense_estimate_report(u)
        # repr of a float keeps every bit
        assert sv.estimate_report(u).csv_row() == ref.csv_row()
        for name in ("sup_ddbar_interior", "sup_ddbar_boundary",
                     "boundary_ratio", "global_second_ratio"):
            assert bits(getattr(rep, name)) == bits(getattr(ref, name)), name

    @pytest.mark.parametrize("geom", [GEOM8, CylinderGeometry(d=3, resolution=8)],
                             ids=["complex", "cylinder"])
    def test_pads_the_field_twice(self, geom, monkeypatch):
        # one padded copy serves the gradients and both faces' stencils;
        # form_field pads its own
        calls = [0]
        inner = op._padded

        def counted(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(op, "_padded", counted)
        monkeypatch.setattr(sv, "_padded", counted)
        rng = np.random.default_rng(3)
        u = ScalarField(geom=geom, values=rng.standard_normal(geom.shape))
        sv.estimate_report(u)
        assert calls[0] == 2

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
                             final_residual=2.5e-10,
                             comparison_violations=0, newton_iterations=3)
        assert sv.SolveReport.CSV_FIELDS == (
            "label,resolution,converged,final_residual,sup_u,"
            "sup_grad_interior,sup_grad_boundary,sup_ddbar_interior,"
            "sup_ddbar_boundary,boundary_ratio,tangential_normal_ratio,"
            "global_second_ratio,comparison_violations,newton_iterations"
        )
        assert rep.csv_row() == (
            "ma,8,1,2.5e-10,nan,nan,nan,nan,nan,nan,nan,nan,0,3"
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
        C = distinct_planes(C)
        rhs = prob.psi.values[geom.interior] - 2.0
        w, _ = solve_dirichlet(C, geom, rhs, boundary_values=prob.phi.values)
        np.testing.assert_allclose(u.values, w, atol=1e-8)

    def test_path_constant_matches_subsolution(self):
        fun = cn.monge_ampere(3)
        geom = CylinderGeometry(d=3, resolution=8)
        prob = pr.build_problem(geom, fun, "manufactured", "zero", "star-bump")
        lam = eigenvalues(prob.u_sub, prob.chi)
        psi0 = ScalarField.zeros(geom)
        psi0.values[geom.interior] = cn.f_many(fun, lam)
        u, rep = sv.solve_riemannian(fun, prob.chi, psi0, prob.phi, prob.u_sub)
        np.testing.assert_allclose(u.values, prob.u_sub.values, atol=1e-12)

    def test_complex_geometry_refused(self):
        problem = problem_of(GEOM8, "ma")
        with pytest.raises(ValueError, match="cylinder geometry"):
            sv.solve_riemannian(*problem)

    def test_tangential_check_runs_before_the_stage(self, monkeypatch):
        # the faces of u_sub alternate by the boundary match tolerance:
        # the tangential minimum -6.4e-5 is below the -6.25e-5 allowed,
        # and the solve is refused before any Newton work
        calls = count_stages(monkeypatch)
        with pytest.raises(sv.SubsolutionError,
                           match="tangential boundary monotonicity"):
            sv.solve_riemannian(*tangential_violation())
        assert calls == []

    def test_sweep_runs_the_tangential_check(self, monkeypatch):
        calls = count_stages(monkeypatch)
        with pytest.raises(sv.SubsolutionError,
                           match="tangential boundary monotonicity"):
            sv.degenerate_sweep(*tangential_violation(), [0.1])
        assert calls == []


def tangential_violation():
    """Monge-Ampere on the d = 2, m = 400 cylinder, degenerate-cos + 1e-3
    from zero data, with u_sub = +-BOUNDARY_MATCH_ATOL alternating along
    the periodic axis on both faces: the second difference -4e-10 / h^2 =
    -6.4e-5 is below -10 h^2 = -6.25e-5."""
    geom = CylinderGeometry(d=2, resolution=400)
    fun, chi, psi, phi, u_sub = problem_of(geom, "ma")
    sign = np.where(np.arange(geom.resolution) % 2, -1.0, 1.0)
    u_sub.values[geom.faces] = sv.BOUNDARY_MATCH_ATOL * sign[:, None]
    return fun, chi, psi, phi, u_sub


def _reflect(v, axis):
    """v at -x along a periodic axis: node i takes node -i mod m."""
    return np.roll(np.flip(v, axis), 1, axis)


# Symmetries of the complex model (n = 2, axes x_1, y_1, x_n, y_n) that map
# the grid to itself.  x_1 -> -x_1, y_1 -> -y_1 and x_n -> 1 - x_n are
# anti-holomorphic in one coordinate; each is taken with y_n -> -y_n, which
# makes the first two conjugate every coordinate and the last
# z_n -> 1 - z_n.  Alone they are no symmetry of data that vary along y_n:
# there the solves differ by 3e-4.  z_1 -> i z_1 is v(x_1, y_1) =
# u(-y_1, x_1).  On the cylinder every grid isometry is one.
COMPLEX_SYMMETRIES = (
    lambda v: _reflect(_reflect(v, 0), 3),
    lambda v: _reflect(_reflect(v, 1), 3),
    lambda v: _reflect(np.swapaxes(v, 0, 1), 1),
    lambda v: _reflect(np.flip(v, 2), 3),
)
CYLINDER_SYMMETRIES = (
    lambda v: _reflect(v, 0),
    lambda v: _reflect(v, 1),
    lambda v: np.swapaxes(v, 0, 1),
    lambda v: np.flip(v, 2),
)
SYMMETRY_CASES = [(GEOM8, "ma"), (GEOM8, "quotient:1:2"),
                  (CylinderGeometry(d=3, resolution=8), "ma"),
                  (CylinderGeometry(d=3, resolution=8), "quotient:1:2")]


def generic_psi(geom, fun):
    """A right-hand side that varies along every axis and has no symmetry,
    between 0.2 and 0.9 times f(I), so that u = 0 is a subsolution."""
    x = geom.grids()
    if geom.is_complex:
        x1, y1, xn, yn = x
    else:
        x1, y1, xn = x
        yn = y1
    w = (0.6 * np.sin(2 * np.pi * (x1 + 2 * y1) + 0.3)
         * np.cos(2 * np.pi * (y1 - yn) + 1.1)
         + 0.4 * np.sin(2 * np.pi * (x1 - yn) + 2.0) * xn)
    top = float(cn.f_many(fun, np.ones((1, geom.form_dim)))[0])
    return top * (0.55 + 0.35 * np.broadcast_to(w, geom.shape))


def symmetric_solve(geom, fun, psi):
    """The solve from u_sub = phi = 0 with chi = I, which every map keeps."""
    zero = ScalarField.zeros(geom)
    run = sv.continuity_solve if geom.is_complex else sv.solve_riemannian
    u, report = run(fun, pr.chi_identity(geom),
                    ScalarField(geom=geom, values=psi), zero, zero)
    return u.values, report.stage.residuals


@functools.lru_cache(maxsize=None)
def untransformed_solve(geom, kind):
    fun = cn.parse_kind(kind, geom.form_dim)
    psi = generic_psi(geom, fun)
    return (fun, psi) + symmetric_solve(geom, fun, psi)


class TestSymmetry:
    """Solving with transformed data gives the transformed solution: the
    discrete problem keeps the model's symmetries, so a solve must too."""

    @pytest.mark.parametrize("geom, kind", SYMMETRY_CASES,
                             ids=lambda case: str(case))
    @given(maps=st.lists(st.integers(0, 3), max_size=3),
           shifts=st.lists(st.integers(0, 7), min_size=3, max_size=3))
    @example(maps=[], shifts=[3, 5, 1])
    @example(maps=[0], shifts=[0, 0, 0])
    @example(maps=[1], shifts=[0, 0, 0])
    @example(maps=[2], shifts=[0, 0, 0])
    @example(maps=[3], shifts=[0, 0, 0])
    @settings(max_examples=12, deadline=None)
    def test_solve_commutes_with_symmetries(self, geom, kind, maps, shifts):
        # the maps in order, then a translation along the periodic axes.
        # Both solves take the same Newton path: the same number of steps,
        # and at every step residuals that agree within the tolerance, the
        # level either solve may stop at; the solutions agree within it
        # too.  Measured differences: at most 5.1e-15 in a residual and
        # 1.7e-16 in u.  A sign flipped on the (y_1, x_n) plane of C, or
        # (y_1, y_n) sharing the Im F plane, leaves u within 1e-9 but moves
        # a residual by 2e-4 or the step count
        fun, psi, u, residuals = untransformed_solve(geom, kind)
        table = COMPLEX_SYMMETRIES if geom.is_complex else CYLINDER_SYMMETRIES

        def transform(v):
            for k in maps:
                v = table[k](v)
            for axis, shift in zip(geom.periodic_axes, shifts):
                v = np.roll(v, shift, axis)
            return v

        moved_u, moved_residuals = symmetric_solve(
            geom, fun, np.ascontiguousarray(transform(psi)))
        tolerance = sv.SolverConfig().tolerance
        assert len(moved_residuals) == len(residuals)
        np.testing.assert_allclose(moved_residuals, residuals, rtol=0.0,
                                   atol=tolerance)
        assert np.abs(moved_u - transform(u)).max() <= tolerance


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

    def test_forms_each_solved_hessian_once(self, monkeypatch):
        # sup_lap comes from the interior forms that estimate_report takes
        # for sup_ddbar_interior; cone exits form the Hessians of earlier
        # iterates, never the solved u's
        calls, solved = [], []
        form_field, solve = sv.form_field, sv.continuity_solve

        def counting(u, chi=None):
            calls.append(u)
            return form_field(u, chi)

        def keep(*args):
            u, report = solve(*args)
            solved.append(u)
            return u, report

        monkeypatch.setattr(sv, "form_field", counting)
        monkeypatch.setattr(sv, "continuity_solve", keep)
        prob = pr.build_problem(GEOM8, MA2, "degenerate-cos", "zero", "zero")
        rows = sv.degenerate_sweep(MA2, prob.chi, prob.psi, prob.phi,
                                   prob.u_sub, [1e-1, 1e-2])
        assert all(r["converged"] for r in rows)
        assert [sum(c is u for c in calls) for u in solved] == [1, 1]

    def test_strict_margin_keeps_subsolution_valid(self):
        prob = pr.build_problem(GEOM8, MA2, "degenerate-cos", "zero", "zero")
        lam = eigenvalues(prob.u_sub, prob.chi)
        psi0 = cn.f_many(MA2, lam)
        for eps in (1e-1, 1e-2, 1e-3):
            shifted = prob.psi.values[GEOM8.interior] + eps
            assert np.all(psi0 >= shifted)


GEOM16 = GridGeometry(n=2, resolution=16)
CYL16 = CylinderGeometry(d=3, resolution=16)


def problem_of(geom, kind, psi="degenerate-cos", eps=1e-3):
    """fun, chi, psi, phi and u_sub: degenerate-cos + eps from the zero
    subsolution, or manufactured from star-bump."""
    fun = cn.parse_kind(kind, geom.form_dim)
    degenerate = psi == "degenerate-cos"
    prob = pr.build_problem(geom, fun, psi, "zero",
                            "zero" if degenerate else "star-bump")
    shift = eps if degenerate else 0.0
    return (fun, prob.chi, ScalarField(geom=geom, values=prob.psi.values + shift),
            prob.phi, prob.u_sub)


def cold_stage(fun, chi, psi, phi, u_sub):
    """The cold Newton stage alone, from _stage_start: (u, StageRecord)."""
    return sv._newton_solve(sv._stage_start(u_sub, phi), fun, chi,
                            psi.values[u_sub.geom.interior], sv.SolverConfig())


@functools.lru_cache(maxsize=None)
def cylinder_nested_solve():
    """The 16^3 cylinder Monge-Ampere degenerate solve: its problem, its
    report and the prolonged start _bump was given (before the bump)."""
    problem = problem_of(CYL16, "ma")
    seen = []
    inner = sv._bump

    def spy(u, fun, chi):
        seen.append(u.copy())
        return inner(u, fun, chi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "_bump", spy)
        _, report = sv.solve_riemannian(*problem)
    return problem, report, seen[0]


class TestNestedStart:
    """A degenerate solve on a grid that halves to at least
    NESTED_MIN_RESOLUTION starts from the prolonged half-resolution
    solution; every other solve, and every nested start that fails,
    takes the cold stage bit for bit."""

    @pytest.mark.parametrize("geom", [
        GEOM16, CYL16, GridGeometry(n=3, resolution=8),
        CylinderGeometry(d=2, resolution=16), GridGeometry(n=2, resolution=18),
        CylinderGeometry(d=3, resolution=18), CylinderGeometry(d=2, resolution=18)],
        ids=["complex-16", "cyl-16", "complex-n3-8", "cyl-d2-16", "complex-18",
             "cyl-18", "cyl-d2-18"])
    def test_prolongation_exact_below_the_coarse_nyquist(self, geom):
        # a product of trigonometric polynomials below the coarse Nyquist
        # frequency along every periodic axis, plus the cosines at
        # frequency resolution // 4 of the first axis and of the last (the
        # coarse Nyquist cosines on an even half grid, the highest ones
        # below it on an odd one), times a cubic in x_n: prolonged
        # exactly, to rounding
        x = geom.grids()
        periodic = [x[a] for a in geom.periodic_axes]
        nyquist = geom.resolution // 4
        wave = 1.0
        for k, t in enumerate(periodic, start=1):
            wave = wave * (1.0 + 0.5 * np.cos(2 * np.pi * (k % (nyquist - 1) + 1) * t + 0.3)
                           + 0.3 * np.sin(2 * np.pi * t))
        for t, amplitude in ((periodic[0], 0.5), (periodic[-1], 0.25)):
            wave = wave + amplitude * np.cos(2 * np.pi * nyquist * t)
        xn = x[geom.dirichlet_axis]
        cubic = 0.7 - 1.3 * xn + 2.1 * xn**2 - 3.4 * xn**3
        fine = np.broadcast_to(wave * cubic, geom.shape)
        coarse = np.ascontiguousarray(fine[(slice(None, None, 2),) * geom.real_dims])
        out = sv._prolonged(coarse, geom)
        assert out.shape == geom.shape
        np.testing.assert_allclose(out, fine, rtol=0.0,
                                   atol=1e-12 * np.abs(fine).max())

    def test_prolongation_interpolates_the_coarse_nodes(self):
        coarse = np.random.default_rng(3).standard_normal(
            CylinderGeometry(d=3, resolution=8).shape)
        out = sv._prolonged(coarse, CYL16)
        np.testing.assert_allclose(out[::2, ::2, ::2], coarse, rtol=0.0,
                                   atol=1e-13)

    def test_repair_lifts_the_cylinder_start(self):
        # 16^3 cylinder, Monge-Ampere: the prolonged start leaves the cone
        # and the bump c = 1.5e-5 brings it back
        _, rep, _ = cylinder_nested_solve()
        assert rep.start == "nested" and rep.fallback == ""
        assert rep.bump == pytest.approx(1.5e-5, rel=0.05)
        assert rep.coarse.residuals[-1] <= sv.SolverConfig().tolerance
        assert rep.final_residual <= sv.SolverConfig().tolerance
        assert rep.newton_iterations < len(rep.coarse.dampings)

    def test_bump_is_the_smallest_admitting_one(self):
        # c, EXIT_FRACTION^-1 times the largest root, admits the start; a
        # little less than the root does not
        (fun, chi, *_), rep, start = cylinder_nested_solve()
        xn = CYL16.grids()[CYL16.dirichlet_axis]
        for c, admitted in [(rep.bump, True),
                            (0.99 * sv.EXIT_FRACTION * rep.bump, False)]:
            trial = ScalarField(geom=CYL16,
                                values=start.values + c * xn * (xn - 1))
            sigma, _ = op.newton_tensors(form_field(trial, chi),
                                         fun.cone_order, False)
            assert cn.sigmas_in_cone(sigma).all() == admitted

    def test_bump_too_small_is_refused(self, monkeypatch):
        # at EXIT_FRACTION 2, c is half the root and leaves the start
        # outside the cone: _bump refuses it and leaves the field as it was
        (fun, chi, *_), _, start = cylinder_nested_solve()
        monkeypatch.setattr(sv, "EXIT_FRACTION", 2.0)
        trial = start.copy()
        with pytest.raises(sv._Fallback, match="repaired start inadmissible"):
            sv._bump(trial, fun, chi)
        assert np.array_equal(trial.values, start.values)

    def test_bump_leaves_the_faces(self):
        # at m = 98 the last coordinate 98 h rounds to 1 - 2**-53, where
        # x_n (x_n - 1) is -1.1e-16: the bump is added at the interior
        # nodes alone, each as u + c x_n (x_n - 1)
        geom = CylinderGeometry(d=2, resolution=98)
        xn = geom.grids()[geom.dirichlet_axis]
        assert xn[0, -1] != 1.0
        u = ScalarField(geom=geom, values=np.broadcast_to(
            -xn * (xn - 1.0), geom.shape).copy())
        u.values[geom.faces] = 0.0
        start = u.copy()
        c, state = sv._bump(u, cn.monge_ampere(2), np.eye(2))
        assert c > 0.0 and state is None
        assert bits(u.values[geom.faces]) == bits(start.values[geom.faces])
        inner = geom.interior
        assert bits(u.values[inner]) == bits(
            start.values[inner] + c * np.broadcast_to(xn * (xn - 1.0),
                                                      geom.shape)[inner])

    def test_faces_hold_the_boundary_data(self):
        # boundary-scaling's problem at scale 8 (phi a scaled cosine, u_sub
        # with the convex correction, psi = 1) is degenerate by the rule
        # and nests; the prolonged faces are reset to phi, bit for bit
        prob = pr.build_problem(GEOM16, MA2, "one", "scaled-cos", "scaled-cos",
                                scale=8.0)
        u, rep = sv.continuity_solve(MA2, prob.chi, prob.psi, prob.phi,
                                     prob.u_sub)
        assert rep.start == "nested"
        faces = GEOM16.faces
        assert np.array_equal(u.values[faces], prob.phi.values[faces])

    def test_quotient_falls_back_to_the_cold_stage(self):
        # quotient:1:2 at 16^4: no positive slope where the prolonged start
        # leaves the cone; the coarse stage ran, and u is the cold stage's
        problem = problem_of(GEOM16, "quotient:1:2")
        u, rep = sv.continuity_solve(*problem)
        assert rep.start == "cold"
        assert rep.fallback == "no positive slope at an inadmissible node"
        assert rep.coarse is not None and rep.bump == 0.0
        assert np.array_equal(u.values, cold_stage(*problem)[0].values)

    @pytest.mark.parametrize("fault, reason", [
        ("coarse", "coarse stage: "),
        ("bump", "fine stage: stage start inadmissible"),
    ])
    def test_every_fallback_is_reported(self, fault, reason, monkeypatch):
        # a failed coarse stage and a fine stage from an inadmissible start
        # (no bump added) each fall back to the cold stage
        problem = problem_of(CYL16, "ma")
        if fault == "coarse":
            inner = sv._newton_solve

            def stage(u, *args):
                if u.geom.resolution == 8:
                    raise sv.ContinuationError("no admissible damping factor")
                return inner(u, *args)

            monkeypatch.setattr(sv, "_newton_solve", stage)
        else:
            monkeypatch.setattr(sv, "_bump", lambda u, fun, chi: (0.0, None))
        u, rep = sv.solve_riemannian(*problem)
        assert rep.start == "cold" and rep.fallback.startswith(reason)
        assert np.array_equal(u.values, cold_stage(*problem)[0].values)

    @pytest.mark.parametrize("geom, kind, psi", [
        (GEOM16, "ma", "manufactured"),
        (CylinderGeometry(d=3, resolution=32), "ma", "manufactured"),
        (GEOM8, "ma", "degenerate-cos"),
        (CylinderGeometry(d=3, resolution=8), "ma", "degenerate-cos"),
        (CylinderGeometry(d=3, resolution=8), "quotient:1:2", "degenerate-cos"),
        (CylinderGeometry(d=3, resolution=15), "ma", "degenerate-cos"),
    ], ids=["ma16-manufactured", "cyl32-manufactured", "complex-8-degenerate",
            "cyl-8-degenerate", "cyl-8-quotient", "cyl-15-degenerate"])
    def test_cold_path_bit_for_bit(self, geom, kind, psi, monkeypatch):
        # the benchmark's manufactured problems are not degenerate, and a
        # resolution-8 or odd grid has no half grid to nest on: one stage,
        # the cold one, bit for bit
        problem = problem_of(geom, kind, psi)
        calls = count_stages(monkeypatch)
        run = sv.continuity_solve if geom.is_complex else sv.solve_riemannian
        u, rep = run(*problem)
        assert len(calls) == 1
        assert (rep.start, rep.fallback, rep.bump, rep.coarse) == (
            "cold", "", 0.0, None)
        assert np.array_equal(u.values, cold_stage(*problem)[0].values)

    @pytest.mark.parametrize("geom, eps, most", [
        (GEOM16, 1e-1, 3), (GEOM16, 1e-3, 3), (GEOM16, 1e-4, 4),
        (CylinderGeometry(d=3, resolution=18), 1e-3, 3),
    ], ids=["0.1", "0.001", "0.0001", "cyl-18-0.001"])
    def test_nested_and_cold_solutions_agree(self, geom, eps, most):
        # Monge-Ampere: the nested stage takes fewer steps than the cold
        # stage, at most ``most`` (the cylinder's half grid is odd; the cold
        # stage takes 7 there), and the solutions agree within the
        # tolerance (measured: at most 1.1e-10)
        problem = problem_of(geom, "ma", eps=eps)
        u, rep = sv.continuity_solve(*problem)
        cold, stage = cold_stage(*problem)
        assert rep.start == "nested" and rep.fallback == ""
        assert len(rep.coarse.residuals) > 1
        assert rep.newton_iterations < len(stage.dampings)
        assert rep.newton_iterations <= most
        tolerance = sv.SolverConfig().tolerance
        assert np.abs(u.values - cold.values).max() <= tolerance

    @pytest.mark.parametrize("maps, shifts", [
        ([0], [0, 0, 0]), ([1], [0, 0, 0]), ([2], [0, 0, 0]),
        ([3], [0, 0, 0]), ([], [2, 4, 6]), ([3, 2], [6, 0, 2]),
        ([], [3, 5, 1]), ([1], [1, 0, 0])])
    def test_nested_solve_commutes_with_symmetries(self, maps, shifts):
        # generic_psi at 16^4 is degenerate (down to 0.2 f(I)), so the
        # solve nests.  The maps and even shifts map the half grid to
        # itself: the same steps at residuals within the tolerance, coarse
        # and fine.  An odd shift injects another coarse problem, so only
        # the solutions agree, within the tolerance
        fun, psi, u, report = nested_symmetric_solve()

        def transform(v):
            for k in maps:
                v = COMPLEX_SYMMETRIES[k](v)
            for axis, shift in zip(GEOM16.periodic_axes, shifts):
                v = np.roll(v, shift, axis)
            return v

        moved_u, moved = symmetric_report(fun, np.ascontiguousarray(transform(psi)))
        tolerance = sv.SolverConfig().tolerance
        assert moved.start == report.start == "nested"
        assert np.abs(moved_u - transform(u)).max() <= tolerance
        if all(s % 2 == 0 for s in shifts):
            for mine, theirs in [(moved.coarse, report.coarse),
                                 (moved.stage, report.stage)]:
                assert len(mine.residuals) == len(theirs.residuals)
                np.testing.assert_allclose(mine.residuals, theirs.residuals,
                                           rtol=0.0, atol=tolerance)


def symmetric_report(fun, psi):
    """symmetric_solve's 16^4 solve, with its whole report."""
    zero = ScalarField.zeros(GEOM16)
    u, report = sv.continuity_solve(fun, pr.chi_identity(GEOM16),
                                    ScalarField(geom=GEOM16, values=psi),
                                    zero, zero)
    return u.values, report


@functools.lru_cache(maxsize=None)
def nested_symmetric_solve():
    fun = cn.parse_kind("ma", GEOM16.form_dim)
    psi = generic_psi(GEOM16, fun)
    return (fun, psi) + symmetric_report(fun, psi)
