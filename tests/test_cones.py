"""Symmetric function families: cone membership, gradients, concavity,
level-set geometry, and the two-branch subsolution gap test.

Hand-computed oracles appear inline; gradients are cross-checked against
central finite differences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessiancone import cones as cn

SIGMA1_3 = cn.sigma_k_root(3, 1)
SIGMA2_3 = cn.sigma_k_root(3, 2)
MA2 = cn.monge_ampere(2)
MA3 = cn.monge_ampere(3)
QUOT = cn.hessian_quotient(3, 1, 3)

ALL_KINDS = [SIGMA1_3, SIGMA2_3, MA2, MA3, QUOT, cn.hessian_quotient(3, 1, 2)]


def random_cone_point(fun, rng, spread=3.0):
    """Rejection-sample an interior point of the cone."""
    while True:
        lam = rng.uniform(-spread, spread, fun.n) + 1.0
        if cn.in_cone(fun, lam):
            return lam


class TestParseKind:
    def test_names(self):
        assert cn.parse_kind("sigma1", 4).label == "sigma1"
        assert cn.parse_kind("sigmaK:2", 3) == SIGMA2_3
        assert cn.parse_kind("ma", 2) == MA2
        assert cn.parse_kind("quotient:1:3", 3) == QUOT
        with pytest.raises(ValueError):
            cn.parse_kind("cube", 3)


class TestInCone:
    def test_sigma1_halfspace(self):
        assert cn.in_cone(SIGMA1_3, [3.0, -1.0, -1.0])
        assert not cn.in_cone(SIGMA1_3, [-3.0, 1.0, 1.0])

    def test_ma_positive_orthant(self):
        assert not cn.in_cone(MA2, [1.0, -0.5])
        assert cn.in_cone(MA2, [1.0, 0.5])

    def test_sigma2_boundary_point(self):
        # sigma_2(2, 2, -1) = 4 - 2 - 2 = 0: on the boundary, not inside
        assert not cn.in_cone(SIGMA2_3, [2.0, 2.0, -1.0])
        assert cn.in_cone(SIGMA2_3, [2.0, 2.0, 0.0])


class TestEvalAndGrad:
    def test_sigma1_linear(self):
        lam = np.array([1.0, 2.0, 3.0])
        assert cn.f_eval(SIGMA1_3, lam) == pytest.approx(6.0)
        np.testing.assert_allclose(cn.f_grad(SIGMA1_3, lam), np.ones(3))

    def test_ma_hand_gradient(self):
        lam = np.array([1.0, 4.0])
        assert cn.f_eval(MA2, lam) == pytest.approx(2.0)
        np.testing.assert_allclose(cn.f_grad(MA2, lam), [1.0, 0.25], rtol=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        for fun in ALL_KINDS:
            lam = random_cone_point(fun, rng)
            f1 = cn.f_eval(fun, lam)
            assert cn.f_eval(fun, 2.0 * lam) == pytest.approx(2.0 * f1, rel=1e-12)

    def test_outside_cone_rejected(self):
        with pytest.raises(cn.ConeError):
            cn.f_eval(MA2, [1.0, -1.0])
        with pytest.raises(cn.ConeError):
            cn.f_grad(SIGMA2_3, [-1.0, -1.0, -1.0])

    def test_quotient_floor_near_cone_boundary(self):
        q = cn.hessian_quotient(3, 1, 2)
        with pytest.raises(cn.ConeError, match="quotient"):
            cn.f_eval(q, [1e-14, 1e-14, 1e-14])

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_gradient_positivity_and_fd(self, fun):
        rng = np.random.default_rng(123)
        for _ in range(40):
            lam = random_cone_point(fun, rng)
            g = cn.f_grad(fun, lam)
            assert np.all(g > 0)
            fd = cn.fd_grad(fun, lam)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_fd_grad_near_cone_boundary(self):
        # a fixed real step of 1e-6 is 3% of lambda_2 here
        fun = cn.monge_ampere(3)
        lam = np.array([1.0, 3e-5, 2.0])
        g = cn.f_grad(fun, lam)
        err = np.abs(cn.fd_grad(fun, lam) - g).max() / np.abs(g).max()
        assert err <= 1e-12


class TestConcavity:
    def test_sigma1_equality(self):
        assert cn.check_concavity(SIGMA1_3, [1.0, 2.0, 3.0], [4.0, 0.5, 1.0])

    def test_ma_diagonal_ray_equality(self):
        assert cn.check_concavity(MA2, [1.0, 1.0], [4.0, 4.0])

    def test_ma_cross_pair(self):
        # f(midpoint) = f(2.5, 2.5) = 2.5 >= (2 + 2)/2
        lam, mu = np.array([1.0, 4.0]), np.array([4.0, 1.0])
        assert cn.f_many(MA2, 0.5 * (lam + mu)) == pytest.approx(2.5)
        assert cn.check_concavity(MA2, lam, mu)

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_random_pairs(self, fun):
        rng = np.random.default_rng(42)
        for _ in range(60):
            lam = random_cone_point(fun, rng)
            mu = random_cone_point(fun, rng)
            assert cn.check_concavity(fun, lam, mu)


class TestHomogeneityProperty:
    @given(
        st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3),
        st.floats(0.1, 20.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_degree_one_scaling_everywhere_in_orthant(self, lam, t):
        # positive orthant lies in every shipped cone
        lam = np.asarray(lam)
        for fun in (SIGMA2_3, MA3, QUOT):
            assert cn.f_eval(fun, t * lam) == pytest.approx(
                t * cn.f_eval(fun, lam), rel=1e-10
            )
            np.testing.assert_allclose(
                cn.f_grad(fun, t * lam), cn.f_grad(fun, lam), rtol=1e-9
            )


class TestEuler:
    def test_sigma1(self):
        assert cn.euler_positivity(SIGMA1_3, [1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_ma_hand(self):
        assert cn.euler_positivity(MA2, [1.0, 4.0]) == pytest.approx(2.0)

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_diagonal_ray(self, fun):
        for t in (0.5, 1.0, 7.0):
            lam = t * np.ones(fun.n)
            s = cn.euler_positivity(fun, lam)
            assert s == pytest.approx(t * cn.f_eval(fun, np.ones(fun.n)), rel=1e-9)
            assert s > 0


class TestRayIntersect:
    def test_sigma1_unit(self):
        assert cn.ray_intersect(SIGMA1_3, np.ones(3), 3.0) == pytest.approx(1.0)

    def test_ma_hand(self):
        assert cn.ray_intersect(MA2, [1.0, 4.0], 4.0) == pytest.approx(2.0)

    def test_scaling(self):
        lam = np.array([2.0, 0.5, 1.0])
        t1 = cn.ray_intersect(MA3, lam, 1.7)
        t2 = cn.ray_intersect(MA3, 2.0 * lam, 1.7)
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)

    def test_sigma_out_of_range(self):
        with pytest.raises(ValueError):
            cn.ray_intersect(MA2, [1.0, 1.0], 0.0)

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_residual_and_unique_sign_change(self, fun):
        rng = np.random.default_rng(3)
        for _ in range(25):
            lam = random_cone_point(fun, rng)
            sigma = float(rng.uniform(0.2, 5.0))
            t = cn.ray_intersect(fun, lam, sigma)
            resid = cn.f_many(fun, t * lam) - sigma
            assert abs(resid) <= 1e-10 * (1 + abs(sigma))
            # monotone residual: exactly one sign change on a log-spaced grid
            ts = np.geomspace(t / 64.0, t * 64.0, 41)
            signs = np.sign([cn.f_many(fun, s * lam) - sigma for s in ts])
            signs = signs[signs != 0]
            assert np.count_nonzero(np.diff(signs) != 0) == 1


class TestFiSumBound:
    def test_sigma1_algebra(self):
        pt = cn.make_level_set_point(SIGMA1_3, np.ones(3), 2.0)
        for t in (0.5, 1.0, 2.0):
            assert cn.check_fi_sum_bound(SIGMA1_3, pt, t)

    def test_ma_hand_case(self):
        pt = cn.make_level_set_point(MA2, [1.0, 4.0], 2.0)
        np.testing.assert_allclose(pt.lam, [1.0, 4.0])
        g = cn.f_grad(MA2, pt.lam)
        assert g.sum() == pytest.approx(1.25)
        assert cn.check_fi_sum_bound(MA2, pt, 1.0)  # 1.25 > (1 - 2)/1

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_diagonal_level_point(self, fun):
        sigma = 1.3
        c = cn.ray_intersect(fun, np.ones(fun.n), sigma)
        pt = cn.make_level_set_point(fun, np.ones(fun.n), sigma)
        # at lambda = c*1 the bound at t = c reads sigma/c > 0
        assert cn.check_fi_sum_bound(fun, pt, c)
        for t in (0.5, 1.0, 2.0):
            assert cn.check_fi_sum_bound(fun, pt, t)


class TestSubsolutionGap:
    def test_identical_normals_near_branch(self):
        lam = np.array([1.0, 2.0])
        beta = cn.default_beta(MA2, [lam])
        res = cn.subsolution_gap(MA2, lam, lam, cn.SubsolutionGapSpec(beta=beta))
        assert res.branch == "normal-near"
        assert res.normal_distance == pytest.approx(0.0)
        assert res.passed

    def test_sigma1_always_near(self):
        rng = np.random.default_rng(9)
        spec = cn.SubsolutionGapSpec(beta=cn.default_beta(SIGMA1_3, [np.ones(3)]))
        for _ in range(20):
            lam = random_cone_point(SIGMA1_3, rng)
            res = cn.subsolution_gap(SIGMA1_3, np.ones(3), lam, spec)
            assert res.branch == "normal-near" and res.passed

    def test_ma_far_branch_hand_case(self):
        lam_sub = np.array([1.0, 1.0])
        lam = np.array([3.0, 1.0 / 3.0])  # on the level {f = 1}
        beta = cn.default_beta(MA2, [lam_sub])
        res = cn.subsolution_gap(MA2, lam_sub, lam, cn.SubsolutionGapSpec(beta=beta))
        assert res.branch == "normal-far"
        assert res.eps_prime == pytest.approx(0.25, rel=1e-12)
        # brute-force: the inequality holds at eps' and fails just above
        g = cn.f_grad(MA2, lam)
        lhs = g @ (lam_sub - lam)
        for eps in np.linspace(0.0, res.eps_prime, 11):
            assert lhs >= 0.0 - 1.0 + eps * (1 + g.sum()) - 1e-12  # f terms cancel
        assert lhs < (res.eps_prime + 1e-6) * (1 + g.sum()) - (1.0 - 1.0)

    def test_beta_invariant(self):
        with pytest.raises(ValueError):
            cn.SubsolutionGapSpec(beta=0.0)


class TestDeltaAndKappa:
    def test_delta_trivials(self):
        assert cn.delta_nondegeneracy(MA2, [1.0, 1.0]) == 1.0
        assert cn.delta_nondegeneracy(SIGMA1_3, [0.5, 2.0, 0.1]) == pytest.approx(0.1)
        assert cn.delta_nondegeneracy(MA2, [0.0, 0.3]) == 0.0

    def test_kappa_hand_values(self):
        assert cn.kappa_lower_bound(SIGMA1_3, 3.0) == pytest.approx(1.5)
        assert cn.kappa_lower_bound(MA2, 1.0) == pytest.approx(0.5)

    def test_kappa_closed_form(self):
        # degree-one f gives c0 = s/f(1) and kappa = f(1)^2 / (f(1) + s)
        for fun, s in [(MA3, 1.3), (MA3, 2.6), (SIGMA1_3, 0.7), (QUOT, 2.0)]:
            f1 = cn.f_eval(fun, np.ones(fun.n))
            assert cn.kappa_lower_bound(fun, s) == pytest.approx(
                f1 * f1 / (f1 + s), rel=1e-10
            )


class TestLevelSetPoint:
    def test_csv_round_trip(self, tmp_path):
        pts = [
            cn.make_level_set_point(MA3, [1.0, 2.0, 3.0], 2.5),
            cn.make_level_set_point(MA3, [2.0, 1.0, 1.0], 1.0),
        ]
        path = tmp_path / "levels.csv"
        cn.write_level_set_csv(path, pts)
        header = path.read_text().splitlines()[0]
        assert header == "lambda_1,lambda_2,lambda_3,sigma"
        again = cn.read_level_set_csv(path, MA3)
        for a, b in zip(pts, again):
            np.testing.assert_allclose(a.lam, b.lam)
            assert a.sigma == b.sigma
            np.testing.assert_allclose(a.normal, b.normal)

    def test_normal_is_unit_and_on_level(self):
        pt = cn.make_level_set_point(MA3, [1.0, 2.0, 3.0], 2.5)
        assert abs(np.linalg.norm(pt.normal) - 1.0) <= 1e-12
        assert abs(cn.f_eval(MA3, pt.lam) - 2.5) <= 1e-9 * 3.5

    def test_bad_normal_rejected(self):
        with pytest.raises(ValueError):
            cn.LevelSetPoint(lam=np.ones(2), sigma=1.0, normal=np.array([1.0, 1.0]))
