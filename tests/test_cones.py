"""Symmetric function families: cone membership, gradients, concavity,
level-set geometry, and the two-branch subsolution gap test.

Hand-computed oracles appear inline; gradients are cross-checked against
central finite differences.
"""

import re

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

    @pytest.mark.parametrize("name", [
        "quotient:2", "quotient:1:2:3", "sigmaK:x", "sigmaK:", "sigmaK",
        "quotient:1:x", "MA", "ma:2", "sigma1:1", "sigmaK:2:3"])
    def test_malformed_names_are_unknown_kinds(self, name):
        with pytest.raises(ValueError) as info:
            cn.parse_kind(name, 3)
        assert str(info.value) == f"unknown function kind {name!r}"


def shipped_kinds(n):
    """Every function the command line names at dimension n."""
    return ([cn.monge_ampere(n)]
            + [cn.sigma_k_root(n, k) for k in range(1, n + 1)]
            + [cn.hessian_quotient(n, k, l)
               for l in range(2, n + 1) for k in range(1, l)])


# (constructor, arguments, its message): each family keeps its own range
OUT_OF_RANGE = [
    (cn.sigma_k_root, (3, 0), "need 1 <= k <= n"),
    (cn.sigma_k_root, (3, 4), "need 1 <= k <= n"),
    (cn.parse_kind, ("sigmaK:5", 4), "need 1 <= k <= n"),
    (cn.hessian_quotient, (3, 0, 2), "need 0 < k < l <= n"),
    (cn.hessian_quotient, (3, 2, 2), "need 0 < k < l <= n"),
    (cn.hessian_quotient, (3, 1, 4), "need 0 < k < l <= n"),
    (cn.parse_kind, ("quotient:2:1", 3), "need 0 < k < l <= n"),
    (cn.monge_ampere, (1,), "dimension must be >= 2"),
    (cn.sigma_k_root, (1, 5), "dimension must be >= 2"),
    (cn.hessian_quotient, (1, 0, 3), "dimension must be >= 2"),
]


class TestOneFamily:
    """The roots and Monge-Ampere are the quotient over sigma_0 = 1."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ma_is_the_top_root_to_the_bit(self, n):
        ma, root = cn.monge_ampere(n), cn.sigma_k_root(n, n)
        rng = np.random.default_rng(n)
        lam = np.array([random_cone_point(ma, rng) for _ in range(50)])
        assert (cn.f_many(ma, lam).tobytes()
                == cn.f_many(root, lam).tobytes())
        assert (cn.grad_many(ma, lam).tobytes()
                == cn.grad_many(root, lam).tobytes())
        e = cn.elem_sym(lam, n)[..., 1:]
        dfds, root_dfds = cn.df_dsigmas(ma, e), cn.df_dsigmas(root, e)
        assert dfds.keys() == root_dfds.keys() == {n}
        assert dfds[n].tobytes() == root_dfds[n].tobytes()
        assert (ma.k, ma.l, ma.power) == (root.k, root.l, root.power) == (0, n, n)
        assert (ma.label, root.label) == ("ma", f"sigmaK:{n}")
        assert ma != root

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_labels_parse_back(self, n):
        for fun in shipped_kinds(n):
            assert cn.parse_kind(fun.label, n) == fun
            assert fun.cone_order == fun.l and fun.power == fun.l - fun.k

    @pytest.mark.parametrize("make, args, message", OUT_OF_RANGE,
                             ids=[f"{make.__name__}{args}"
                                  for make, args, _ in OUT_OF_RANGE])
    def test_out_of_range_rejected(self, make, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(*args)

    def test_direct_construction_checks_the_range(self):
        assert cn.SymmetricFunction(3, 0, 3, "ma") == cn.monge_ampere(3)
        for k, l in [(-1, 2), (2, 2), (0, 4)]:
            with pytest.raises(ValueError, match=r"^need 0 <= k < l <= n$"):
                cn.SymmetricFunction(3, k, l, "f")


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
        assert all(cn.check_concavity(SIGMA1_3, [1.0, 2.0, 3.0], [4.0, 0.5, 1.0]))

    def test_ma_diagonal_ray_equality(self):
        assert all(cn.check_concavity(MA2, [1.0, 1.0], [4.0, 4.0]))

    def test_ma_cross_pair(self):
        # f(midpoint) = f(2.5, 2.5) = 2.5 >= (2 + 2)/2
        lam, mu = np.array([1.0, 4.0]), np.array([4.0, 1.0])
        assert cn.f_many(MA2, 0.5 * (lam + mu)) == pytest.approx(2.5)
        assert all(cn.check_concavity(MA2, lam, mu))

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_random_pairs(self, fun):
        rng = np.random.default_rng(42)
        pairs = [(random_cone_point(fun, rng), random_cone_point(fun, rng))
                 for _ in range(60)]
        lam, mu = np.array(pairs).transpose(1, 0, 2)
        midpoint_ok, gradient_ok = cn.check_concavity(fun, lam, mu)
        assert midpoint_ok.shape == gradient_ok.shape == (60,)
        assert midpoint_ok.all() and gradient_ok.all()

    def test_convex_function_fails_midpoint(self, monkeypatch):
        # f^2 is convex along the diagonal ray: f^2(2.5, 2.5) = 6.25 < 8.5
        f_many = cn.f_many
        monkeypatch.setattr(cn, "f_many", lambda fun, lam: f_many(fun, lam) ** 2)
        lam = np.array([[1.0, 1.0], [1.0, 2.0]])
        mu = np.array([[4.0, 4.0], [1.0, 2.0]])
        midpoint_ok, _ = cn.check_concavity(MA2, lam, mu)
        np.testing.assert_array_equal(midpoint_ok, [False, True])


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
        lam = np.array([1.0, 2.0, 3.0])
        assert cn.f_grad(SIGMA1_3, lam) @ lam == pytest.approx(6.0)
        assert cn.check_euler(SIGMA1_3, lam)

    def test_ma_hand(self):
        lam = np.array([1.0, 4.0])
        assert cn.f_grad(MA2, lam) @ lam == pytest.approx(2.0)
        assert cn.check_euler(MA2, lam)

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_diagonal_ray(self, fun):
        lam = np.array([0.5, 1.0, 7.0])[:, None] * np.ones(fun.n)
        assert cn.check_euler(fun, lam).tolist() == [True] * 3

    def test_wrong_gradient_counted_not_raised(self, monkeypatch):
        # a doubled gradient breaks sum f_i lambda_i = f on every sample
        grad_many = cn.grad_many
        monkeypatch.setattr(cn, "grad_many", lambda fun, lam: 2.0 * grad_many(fun, lam))
        lam = np.array([[1.0, 4.0], [2.0, 3.0]])
        assert not cn.check_euler(MA2, lam).any()


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

    def test_stacked_sigma(self):
        t = cn.ray_intersect(MA2, [1.0, 4.0], np.array([2.0, 4.0]))
        assert t.tolist() == [cn.ray_intersect(MA2, [1.0, 4.0], s) for s in (2.0, 4.0)]

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

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_check_ray_stacked(self, fun):
        rng = np.random.default_rng(3)
        lam = np.array([random_cone_point(fun, rng) for _ in range(25)])
        sigma = rng.uniform(0.2, 5.0, 25)
        ok, t = cn.check_ray(fun, lam, sigma)
        assert ok.all()
        assert t.tolist() == [cn.ray_intersect(fun, d, s) for d, s in zip(lam, sigma)]

    def test_check_ray_counts_a_second_crossing(self, monkeypatch):
        # f(s lambda) - sigma crosses zero again above s = 8 t
        f_many = cn.f_many

        def wavy(fun, lam):
            f = f_many(fun, lam)
            return np.where(f > 8.0, 0.0, f)

        monkeypatch.setattr(cn, "f_many", wavy)
        ok, _ = cn.check_ray(MA2, np.array([[1.0, 4.0], [1.0, 4.0]]),
                             np.array([1.0, 0.1]))
        np.testing.assert_array_equal(ok, [False, True])

    def test_sign_changes_skip_zeros(self):
        signs = np.array([[-1, 0, 1, 1], [0, 0, 1, 1], [1, -1, 0, 1], [0, -1, 0, 0]])
        assert cn._sign_changes(signs).tolist() == [1, 0, 2, 0]


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

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_stacked_margins_match_single_points(self, fun):
        rng = np.random.default_rng(5)
        pts = [cn.make_level_set_point(fun, random_cone_point(fun, rng),
                                       float(rng.uniform(0.2, 4.0)))
               for _ in range(10)]
        t = np.array([0.5, 1.0, 2.0, 3.0])
        ok, margin = cn.fi_sum_margins(
            fun, np.array([p.lam for p in pts]), [p.sigma for p in pts], t)
        assert ok.shape == margin.shape == (10, 4) and ok.all()
        for p, row in zip(pts, margin):
            gsum = cn.f_grad(fun, p.lam).sum()
            rhs = [(cn.f_eval(fun, s * np.ones(fun.n)) - p.sigma) / s for s in t]
            assert row.tolist() == (gsum - np.array(rhs)).tolist()

    def test_bound_violation_counted_not_raised(self):
        # sum f_i(1, 4) = 1.25, while (f(t*1) - sigma)/t with sigma = -10 is
        # 21 at t = 0.5 and 11 at t = 1
        ok, margin = cn.fi_sum_margins(MA2, np.array([[1.0, 4.0]]), [-10.0],
                                       np.array([[0.5, 1.0]]))
        assert not ok.any() and (margin < 0).all()


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

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_stacked_matches_single_points(self, fun):
        rng = np.random.default_rng(11)
        lam = np.array([random_cone_point(fun, rng) for _ in range(30)])
        ref = np.ones(fun.n)
        spec = cn.SubsolutionGapSpec(beta=cn.default_beta(fun, ref))
        res = cn.subsolution_gap(fun, ref, lam, spec)
        for i, point in enumerate(lam):
            one = cn.subsolution_gap(fun, ref, point, spec)
            assert res.branch[i] == one.branch
            assert res.normal_distance[i] == one.normal_distance
            assert res.passed[i] == one.passed
            if one.branch == "normal-far":
                assert res.eps_prime[i] == one.eps_prime
                assert np.isnan(res.min_component_ratio[i])
            else:
                assert res.min_component_ratio[i] == one.min_component_ratio
                assert np.isnan(res.eps_prime[i])

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
    def test_normal_is_unit_and_on_level(self):
        pt = cn.make_level_set_point(MA3, [1.0, 2.0, 3.0], 2.5)
        assert abs(np.linalg.norm(pt.normal) - 1.0) <= 1e-12
        assert abs(cn.f_eval(MA3, pt.lam) - 2.5) <= 1e-9 * 3.5

    def test_bad_normal_rejected(self):
        with pytest.raises(ValueError):
            cn.LevelSetPoint(lam=np.ones(2), sigma=1.0, normal=np.array([1.0, 1.0]))


class TestStackedChecks:
    """A stacked check gives, row by row, what it gives on each point."""

    @pytest.mark.parametrize("fun", ALL_KINDS, ids=lambda f: f.label)
    def test_rows_match_single_points(self, fun):
        rng = np.random.default_rng(8)
        lam = np.array([random_cone_point(fun, rng) for _ in range(20)])
        mu = np.array([random_cone_point(fun, rng) for _ in range(20)])
        ok, err = cn.check_fd_grad(fun, lam)
        stacked = (cn.fd_grad(fun, lam), cn.check_gradient(fun, lam),
                   cn.check_euler(fun, lam), ok, err,
                   *cn.check_concavity(fun, lam, mu))
        for i in range(lam.shape[0]):
            single = (cn.fd_grad(fun, lam[i]), cn.check_gradient(fun, lam[i]),
                      cn.check_euler(fun, lam[i]), *cn.check_fd_grad(fun, lam[i]),
                      *cn.check_concavity(fun, lam[i], mu[i]))
            for a, b in zip(stacked, single):
                np.testing.assert_array_equal(a[i], b)
        assert ok.all() and err.max() <= 1e-12

    def test_non_positive_gradient_counted_not_raised(self, monkeypatch):
        grad_many = cn.grad_many

        def defective(fun, lam):
            g = grad_many(fun, lam)
            g[..., 0, 0] = -g[..., 0, 0]
            return g

        monkeypatch.setattr(cn, "grad_many", defective)
        lam = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 1.0]])
        assert cn.check_gradient(SIGMA2_3, lam).tolist() == [False, True]
        ok, err = cn.check_fd_grad(SIGMA2_3, lam)
        assert ok.tolist() == [False, True] and err[0] > 1e-5
