"""Arrowhead assembly, thresholds, concentration checks, and deflation.

The independent oracle for n = 2 is the closed-form quadratic
    lambda_{1,2} = ((a + d1) -/+ sqrt((a - d1)^2 + 4|a1|^2)) / 2,
everything larger is checked against numpy's dense Hermitian solver.
"""

import dataclasses
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessiancone import arrowhead as ah


def dense(spec):
    """The dense Hermitian arrowhead matrix of a spec."""
    return ah._assemble(spec.d, spec.a_off, spec.corner)


def eig2x2(d1, a1, corner):
    """Closed-form eigenvalues of [[d1, a1], [conj(a1), corner]]."""
    disc = np.sqrt((corner - d1) ** 2 + 4.0 * abs(a1) ** 2)
    return (corner + d1 - disc) / 2.0, (corner + d1 + disc) / 2.0


class TestAssemble:
    def test_diagonal_case(self):
        spec = ah.ArrowheadSpec(d=[0.0], a_off=[0.0], corner=5.0)
        np.testing.assert_array_equal(dense(spec), np.diag([0.0, 5.0]))

    def test_hermitian_symmetry(self):
        spec = ah.ArrowheadSpec(d=[1.0, 2.0], a_off=[1j, 0.0], corner=0.0)
        m = dense(spec)
        assert m[0, 2] == 1j and m[2, 0] == -1j
        np.testing.assert_array_equal(m, m.conj().T)

    def test_reflection(self):
        spec = ah.ArrowheadSpec(d=[0.0], a_off=[1.0], corner=0.0)
        np.testing.assert_array_equal(
            dense(spec), np.array([[0.0, 1.0], [1.0, 0.0]])
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ah.ArrowheadSpec(d=[1.0, 2.0], a_off=[0.0], corner=0.0)


class TestEigenvalues:
    def test_reflection_matrix(self):
        spec = ah.ArrowheadSpec(d=[0.0], a_off=[1.0], corner=0.0)
        np.testing.assert_allclose(
            ah.eigenvalues(spec).values, [-1.0, 1.0], atol=1e-14
        )

    def test_closed_form_2x2(self):
        spec = ah.ArrowheadSpec(d=[0.0], a_off=[1.0], corner=10.0)
        expected = eig2x2(0.0, 1.0, 10.0)
        np.testing.assert_allclose(ah.eigenvalues(spec).values, expected, rtol=1e-14)
        np.testing.assert_allclose(expected[0], (10 - np.sqrt(104)) / 2)

    def test_diagonal_spec_sorts(self):
        spec = ah.ArrowheadSpec(d=[3.0, -1.0, 2.0], a_off=[0.0] * 3, corner=1.5)
        np.testing.assert_allclose(
            ah.eigenvalues(spec).values, [-1.0, 1.5, 2.0, 3.0], atol=1e-14
        )

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=7),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_trace_and_corner_domination(self, dvals, seed):
        rng = np.random.default_rng(seed)
        nm1 = len(dvals)
        a = rng.uniform(-10, 10, nm1) + 1j * rng.uniform(-10, 10, nm1)
        corner = float(rng.uniform(-10, 10))
        spec = ah.ArrowheadSpec(d=dvals, a_off=a, corner=corner)
        lam = ah.eigenvalues(spec).values  # constructor checks trace identity
        assert lam[-1] >= corner - 1e-12


class TestRealSpectra:
    """The spectra come from the real arrowhead with border |a_i|, which
    the unitary diag(a_i / |a_i|, 1) makes similar to the Hermitian one;
    the dense complex solver on the Hermitian matrix is the reference."""

    @staticmethod
    def assert_close_to_complex(d, a, corner):
        ref = np.linalg.eigvalsh(ah._assemble(d, a, corner))
        got = ah._spectra(d, a, corner)
        norm = np.abs(ref).max(axis=-1, keepdims=True)
        bound = ah.ROUNDING_ULPS * np.finfo(float).eps * norm
        assert np.all(np.abs(got - ref) <= bound)

    @staticmethod
    def draw_hermitian(n, trials, rng):
        """A sweep's draws with the phases of their border entries, drawn
        next from the same stream: complex borders with the moduli the
        sweep sees."""
        d, mod = ah._draw_specs(n, trials, rng)
        return d, mod * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, mod.shape))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stacked_specs(self, n):
        rng = np.random.default_rng(n)
        d, a = self.draw_hermitian(n, 400, rng)
        a[::3, 0] = 0.0  # zero border entries, where the phase is 1
        a[::7] = 0.0
        if n > 2:
            d[1::4, 1] = d[1::4, 0]  # repeated diagonal entries
        corner = (ah.threshold_strong(d, a, 0.2) * rng.uniform(0.0, 2.0, 400)
                  - rng.uniform(0.0, 50.0, 400))
        self.assert_close_to_complex(d, a, corner)

    def test_corner_near_1e10(self):
        # the chunk of test_distinct_margin_absorbs_rounding_at_large_norm
        # whose largest corner is about 7e9
        d, a = self.draw_hermitian(5, 512, np.random.default_rng([11, 9]))
        eps = np.minimum(1.0, 0.5 * ah._min_gap(np.sort(d)))
        corner = ah.threshold_distinct(d, a, eps)
        assert corner.max() > 5e9
        self.assert_close_to_complex(d, a, corner)

    def test_single_spec_matches_its_hermitian_matrix(self):
        spec = ah.ArrowheadSpec(d=[1.0, -2.0, 1.0], a_off=[3j, 0.0, 1 - 1j],
                                corner=4.0)
        ref = np.linalg.eigvalsh(dense(spec))
        np.testing.assert_allclose(ah.eigenvalues(spec).values, ref,
                                   rtol=0, atol=1e-13)


class TestThresholds:
    def test_strong_hand_values(self):
        assert ah.threshold_strong([0.0], [1.0], 0.1) == pytest.approx(10.0)
        assert ah.threshold_strong([0.0, 0.0], [0.0, 0.0], 1.0) == pytest.approx(1 / 3)
        assert ah.threshold_strong([0.0], [0.0], 0.7) == 0.0

    def test_weak_hand_values(self):
        assert ah.threshold_weak([1.0, -1.0], [1.0, 1.0], 1.0) == pytest.approx(5.0)
        assert ah.threshold_weak([0.0], [1.0], 0.1) == pytest.approx(10.0)
        assert ah.threshold_weak([0.0], [0.0], 0.3) == 0.0

    def test_distinct_hand_value(self):
        assert ah.threshold_distinct([0.0, 2.0], [1.0, 1.0], 0.5) == pytest.approx(8.5)

    def test_eps_must_be_positive(self):
        for fn in (ah.threshold_strong, ah.threshold_weak, ah.threshold_distinct):
            with pytest.raises(ValueError):
                fn([0.0], [1.0], 0.0)

    def test_convex_in_eps(self):
        # threshold(eps) = c1/eps + c2*eps + const is convex: midpoint check.
        d, a = [1.0, -2.0, 3.0], [1.0, 2.0, 0.5]
        for fn in (ah.threshold_strong, ah.threshold_weak, ah.threshold_distinct):
            for e1, e3 in [(0.1, 1.0), (0.5, 2.0), (0.05, 0.2)]:
                e2 = 0.5 * (e1 + e3)
                assert fn(d, a, e1) + fn(d, a, e3) >= 2 * fn(d, a, e2) - 1e-12


class TestStrongConcentration:
    def test_2x2_closed_form(self):
        spec = ah.ArrowheadSpec(d=[0.0], a_off=[1.0], corner=10.0)
        rep = ah.check_concentration_strong(spec, eps=0.1)
        lo, hi = eig2x2(0.0, 1.0, 10.0)
        assert rep.passed
        np.testing.assert_allclose(rep.deviations, [abs(lo)], rtol=1e-12)
        np.testing.assert_allclose(rep.corner_excess, hi - 10.0, rtol=1e-12)
        assert rep.deviations[0] == pytest.approx(0.0990, abs=1e-4)

    def test_diagonal_spec_exact(self):
        spec = ah.ArrowheadSpec(d=[1.0, 2.0], a_off=[0.0, 0.0], corner=50.0)
        rep = ah.check_concentration_strong(spec, eps=0.5)
        assert rep.passed
        np.testing.assert_allclose(rep.deviations, 0.0, atol=1e-13)
        assert rep.corner_excess == pytest.approx(0.0, abs=1e-13)

    def test_n3_at_threshold(self):
        d, a, eps = [1.0, 2.0], [0.5, 0.5], 0.25
        corner = float(ah.threshold_strong(d, a, eps))
        spec = ah.ArrowheadSpec(d=d, a_off=a, corner=corner)
        rep = ah.check_concentration_strong(spec, eps)
        assert rep.passed
        # independent dense-solver oracle
        lam = np.linalg.eigvalsh(dense(spec))
        assert np.all(np.abs(np.sort(d) - lam[:2]) < eps)
        assert 0.0 <= lam[-1] - corner < 2 * eps

    def test_below_threshold_rejected(self):
        spec = ah.ArrowheadSpec(d=[0.0], a_off=[1.0], corner=5.0)
        with pytest.raises(ValueError, match="below threshold"):
            ah.check_concentration_strong(spec, eps=0.1)


class TestWeakConcentration:
    def test_n3_repeated_diagonal(self):
        d, a, eps = [1.0, 1.0], [1.0, 0.0], 0.5
        corner = float(ah.threshold_weak(d, a, eps))
        spec = ah.ArrowheadSpec(d=d, a_off=a, corner=corner)
        rep = ah.check_concentration_weak(spec, eps)
        assert rep.passed
        assert np.all(rep.deviations < 0.5)

    def test_diagonal_exact_matches(self):
        spec = ah.ArrowheadSpec(d=[2.0, -3.0], a_off=[0.0, 0.0], corner=10.0)
        rep = ah.check_concentration_weak(spec, eps=0.25)
        assert rep.passed
        np.testing.assert_allclose(rep.deviations, 0.0, atol=1e-13)

    def test_2x2_match_index(self):
        spec = ah.ArrowheadSpec(d=[0.0], a_off=[1.0], corner=10.0)
        rep = ah.check_concentration_weak(spec, eps=0.1)
        assert rep.passed
        assert rep.matched_indices.tolist() == [0]


class TestDistinctConcentration:
    def test_n3_example(self):
        spec = ah.ArrowheadSpec(d=[0.0, 2.0], a_off=[1.0, 1.0], corner=8.5)
        rep = ah.check_concentration_distinct(spec, eps=0.5)
        assert rep.passed
        lam = np.linalg.eigvalsh(dense(spec))
        assert abs(lam[0] - 0.0) < 0.5 and abs(lam[1] - 2.0) < 0.5

    def test_diagonal_distinct(self):
        spec = ah.ArrowheadSpec(d=[0.0, 1.0], a_off=[0.0, 0.0], corner=9.0)
        rep = ah.check_concentration_distinct(spec, eps=0.5)
        assert rep.passed
        np.testing.assert_allclose(rep.deviations, 0.0, atol=1e-13)

    def test_n2_vacuous_gap(self):
        spec = ah.ArrowheadSpec(d=[1.0], a_off=[1.0], corner=3.0)
        rep = ah.check_concentration_distinct(spec, eps=0.5)
        assert rep.passed and rep.deviations[0] < 0.5

    def test_rejections(self):
        with pytest.raises(ValueError, match="distinct"):
            ah.check_concentration_distinct(
                ah.ArrowheadSpec(d=[1.0, 1.0], a_off=[0.0, 0.0], corner=99.0), 0.1
            )
        with pytest.raises(ValueError, match="half"):
            ah.check_concentration_distinct(
                ah.ArrowheadSpec(d=[0.0, 1.0], a_off=[0.0, 0.0], corner=99.0), 0.9
            )
        with pytest.raises(ValueError, match="below threshold"):
            ah.check_concentration_distinct(
                ah.ArrowheadSpec(d=[0.0, 2.0], a_off=[1.0, 1.0], corner=8.0), 0.5
            )


class TestDeflation:
    def test_merge_weights(self):
        spec = ah.ArrowheadSpec(d=[1.0, 1.0], a_off=[3.0, 4.0], corner=7.0)
        val, red = ah.deflate_repeated(spec)
        assert val == 1.0
        np.testing.assert_allclose(red.d, [1.0])
        np.testing.assert_allclose(red.a_off, [5.0])
        assert red.corner == 7.0
        full = np.linalg.eigvalsh(dense(spec))
        merged = np.sort(
            np.concatenate([np.linalg.eigvalsh(dense(red)), [val]])
        )
        np.testing.assert_allclose(full, merged, atol=1e-9)

    def test_trivial_zero_block(self):
        spec = ah.ArrowheadSpec(d=[0.0, 0.0], a_off=[0.0, 0.0], corner=7.0)
        val, red = ah.deflate_repeated(spec)
        assert val == 0.0
        np.testing.assert_array_equal(dense(red), np.diag([0.0, 7.0]))

    def test_n4_sqrt2(self):
        spec = ah.ArrowheadSpec(d=[2.0, 2.0, 5.0], a_off=[1.0, 1.0, 0.0], corner=10.0)
        val, red = ah.deflate_repeated(spec)
        assert val == 2.0
        np.testing.assert_allclose(red.a_off, [np.sqrt(2.0), 0.0])
        full = np.linalg.eigvalsh(dense(spec))
        merged = np.sort(
            np.concatenate([np.linalg.eigvalsh(dense(red)), [val]])
        )
        np.testing.assert_allclose(full, merged, atol=1e-9)

    def test_no_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            ah.deflate_repeated(
                ah.ArrowheadSpec(d=[1.0, 2.0], a_off=[0.0, 0.0], corner=0.0)
            )

    def test_random_forced_repeats_multiset(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            d = rng.uniform(-5, 5, n - 1)
            i, j = rng.choice(n - 1, size=2, replace=False)
            d[j] = d[i]
            a = rng.uniform(-5, 5, n - 1) + 1j * rng.uniform(-5, 5, n - 1)
            spec = ah.ArrowheadSpec(d=d, a_off=a, corner=float(rng.uniform(-5, 5)))
            val, red = ah.deflate_repeated(spec)
            full = np.linalg.eigvalsh(dense(spec))
            merged = np.sort(
                np.concatenate([np.linalg.eigvalsh(dense(red)), [val]])
            )
            np.testing.assert_allclose(full, merged, atol=1e-9)


class TestSweeps:
    def test_all_zero_offdiagonal(self):
        s = ah.SweepSummary(
            mode="strong", n=3, eps=0.1, corner_fraction=0.5, trials=1,
            seed=0, max_dev=0.0, max_excess=0.0, violations=0,
        )
        assert "0.5" in s.csv_row()
        spec = ah.ArrowheadSpec(d=[1.0, 2.0], a_off=[0.0, 0.0], corner=0.5)
        lam = ah.eigenvalues(spec).values
        # each diagonal entry is itself an eigenvalue
        assert np.abs(np.subtract.outer(spec.d, lam)).min(axis=1).max() <= 1e-14
        # deviations vanish regardless of corner when the border is zero
        np.testing.assert_allclose(
            np.sort(np.concatenate([spec.d, [spec.corner]])), lam, atol=1e-14
        )

    def test_half_threshold_breaks_bound(self):
        # corner at half the strong threshold: deviation (sqrt(29)-5)/2 > eps
        lo, _ = eig2x2(0.0, 1.0, 5.0)
        dev = abs(lo)
        assert dev == pytest.approx((np.sqrt(29) - 5) / 2)
        assert dev > 0.1

    def test_determinism(self):
        s1 = ah.sweep_below_threshold(3, 0.1, trials=700, seed=42)
        s2 = ah.sweep_below_threshold(3, 0.1, trials=700, seed=42)
        assert s1 == s2

    def test_at_threshold_no_violations_small(self):
        for mode in ("strong", "weak", "distinct"):
            for n in (2, 3, 5):
                s = ah.sweep_at_threshold(mode, n, eps=0.2, trials=500, seed=11)
                assert s.violations == 0, (mode, n)

    def test_above_threshold_no_violations(self):
        # the bounds hold for any corner at or above the threshold
        for frac in (1.3, 2.0):
            s = ah.sweep_below_threshold(4, 0.2, trials=800, seed=13,
                                         corner_fraction=frac)
            assert s.violations == 0, frac

    def test_distinct_margin_absorbs_rounding_at_large_norm(self):
        # chunk 9 of this cell (trials 4608..5119) holds a spec whose corner
        # is about 1e10; eigvalsh rounding there is far above 1e-9
        s = ah.sweep_at_threshold("distinct", 5, 1.0, 5120, 11)
        assert s.violations == 0

    def test_rows_pinned(self):
        # pinned rows; the distinct row depends on the eps cap at half the
        # minimal diagonal gap
        rows = [ah.sweep_at_threshold(mode, 4, 1.0, 600, 7).csv_row()
                for mode in ("strong", "weak", "distinct")]
        rows.append(ah.sweep_below_threshold(3, 0.2, 600, 7, 0.5).csv_row())
        assert rows == [
            "4,1.0,1.0,0.18701891180652297,0.19848548751792805,0",
            "4,1.0,1.0,0.7922988386822173,0.9608381757260531,0",
            "4,1.0,1.0,0.6668134396934162,0.90463863263642,0",
            "3,0.2,0.5,0.13306570596883163,0.1332201298464497,0",
        ]

    def test_shifted_eigenvalue_still_counted(self, monkeypatch):
        eps = 0.05
        exact = np.linalg.eigvalsh

        def shifted(mats):
            lam = exact(mats)
            d0 = np.sort(mats[0].diagonal().real[:-1])[0]
            lam[0, 0] = d0 + 1.001 * eps  # just outside the bound
            return lam

        assert ah.sweep_at_threshold("strong", 3, eps, 512, 0).violations == 0
        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        assert ah.sweep_at_threshold("strong", 3, eps, 512, 0).violations == 1

    def test_top_eigenvalue_below_corner_counted(self, monkeypatch):
        exact = np.linalg.eigvalsh

        def lowered(mats):
            lam = exact(mats)
            lam[0, -1] = mats[0, -1, -1].real - 1e-3  # negative corner excess
            return lam

        monkeypatch.setattr(np.linalg, "eigvalsh", lowered)
        assert ah.sweep_at_threshold("weak", 3, 0.05, 512, 0).violations == 1


def dense_stats(mode, d, a, eps, corner_fraction):
    """A chunk's statistics from a dense solve of every trial, with the eps
    cap from the pairwise minimum gap: the reference for the filtered
    sweep.  Also returns the spectra's deviations, excess and corners."""
    if mode == "distinct":
        i, j = np.triu_indices(d.shape[-1], k=1)
        eps = np.minimum(eps, 0.5 * np.abs(d[:, i] - d[:, j]).min(axis=-1, initial=np.inf))
    corner = corner_fraction * ah._THRESHOLDS[mode](d, a, eps)
    lam = np.linalg.eigvalsh(ah._assemble(d, a, corner))
    dev, excess, deviation_ok, excess_ok, _ = ah._concentration(mode, d, lam, corner, eps)
    passed = deviation_ok.all(axis=-1) & excess_ok
    stats = (float(dev.max()), float(excess.max()), int(np.count_nonzero(~passed)))
    return stats, dev, excess, corner


@st.composite
def adversarial_chunks(draw):
    """(mode, n, eps, corner_fraction, seed, families): a chunk drawn as
    the sweeps draw it, then bent on random trials by each family:
    repeated or 1e-9-clustered diagonal entries, zero or 1e-6 borders."""
    mode = draw(st.sampled_from(["strong", "weak", "distinct"]))
    n = draw(st.integers(2, 8))
    eps = 10.0 ** draw(st.floats(-8.0, np.log10(3.0)))
    corner_fraction = 10.0 ** draw(st.floats(-3.0, np.log10(2.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    families = {"cluster", "zero", "tiny"} | ({"repeat"} if mode != "distinct" else set())
    return mode, n, eps, corner_fraction, seed, draw(st.sets(st.sampled_from(sorted(families))))


def adversarial_specs(n, seed, families):
    rng = np.random.default_rng(seed)
    d, a = ah._draw_specs(n, ah._CHUNK, rng)
    for family in sorted(families):
        rows = rng.random(len(d)) < 0.3
        if family == "repeat" and n > 2:
            d[rows, 1] = d[rows, 0]
        elif family == "cluster" and n > 2:
            d[rows, 1:] = d[rows, :1] + 1e-9 * np.arange(1, n - 1)
        elif family == "zero":
            a[rows, 0] = 0.0
        elif family == "tiny":
            a[rows, -1] = 1e-6
    return d, a


def plane_bounds(planes, corner):
    """_bounds with the lower bounds of every trial (_lower over all
    columns): (ok, lo, hi, excess_lo, excess_hi), ok the candidates whose
    lower bounds are all finite."""
    _, candidates, hi, slack, excess_lo, excess_hi = ah._bounds(planes, corner)
    lo = ah._lower(planes, corner, hi, slack, slice(None))
    return candidates & np.isfinite(lo).all(axis=0), lo, hi, excess_lo, excess_hi


def cube_bounds(ds, z, corner):
    """plane_bounds with the secular sums S_j(0) and S_j(hi) taken by
    .sum(axis=1) over (k, k, trials) cubes: the reference for its
    (k, trials) planes."""
    k = len(ds)
    zsq = z * z
    idx = np.arange(k)
    diff = ds[None] - ds[:, None]  # [j, i] = d_i - d_j
    diff[idx, idx] = np.inf  # leaves i = j out of S_j
    gap = np.diff(ds, axis=0, prepend=-np.inf, append=np.inf)
    c_d = corner - ds
    zsum = zsq.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norm = np.sqrt((ds * ds).sum(axis=0) + 2.0 * zsum + corner * corner)
        near = np.minimum(gap[:-1], gap[1:])
        slack = (k + 1) * ah.SWEEP_SLACK * (norm + zsum / near)
        b = c_d - (zsq / diff).sum(axis=1)

        def root(b):
            return 2.0 * zsq / (b + np.sqrt(b * b + 4.0 * zsq))

        hi = root(b) + slack
        lo = root(c_d - (zsq / (diff + hi[:, None])).sum(axis=1)) - slack
        top = (zsq / c_d).sum(axis=0)
        excess_slack = (k + 1) * ah.SWEEP_SLACK * (norm + top)
        excess_lo = (zsq / (c_d + top)).sum(axis=0) - excess_slack
        excess_hi = (zsq / (c_d + np.maximum(excess_lo, 0.0))).sum(axis=0) + excess_slack
    ok = ((z > 0).all(axis=0) & (c_d[-1] > 0) & (b > 0).all(axis=0)
          & (hi <= 0.5 * gap[:-1]).all(axis=0) & np.isfinite(lo).all(axis=0)
          & np.isfinite(excess_hi))
    return ok, lo, hi, excess_lo, excess_hi


# the at-threshold cells of one n in the full lemma-sweep profile
NINE_CELLS = [(mode, eps, 1.0) for mode in ("strong", "weak", "distinct")
              for eps in (0.05, 0.2, 1.0)]


class TestBoundAndVerify:
    """The sweeps' secular-equation filter against a dense solve of every
    trial."""

    @given(adversarial_chunks())
    # chunk 9 of the distinct sweep at n = 5, eps = 1.0, seed 11: a corner
    # of about 1e10, where LAPACK's rounding is far above MARGIN
    @example(("distinct", 5, 1.0, 1.0, [11, 9], set()))
    @settings(max_examples=150, deadline=None)
    def test_filter_matches_dense_reference(self, case):
        mode, n, eps, corner_fraction, seed, families = case
        d, a = adversarial_specs(n, seed, families)
        ref, dev, excess, corner = dense_stats(mode, d, a, eps, corner_fraction)
        with warnings.catch_warnings():
            # zero borders and clustered entries give 0/0 and x/0 in the
            # bounds of unsettled trials; none may warn
            warnings.simplefilter("error", RuntimeWarning)
            planes = ah._sorted_planes(d, a)
            assert ah._chunk_stats(mode, planes, eps, corner_fraction) == ref
            ok, lo, hi, excess_lo, excess_hi = plane_bounds(planes, corner)
        # every trial the bounds cover, which includes every settled one
        assert np.all(lo.T[ok] <= dev[ok]) and np.all(dev[ok] <= hi.T[ok])
        assert np.all(excess_lo[ok] <= excess[ok]) and np.all(excess[ok] <= excess_hi[ok])

    def test_trial_without_valid_upper_bounds_is_not_settled(self):
        # trial 1 has its corner below its top diagonal entry: its excess
        # bounds claim 1e-5, where the dense solve finds 0.1.  Trial 0 is
        # ok, and its lower bounds are above trial 1's upper ones, so
        # trial 1 would pass and be settled on them
        d = np.array([[0.0, 1.0], [0.0, 10.0]])
        a = np.array([[1.0, 1.0], [0.01, 1e-4]])
        corner, eps = np.array([3.0, 9.9]), np.array([0.9, 0.9])
        planes = ah._sorted_planes(d, a)
        ok, lo, hi, excess_lo, excess_hi = plane_bounds(planes, corner)
        _, excess, *_ = ah._concentration(
            "strong", d, ah._spectra(d, a, corner), corner, eps)
        assert ok.tolist() == [True, False]
        assert excess_hi[1] < 1e-4 < 0.09 < excess[1]
        assert hi[:, 1].max() < min(eps[1], lo[:, 0].max())
        assert excess_hi[1] < excess_lo[0]
        assert ah._settled(planes, corner, eps).tolist() == [False, False]

    @given(st.integers(1, 7).flatmap(lambda k: st.lists(
        st.lists(st.floats(-10.0, 10.0) | st.sampled_from([-1.0, 0.0, 2.5]),
                 min_size=k, max_size=k),
        min_size=1, max_size=6)))
    @settings(max_examples=100, deadline=None)
    def test_min_gap_equals_pairwise_minimum(self, rows):
        d = np.array(rows)
        i, j = np.triu_indices(d.shape[-1], k=1)
        pairwise = np.abs(d[:, i] - d[:, j]).min(axis=-1, initial=np.inf)
        np.testing.assert_array_equal(ah._min_gap(np.sort(d, axis=-1)), pairwise)

    def test_min_gap_cases(self):
        assert ah._min_gap(np.array([[3.0]])).tolist() == [np.inf]  # n = 2
        assert ah._min_gap(np.array([[-1.0, 2.0, 2.0]])).tolist() == [0.0]

    @given(adversarial_chunks())
    @example(("distinct", 5, 1.0, 1.0, [11, 9], set()))
    @settings(max_examples=100, deadline=None)
    def test_plane_sums_equal_cube_sums(self, case):
        # the planes add the terms of each S_j in the order in which the
        # cube's .sum(axis=1) did, so every output is the same, bit for bit
        mode, n, eps, corner_fraction, seed, families = case
        d, a = adversarial_specs(n, seed, families)
        planes = ah._sorted_planes(d, a)
        ds, z = planes.ds, planes.z
        if mode == "distinct":
            eps = np.minimum(eps, 0.5 * ah._min_gap(ds.T))
        corner = corner_fraction * ah._THRESHOLDS[mode](d, a, eps)
        for plane, cube in zip(plane_bounds(planes, corner), cube_bounds(ds, z, corner),
                               strict=True):
            np.testing.assert_array_equal(plane, cube)

    @given(adversarial_chunks())
    @example(("distinct", 5, 1.0, 1.0, [11, 9], set()))
    @settings(max_examples=100, deadline=None)
    def test_lazy_top_equals_full_maximum(self, case):
        # lo <= hi in floating point on the candidates, so the lower
        # bounds formed only where dev_hi can beat the best one give the
        # maximum over every trial with finite bounds, to the bit
        mode, n, eps, corner_fraction, seed, families = case
        d, a = adversarial_specs(n, seed, families)
        planes = ah._sorted_planes(d, a)
        if mode == "distinct":
            eps = np.minimum(eps, 0.5 * planes.min_gap)
        corner = corner_fraction * ah._THRESHOLDS[mode](d, a, eps)
        ok, lo, hi, _, _ = plane_bounds(planes, corner)
        _, candidates, _, slack, _, _ = ah._bounds(planes, corner)
        assert np.all(lo[:, ok] <= hi[:, ok])
        top = ah._top_lower(planes, corner, hi, slack, hi.max(axis=0), candidates)
        assert top == np.max(lo.max(axis=0), where=ok, initial=-np.inf)

    def test_excess_maximum_read_over_candidates_only(self):
        # trial 0 holds the batch's largest excess, and its deviations
        # stay below trial 1's lower bound.  Trial 2 has its corner below
        # its top diagonal entry, so its excess bounds are void: its
        # excess_lo of 9.9 lies above every true excess.  Read over every
        # trial, the largest excess_lo would settle trial 0, and the
        # dense solve of the others would miss its excess
        d = np.array([[-1.0, 0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.5, 5.0]])
        a = np.array([[1.8, 1.8, 1.8], [1.6, 1e-3, 1e-3], [1.0, 0.0, 0.7074]])
        corner, eps = np.array([10.0, 3.0, 4.9]), np.ones(3)
        planes = ah._sorted_planes(d, a)
        ok, lo, hi, excess_lo, excess_hi = plane_bounds(planes, corner)
        _, excess, *_ = ah._concentration(
            "strong", d, ah._spectra(d, a, corner), corner, eps)
        assert ok.tolist() == [True, True, False]
        assert excess.argmax() == 0 and excess_hi[0] < excess_lo[2]
        assert hi[:, 0].max() < lo[:, 1].max()
        settled = ah._settled(planes, corner, eps)
        assert settled.tolist() == [False, False, False]
        assert excess[~settled].max() == excess.max()

    @given(adversarial_chunks(), st.sampled_from([0.5, 1.0, 1.0 + 1e-12, 1.001, 2.0]))
    @example(("distinct", 5, 1.0, 1.0, [11, 9], set()), 1.001)
    @settings(max_examples=100, deadline=None)
    def test_certificate_keeps_dense_deviation_below_t_star(self, case, factor):
        # every trial with z > 0 and c > d_k, its t_star near its dense
        # sorted deviation (and at eps + MARGIN): what the certificate
        # settles lies below t_star
        mode, n, eps, corner_fraction, seed, families = case
        d, a = adversarial_specs(n, seed, families)
        planes = ah._sorted_planes(d, a)
        if mode == "distinct":
            eps = np.minimum(eps, 0.5 * planes.min_gap)
        corner = corner_fraction * ah._THRESHOLDS[mode](d, a, eps)
        dev = np.abs(np.sort(d) - ah._spectra(d, a, corner)[:, :-1]).max(axis=-1)
        slack = ah._bounds(planes, corner)[3]
        cols = np.flatnonzero(planes.zpos & (corner > planes.ds[-1]))
        for t_star in (factor * dev[cols],
                       np.broadcast_to(eps + ah.MARGIN, corner.shape)[cols]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                sure = ah._certified(planes, corner, slack, cols, t_star)
            assert np.all(dev[cols][sure] < t_star[sure])

    @staticmethod
    def void_root_batch():
        """Trial 0 has b_1 = c - d_1 - S_1(0) = 5 - 9 < 0, so no root
        bound; trial 1 is a candidate with lower bounds above trial 0's
        deviations and excess."""
        d = np.array([[0.0, 1.0], [0.0, 1.0]])
        a = np.array([[1.0, 3.0], [4.0, 1e-3]])
        return ah._sorted_planes(d, a), np.array([5.0, 4.0])

    def test_void_root_bound_trial_settled_by_certificate(self):
        planes, corner = self.void_root_batch()
        valid, candidates, *_ = ah._bounds(planes, corner)
        assert (corner - planes.ds - planes.s0)[0, 0] == -4.0
        assert valid.tolist() == [False, True] and candidates.tolist() == [False, True]
        assert ah._settled(planes, corner, np.ones(2)).tolist() == [True, False]

    def test_trial_near_its_root_is_not_certified(self):
        # t_star at the dense deviation of trial 0, or half a slack above
        # it, puts d_j - tau_j within the slack of lambda_j: not certified;
        # a thousandth above it is
        planes, corner = self.void_root_batch()
        d, a = planes.d, planes.a
        dev = np.abs(np.sort(d) - ah._spectra(d, a, corner)[:, :-1]).max(axis=-1)
        slack = ah._bounds(planes, corner)[3]
        cols = np.array([0])
        for t_star, sure in ((dev[0], False), (dev[0] + 0.5 * slack[0, 0], False),
                             (1.001 * dev[0], True)):
            assert ah._certified(planes, corner, slack, cols,
                                 np.array([t_star])).tolist() == [sure]
        # with eps + MARGIN at the deviation, _settled leaves it dense
        eps = np.array([dev[0] - ah.MARGIN, 1.0])
        assert ah._settled(planes, corner, eps).tolist() == [False, False]

    def test_certificate_sign_needs_its_rounding_bound(self, monkeypatch):
        # with no slack, tau = t_star = 0.444068135991338 lies at or below
        # the deviation t_2 = d_2 - lambda_2 (f(d_2 - tau) <= 0 in exact
        # rational arithmetic), yet the rounded sign of f at the float
        # where the certificate reads it is positive: only err refuses
        monkeypatch.setattr(ah, "SWEEP_SLACK", 0.0)
        c, d, z, tau = 4.187, [-0.33, 0.339], [0.706, 1.7], 0.444068135991338
        x = Fraction(d[1]) - Fraction(tau)
        assert Fraction(c) - x - sum(Fraction(zi) ** 2 / (Fraction(di) - x)
                                     for di, zi in zip(d, z)) <= 0
        lam = np.nextafter(d[1] - tau, np.inf)
        assert c - lam - z[0] * z[0] / (d[0] - lam) - z[1] * z[1] / (d[1] - lam) > 0
        planes, corner = ah._sorted_planes(np.array([d]), np.array([z])), np.array([c])
        slack = ah._bounds(planes, corner)[3]
        assert slack.tolist() == [[0.0], [0.0]]
        assert ah._certified(planes, corner, slack, np.array([0]),
                             np.array([tau])).tolist() == [False]

    def test_certificate_reads_f_above_d_minus_tau(self, monkeypatch):
        # with no slack, tau = t_star lies below the deviation t_1 (f(d_1 -
        # tau) <= 0 exactly), and fl(d_1 - tau) rounds below lambda_1,
        # where f is clearly positive: read there, the sign would certify
        # t_1 < tau; the float next above it lies above lambda_1
        monkeypatch.setattr(ah, "SWEEP_SLACK", 0.0)
        c, d, z, tau = 12.45, 10.0, 0.1, 0.004074855328185378
        x = Fraction(d) - Fraction(tau)
        assert Fraction(c) - x - Fraction(z) ** 2 / (Fraction(d) - x) <= 0
        below = d - tau
        assert Fraction(below) < x
        assert c - below - z * z / (d - below) > 1e-13
        planes, corner = ah._sorted_planes(np.array([[d]]), np.array([[z]])), np.array([c])
        slack = ah._bounds(planes, corner)[3]
        assert ah._certified(planes, corner, slack, np.array([0]),
                             np.array([tau])).tolist() == [False]

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_zero_border_trials_settled_soundly(self, fraction):
        # one z_j = 0 in every trial: d_j is then an eigenvalue and f has
        # no pole there.  As _settled reads zpos, and with zpos taken true
        # for every trial (the inertia argument of _certified needs no
        # z > 0), no settled trial fails its dense verdict and both batch
        # maxima lie among the trials left to the dense solve
        settled_zero_border = 0
        for n in range(3, 9):
            rng = np.random.default_rng([7, n])
            d, a = ah._draw_specs(n, ah._CHUNK, rng)
            a[np.arange(len(a)), rng.integers(0, n - 1, len(a))] = 0.0
            planes = ah._sorted_planes(d, a)
            assert not planes.zpos.any()
            unchecked = dataclasses.replace(planes, zpos=np.ones_like(planes.zpos))
            for mode in ("strong", "weak", "distinct"):
                for eps in (0.05, 0.1, 0.2, 0.5, 1.0):
                    if mode == "distinct":
                        eps = np.minimum(eps, 0.5 * planes.min_gap)
                    corner = fraction * ah._growth(mode, *planes.weights, eps)
                    eps = np.broadcast_to(eps, corner.shape)
                    dev, excess, deviation_ok, excess_ok, _ = ah._concentration(
                        mode, d, ah._spectra(d, a, corner), corner, eps)
                    passed = deviation_ok.all(axis=-1) & excess_ok
                    for p in (planes, unchecked):
                        settled = ah._settled(p, corner, eps)
                        assert passed[settled].all()
                        assert dev[~settled].max() == dev.max()
                        assert excess[~settled].max() == excess.max()
                    settled_zero_border += np.count_nonzero(settled)
        assert settled_zero_border > 0  # the unchecked planes settle some

    def test_full_profile_counts(self, monkeypatch):
        # the at-threshold cells of the full profile, seed 0: 441 batch
        # cells, one eigvalsh call each.  4,360 dense matrices (14,241
        # when every trial with a void root bound went dense) and 10,155
        # lower-bounded trials (630,000 when every trial was)
        exact, lower = np.linalg.eigvalsh, ah._lower
        counts = {"calls": 0, "matrices": 0, "lower": 0}

        def counting(mats):
            counts["calls"] += 1
            counts["matrices"] += len(mats)
            return exact(mats)

        def counted_lower(p, corner, hi, slack, cols):
            lo = lower(p, corner, hi, slack, cols)
            counts["lower"] += lo.shape[1]
            return lo

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(ah, "_lower", counted_lower)
        for n in range(2, 9):
            assert all(s.violations == 0 for s in ah.sweep_cells(n, NINE_CELLS, 10_000, 0))
        assert counts["calls"] == 441
        assert counts["matrices"] <= 5_000 and counts["lower"] <= 20_000, counts

    @pytest.mark.parametrize("mode", ["strong", "weak", "distinct"])
    def test_rows_do_not_depend_on_the_batch(self, mode, monkeypatch):
        # 2,600 trials: five whole chunks and a part; batches of one chunk,
        # the default and one batch for the whole sweep
        def rows():
            return [s.csv_row() for n in range(2, 9)
                    for s in ah.sweep_cells(n, [(mode, eps, fraction)
                                                for eps in (0.05, 1.0)
                                                for fraction in (1.0, 0.5)],
                                            2600, 3)]

        default = rows()
        for budget in (1, 10**9):
            monkeypatch.setattr(ah, "_BATCH", budget)
            assert rows() == default, budget

    @pytest.mark.parametrize("mode", ["strong", "weak", "distinct"])
    def test_rows_do_not_depend_on_the_dense_blocks(self, mode, monkeypatch):
        # dense blocks of one matrix and of at most 200 entries: each
        # matrix is solved alone and the maxima are exact, so every row is
        # the same; no _spectra call takes more than its block
        sizes, inner = [], ah._spectra

        def spy(d, a_off, corner):
            sizes.append(len(d) * (d.shape[-1] + 1) ** 2)
            return inner(d, a_off, corner)

        def rows():
            sizes.clear()
            return [s.csv_row() for n in (2, 5, 8)
                    for s in ah.sweep_cells(n, [(mode, eps, fraction)
                                                for eps in (0.05, 1.0)
                                                for fraction in (1.0, 0.5)],
                                            2600, 3)]

        monkeypatch.setattr(ah, "_spectra", spy)
        default, calls = rows(), len(sizes)
        for budget in (1, 200):
            monkeypatch.setattr(ah, "_DENSE_ENTRIES", budget)
            assert rows() == default, budget
            assert max(sizes) <= max(budget, 64) and len(sizes) > calls

    def test_sweep_memory_stays_bounded(self):
        # tracemalloc peaks (numpy 2.4.6): 0.86 MB on both one-cell sweeps
        # and 0.87 MB on the nine cells of n = 8 swept together, in
        # batches of two chunks whose planes every cell reads (0.89 and
        # 0.90 MB when every trial had its lower bounds formed, 0.82 MB
        # when each cell drew and sorted its own); 1.09 MB with the sums
        # over (k, k, trials) cubes, one chunk at a time
        ah.sweep_at_threshold("strong", 8, 0.05, 600, 0)
        sweeps = {
            "strong": lambda: ah.sweep_at_threshold("strong", 8, 0.05, 10_000, 0),
            "weak": lambda: ah.sweep_at_threshold("weak", 8, 1.0, 10_000, 0),
            "nine cells": lambda: ah.sweep_cells(8, NINE_CELLS, 10_000, 0),
        }
        for name, sweep in sweeps.items():
            tracemalloc.start()
            try:
                sweep()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.0e6, (name, peak)

    def test_full_profile_cell_solves_few_matrices(self, monkeypatch):
        # strong, n = 8, eps = 0.05: the 10,000 trials of seed 0 in 20
        # chunks, verified in 10 batches of two chunks, one eigvalsh call
        # each.  The filter sends 26 of them to the dense solver (42
        # without the secular-sign certificate; measured); a dense solve
        # of every trial would take 10,000.
        exact = np.linalg.eigvalsh
        solved = []

        def counting(mats):
            solved.append(len(mats))
            return exact(mats)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        s = ah.sweep_at_threshold("strong", 8, 0.05, 10000, 0)
        assert s.violations == 0 and len(solved) == 10
        assert sum(solved) <= 100

    def test_cells_of_one_n_share_each_batch(self, monkeypatch):
        # the nine at-threshold cells of n = 8 in the full profile: 20
        # chunks in 10 batches, each drawn and sorted once for all nine
        # cells (180 draws and 90 sorts when each cell drew its own); the
        # dense solves stay one per cell and batch
        calls = {"draws": 0, "planes": 0, "eigvalsh": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ah, "_draw_specs", counted("draws", ah._draw_specs))
        monkeypatch.setattr(ah, "_sorted_planes", counted("planes", ah._sorted_planes))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        summaries = ah.sweep_cells(8, NINE_CELLS, 10_000, 0)
        assert [(s.mode, s.eps, s.corner_fraction) for s in summaries] == NINE_CELLS
        assert all(s.violations == 0 for s in summaries)
        assert calls == {"draws": 20, "planes": 10, "eigvalsh": 90}

    def test_grouped_rows_equal_one_cell_rows(self):
        # every mode, fractions 1.0 and 0.5, two eps, a repeated cell; 1,100
        # trials are two whole chunks and a part
        cells = [(mode, eps, fraction) for mode in ("strong", "weak", "distinct")
                 for eps in (0.05, 1.0) for fraction in (1.0, 0.5)]
        cells.append(cells[3])

        def one_cell(n, mode, eps, fraction):
            if fraction == 1.0:
                return ah.sweep_at_threshold(mode, n, eps, 1100, 5)
            if mode == "strong":
                return ah.sweep_below_threshold(n, eps, 1100, 5, fraction)
            return ah.sweep_cells(n, [(mode, eps, fraction)], 1100, 5)[0]

        for n in range(2, 9):
            grouped = ah.sweep_cells(n, cells, 1100, 5)
            assert grouped == [one_cell(n, *cell) for cell in cells], n

    def test_cells_validated_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(ah, "_draw_specs", None)  # a draw would fail
        with pytest.raises(ValueError, match="unknown sweep mode 'mild'"):
            ah.sweep_cells(3, [("strong", 0.1, 1.0), ("mild", 0.1, 1.0)], 10, 0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            ah.sweep_cells(3, [("strong", 0.1, 1.0)], 0, 0)


class TestSharedVerdict:
    """The per-spec checks and the sweeps share one stacked verdict."""

    @pytest.mark.parametrize("mode", ["strong", "weak", "distinct"])
    def test_stacked_rows_equal_single_specs(self, mode):
        rng = np.random.default_rng(5)
        d, a = ah._draw_specs(4, 50, rng)
        corner = ah._THRESHOLDS[mode](d, a, 0.2) * rng.uniform(0.5, 2.0, 50)
        lam = np.linalg.eigvalsh(ah._assemble(d, a, corner))
        stacked = ah._concentration(mode, d, lam, corner, 0.2)
        for k in range(50):
            single = ah._concentration(mode, d[k], lam[k], corner[k], 0.2)
            for s_row, one in zip(stacked, single):
                if one is not None:
                    np.testing.assert_array_equal(s_row[k], one)

    def test_weak_excess_bound_counts_unmatched_entries(self):
        # both small eigenvalues match d = 0, so the excess bound grows by
        # |sum(d) - sum(d_matched)| = 0.1 over (n-1) eps = 2
        d, corner = np.array([0.0, 0.1]), 50.0
        for excess, ok in ((2.05, True), (2.15, False)):
            lam = np.array([-0.01, 0.02, corner + excess])
            _, _, deviation_ok, excess_ok, matched = ah._concentration(
                "weak", d, lam, corner, 1.0)
            assert matched.tolist() == [0, 0] and deviation_ok.all()
            assert excess_ok == ok

    @pytest.mark.parametrize("check", [
        ah.check_concentration_strong,
        ah.check_concentration_weak,
        ah.check_concentration_distinct,
    ])
    def test_broken_trace_identity_raises(self, check, monkeypatch):
        spec = ah.ArrowheadSpec(d=[0.0, 2.0], a_off=[1.0, 1.0], corner=60.0)
        assert check(spec, 0.5).passed
        exact = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: exact(m) + 1e-6)
        with pytest.raises(ArithmeticError, match="trace identity"):
            check(spec, 0.5)

    def test_failing_bounds_reported(self, monkeypatch):
        # a spectrum shifted by trace-neutral amounts keeps the safety
        # checks quiet, so only the verdict can catch it
        spec = ah.ArrowheadSpec(d=[0.0, 2.0], a_off=[0.0, 0.0], corner=60.0)
        exact = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: exact(m) + np.array([-0.6, -0.6, 1.2]))
        rep = ah.check_concentration_strong(spec, 0.5)
        assert not rep.passed
        assert rep.deviation_ok.tolist() == [False, False] and not rep.excess_ok
