"""Acceptance suite: one test per criterion, printed pass line included.

Scales and tolerances are pinned here; nothing defers to later
calibration.  The heavy manufactured-solution case runs the linear kind
by default; set HESSIANCONE_PROFILE=full to also run the Monge-Ampere
kind at both grids (adds ~10 minutes).
"""

import os
import time

import numpy as np
import pytest

from hessiancone import arrowhead as ah
from hessiancone import cones as cn
from hessiancone import presets as pr
from hessiancone import solve as sv
from hessiancone.cli import main as cli_main
from hessiancone.geometry import CylinderGeometry, GridGeometry

SEED = 20240811
PROFILE = os.environ.get("HESSIANCONE_PROFILE", "fast")

CONE_KINDS = ("sigma1", "sigmaK:2", "ma", "quotient:1:2")


def _announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_01_strong_concentration_sweep():
    t0 = time.time()
    worst = 0.0
    violations = 0
    for n in range(2, 9):
        for eps in (0.05, 0.2, 1.0):
            s = ah.sweep_at_threshold("strong", n, eps, trials=10_000,
                                      seed=SEED)
            violations += s.violations
            worst = max(worst, s.max_dev / eps)
    elapsed = time.time() - t0
    _announce(
        1, violations == 0 and elapsed < 120,
        f"strong sweep 7n x 3eps x 1e4: {violations} violations, "
        f"max dev/eps {worst:.3f}, {elapsed:.0f}s",
    )


def test_criterion_02_weak_and_distinct_sweeps():
    t0 = time.time()
    violations = 0
    for mode in ("weak", "distinct"):
        for n in range(2, 9):
            for eps in (0.05, 0.2, 1.0):
                s = ah.sweep_at_threshold(mode, n, eps, trials=10_000,
                                          seed=SEED + 1)
                violations += s.violations
    elapsed = time.time() - t0
    _announce(
        2, violations == 0 and elapsed < 120,
        f"weak+distinct sweeps: {violations} violations, {elapsed:.0f}s",
    )


def test_criterion_03_deflation_multisets():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 8))
        d = rng.uniform(-10, 10, n - 1)
        i, j = rng.choice(n - 1, size=2, replace=False)
        d[j] = d[i]
        mod = rng.uniform(0, 10, n - 1)
        ph = rng.uniform(0, 2 * np.pi, n - 1)
        spec = ah.ArrowheadSpec(d=d, a_off=mod * np.exp(1j * ph),
                                corner=float(rng.uniform(-10, 10)))
        val, red = ah.deflate_repeated(spec)
        full = np.linalg.eigvalsh(ah._assemble(spec.d, spec.a_off, spec.corner))
        merged = np.sort(np.concatenate(
            [np.linalg.eigvalsh(ah._assemble(red.d, red.a_off, red.corner)), [val]]
        ))
        worst = max(worst, float(np.abs(full - merged).max()))
    _announce(3, worst <= 1e-9, f"deflation multiset agreement {worst:.2e}")


def test_criterion_04_cone_suite():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 3)
    n = 3
    failures = []
    for name in CONE_KINDS:
        fun = cn.parse_kind(name, n)

        def draw():
            while True:
                lam = rng.uniform(-3.0, 3.0, n) + 1.0
                if cn.in_cone(fun, lam):
                    return lam

        max_fd = 0.0
        for _ in range(1000):
            lam, mu = draw(), draw()
            g = cn.f_grad(fun, lam)
            if not np.all(g > 0):
                failures.append((name, "gradient"))
            f_lam, f_mu = cn.f_eval(fun, lam), cn.f_eval(fun, mu)
            if not cn.f_many(fun, 0.5 * (lam + mu)) >= 0.5 * (f_lam + f_mu) - 1e-10:
                failures.append((name, "midpoint"))
            if not float(g @ (mu - lam)) >= f_mu - f_lam - 1e-10:
                failures.append((name, "gradient-form"))
            s = float(g @ lam)
            if s <= 0 or abs(s - f_lam) > 1e-9 * (1 + abs(f_lam)):
                failures.append((name, "euler"))
            fd = cn.fd_grad(fun, lam)
            max_fd = max(max_fd, float(np.abs(fd - g).max() / np.abs(g).max()))
        if max_fd > 1e-5:
            failures.append((name, f"fd {max_fd:.2e}"))
        # gradient-sum bound at sampled level-set points
        for _ in range(1000):
            lam = draw()
            sigma = float(rng.uniform(0.2, 4.0))
            point = cn.make_level_set_point(fun, lam, sigma)
            c0 = cn.ray_intersect(fun, np.ones(n), sigma)
            for t in (0.5, 1.0, 2.0, 1.0 + c0):
                if not cn.check_fi_sum_bound(fun, point, t):
                    failures.append((name, f"fi-sum t={t}"))
    elapsed = time.time() - t0
    _announce(
        4, not failures and elapsed < 60,
        f"cone suite over {CONE_KINDS}: failures={failures[:3]}, {elapsed:.0f}s",
    )


def test_criterion_05_ray_property():
    rng = np.random.default_rng(SEED + 4)
    bad = 0
    for name in CONE_KINDS:
        fun = cn.parse_kind(name, 3)
        count = 0
        while count < 25:
            lam = rng.uniform(-3.0, 3.0, 3) + 1.0
            if not cn.in_cone(fun, lam):
                continue
            count += 1
            sigma = float(rng.uniform(0.2, 5.0))
            t = cn.ray_intersect(fun, lam, sigma)
            if abs(cn.f_many(fun, t * lam) - sigma) > 1e-10 * (1 + abs(sigma)):
                bad += 1
            ts = np.geomspace(t / 64, t * 64, 41)
            signs = np.sign([cn.f_many(fun, s * lam) - sigma for s in ts])
            signs = signs[signs != 0]
            if np.count_nonzero(np.diff(signs) != 0) != 1:
                bad += 1
    _announce(5, bad == 0, f"ray solves on 100 samples: {bad} defects")


def test_criterion_06_trivial_solve_16():
    t0 = time.time()
    geom = GridGeometry(n=2, resolution=16)
    fun = cn.monge_ampere(2)
    prob = pr.build_problem(geom, fun, "one", "zero", "zero")
    u, rep = sv.continuity_solve(fun, prob.chi, prob.psi, prob.phi, prob.u_sub)
    elapsed = time.time() - t0
    ok = (rep.final_residual <= 1e-8 and rep.sup_u <= 1e-8
          and rep.comparison_violations == 0 and elapsed < 60)
    _announce(
        6, ok,
        f"trivial 16^4: residual {rep.final_residual:.1e}, sup|u| "
        f"{rep.sup_u:.1e}, violations {rep.comparison_violations}, {elapsed:.0f}s",
    )


def _manufactured_orders(fun, resolutions):
    errs = {}
    viol = 0
    tail_ok = True
    for m in resolutions:
        geom = GridGeometry(n=2, resolution=m)
        prob = pr.build_problem(geom, fun, "manufactured", "zero", "star-bump")
        u, rep = sv.continuity_solve(fun, prob.chi, prob.psi, prob.phi,
                                     prob.u_sub)
        errs[m] = float(np.abs(u.values - prob.u_star.values).max())
        viol += rep.comparison_violations
        ratios = sv.newton_tail_ratios(rep.stage, count=2)
        tail_ok &= bool(ratios) and all(r >= 10.0 for r in ratios)
    order = float(np.log2(errs[resolutions[0]] / errs[resolutions[1]]))
    return order, viol, tail_ok


def test_criterion_07_manufactured_convergence():
    t0 = time.time()
    order1, viol1, tail1 = _manufactured_orders(cn.sigma_k_root(2, 1), (16, 32))
    details = [f"sigma1 order {order1:.2f}"]
    ok = 1.7 <= order1 <= 2.3 and viol1 == 0 and tail1
    if PROFILE == "full":
        order2, viol2, tail2 = _manufactured_orders(cn.monge_ampere(2), (16, 32))
        details.append(f"ma order {order2:.2f}")
        ok = ok and 1.7 <= order2 <= 2.3 and viol2 == 0 and tail2
    elapsed = time.time() - t0
    budget = 180 if PROFILE == "fast" else 1800
    ok = ok and elapsed < budget
    _announce(
        7, ok,
        f"{'; '.join(details)}, profile {PROFILE}, 0 violations required, "
        f"newton tail >=10x, {elapsed:.0f}s",
    )


def test_criterion_08_boundary_ratio_bounded():
    t0 = time.time()
    geom = GridGeometry(n=2, resolution=16)
    fun = cn.monge_ampere(2)
    ratios = {}
    viol = 0
    for s in (1.0, 2.0, 4.0, 8.0):
        prob = pr.build_problem(geom, fun, "one", "scaled-cos", "scaled-cos",
                                scale=s)
        u, rep = sv.continuity_solve(fun, prob.chi, prob.psi, prob.phi,
                                     prob.u_sub)
        ratios[s] = rep.boundary_ratio
        viol += rep.comparison_violations
    spread = max(ratios.values()) / min(ratios.values())
    elapsed = time.time() - t0
    _announce(
        8, spread <= 10.0 and viol == 0 and elapsed < 1200,
        f"boundary ratios {['%.3f' % ratios[s] for s in (1, 2, 4, 8)]}, "
        f"spread {spread:.2f} <= 10, {elapsed:.0f}s",
    )


def test_criterion_09_degenerate_sweep():
    t0 = time.time()
    geom = GridGeometry(n=2, resolution=16)
    fun = cn.monge_ampere(2)
    prob = pr.build_problem(geom, fun, "degenerate-cos", "zero", "zero")
    assert float(cn.delta_nondegeneracy(fun, prob.psi.values.ravel())) == 0.0
    rows = sv.degenerate_sweep(fun, prob.chi, prob.psi, prob.phi, prob.u_sub,
                               [1e-1, 1e-2, 1e-3])
    laps = [r["sup_lap"] for r in rows]
    ok = (all(r["converged"] for r in rows)
          and rows[0]["delta0"] >= 0.5
          and max(laps) / min(laps) <= 2.0)
    elapsed = time.time() - t0
    _announce(
        9, ok and elapsed < 1200,
        f"degenerate eps sweep: sup|lap| {['%.3f' % v for v in laps]}, "
        f"spread {max(laps) / min(laps):.2f} <= 2, delta0 "
        f"{rows[0]['delta0']:.2f}, {elapsed:.0f}s",
    )


def test_criterion_10_riemannian_variant():
    fun = cn.monge_ampere(3)
    errs = {}
    tang_ok = True
    viol = 0
    for m in (16, 32):
        geom = CylinderGeometry(d=3, resolution=m)
        prob = pr.build_problem(geom, fun, "manufactured", "zero", "star-bump")
        u, rep = sv.solve_riemannian(fun, prob.chi, prob.psi, prob.phi,
                                     prob.u_sub)
        errs[m] = float(np.abs(u.values - prob.u_star.values).max())
        tang_ok &= rep.boundary_tangential_min >= -10.0 * geom.h**2
        viol += rep.comparison_violations
    order = float(np.log2(errs[16] / errs[32]))
    _announce(
        10, 1.7 <= order <= 2.3 and tang_ok and viol == 0,
        f"cylinder order {order:.2f}, tangential monotonicity holds",
    )


def test_criterion_11_cli_determinism(tmp_path):
    jobs = [
        ("lemma-sweep", "ns = 2 3\neps = 0.2\ntrials = 200\n",
         ["lemma_strong.csv", "lemma_weak.csv", "lemma_distinct.csv"]),
        ("cone-check", "n = 3\nkinds = sigma1,ma\nsamples = 40\n",
         ["cone_check.csv"]),
        ("solve",
         "resolution = 8\nkind = ma\npsi = manufactured\n"
         "subsolution = star-bump\ndump_fields = raw\n",
         ["report.csv", "error.csv", "u.raw"]),
        ("boundary-scaling", "resolution = 8\nscales = 1 4\n",
         ["boundary_scaling.csv"]),
        ("degenerate", "resolution = 8\neps_list = 0.1 0.01\n",
         ["degenerate.csv"]),
    ]
    identical = True
    for command, cfg_text, files in jobs:
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(cfg_text)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            code = cli_main([
                command, "--config", str(cfg), "--seed", "17",
                "--out", str(out), "--profile", "fast",
            ])
            assert code == 0, command
            outs.append(out)
        for name in files:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                identical = False
    _announce(11, identical, "repeated CLI runs byte-identical")
