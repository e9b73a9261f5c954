"""CLI subcommands: outputs, provenance headers, exit codes, determinism."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hessiancone import arrowhead, cli
from hessiancone import cones as cn
from hessiancone import solve as sv
from hessiancone.cli import main
from hessiancone.linsolve import LinearSolveError


def run(tmp_path, command, cfg_text="", seed=0, profile="fast", sub="out"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / sub
    code = main([
        command, "--config", str(cfg), "--seed", str(seed),
        "--out", str(out), "--profile", profile,
    ])
    return code, out


# lemma-sweep --profile full at seed 0 with corner_fractions = 1.0 0.5:
# 21 rows per file
FULL_PROFILE_SHA256 = {
    "lemma_strong.csv": "e4d0c19dd2bf0ed1eb3e2d0fefb895e571984b1dce73a5128f542686abf541bb",
    "lemma_weak.csv": "7b03785072364038da5e286d8fea8bb266f27dc3900cd134e24627db20c9ace3",
    "lemma_distinct.csv": "7a1b417f1b5de6272445aeb6bdd8c089c98f3e7f443d7cd79c99142cdcd3e890",
    "below_threshold.csv": "d4c7e102c8416884931aba58ee3fd73ed4e391022bfa9c4c9ecd3b5465c20f76",
}


class TestLemmaSweep:
    def test_small_sweep_no_violations(self, tmp_path):
        code, out = run(tmp_path, "lemma-sweep",
                        "ns = 2 3\neps = 0.2\ntrials = 300\n")
        assert code == 0
        for mode in ("strong", "weak", "distinct"):
            lines = (out / f"lemma_{mode}.csv").read_text().splitlines()
            assert lines[0].startswith("# hessiancone=")
            assert lines[1] == "n,eps,corner_fraction,max_dev,max_excess,violations"
            assert all(row.endswith(",0") for row in lines[2:])

    def test_below_threshold_rows(self, tmp_path):
        code, out = run(
            tmp_path, "lemma-sweep",
            "ns = 2\neps = 0.1\ntrials = 200\ncorner_fractions = 1.0 0.5\n",
        )
        assert code == 0  # observation rows never gate the exit code
        body = (out / "below_threshold.csv").read_text().splitlines()[2:]
        assert all(",0.5," in row for row in body)

    def test_byte_identical_rerun(self, tmp_path):
        cfg = "ns = 2 3\neps = 0.05 1.0\ntrials = 250\n"
        _, out1 = run(tmp_path, "lemma-sweep", cfg, seed=9, sub="a")
        _, out2 = run(tmp_path, "lemma-sweep", cfg, seed=9, sub="b")
        for mode in ("strong", "weak", "distinct"):
            assert (out1 / f"lemma_{mode}.csv").read_bytes() == \
                (out2 / f"lemma_{mode}.csv").read_bytes()

    def test_full_profile_rows_pinned(self, tmp_path):
        # every row of the full profile at seed 0, as the SHA-256 of each
        # file's data rows joined by newlines
        code, out = run(tmp_path, "lemma-sweep", "corner_fractions = 1.0 0.5\n",
                        profile="full")
        assert code == 0
        digests = {
            name: hashlib.sha256(
                "\n".join((out / name).read_text().splitlines()[2:]).encode()
            ).hexdigest()
            for name in FULL_PROFILE_SHA256
        }
        assert digests == FULL_PROFILE_SHA256

    def test_stderr_empty(self, tmp_path):
        # the sweeps' bound evaluation divides by zero and by inf on some
        # trials; no RuntimeWarning may reach the terminal
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ns = 2 5 8\ntrials = 600\ncorner_fractions = 1.0 0.5\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-W", "default", "-m", "hessiancone", "lemma-sweep",
             "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0
        assert out.stderr == ""


# cone-check rows at seed 0, 40 samples, kinds sigma1,sigmaK:2,ma,quotient:1:2:
# per kind, 80 cone points taken as (lam, mu) pairs, then 4 level points,
# then the 4 level sigmas, from one stream across the kinds
SEED0_ROWS = [
    "sigma1,gradient_positivity,40,0,",
    "sigma1,concavity_midpoint,40,0,",
    "sigma1,concavity_gradient,40,0,",
    "sigma1,euler_identity,40,0,",
    "sigma1,fd_gradient,40,0,0.0",
    "sigma1,ray_unique,40,0,",
    "sigma1,fi_sum_bound,40,0,0.1789611256303858",
    "sigmaK:2,gradient_positivity,40,0,",
    "sigmaK:2,concavity_midpoint,40,0,",
    "sigmaK:2,concavity_gradient,40,0,",
    "sigmaK:2,euler_identity,40,0,",
    "sigmaK:2,fd_gradient,40,0,3.6368380614742844e-16",
    "sigmaK:2,ray_unique,40,0,",
    "sigmaK:2,fi_sum_bound,40,0,0.550564748190864",
    "sigmaK:2,gap_epsprime_min,25,0,0.06817225124850468",
    "sigmaK:2,gap_epsprime_median,25,0,0.20790100113392035",
    "sigmaK:2,gap_epsprime_max,25,0,0.7177709396522456",
    "ma,gradient_positivity,40,0,",
    "ma,concavity_midpoint,40,0,",
    "ma,concavity_gradient,40,0,",
    "ma,euler_identity,40,0,",
    "ma,fd_gradient,40,0,4.107528150800392e-16",
    "ma,ray_unique,40,0,",
    "ma,fi_sum_bound,40,0,0.6880936638936794",
    "ma,gap_epsprime_min,35,0,0.02647851078324244",
    "ma,gap_epsprime_median,35,0,0.11700189205481952",
    "ma,gap_epsprime_max,35,0,0.7802303198314169",
    "quotient:1:2,gradient_positivity,40,0,",
    "quotient:1:2,concavity_midpoint,40,0,",
    "quotient:1:2,concavity_gradient,40,0,",
    "quotient:1:2,euler_identity,40,0,",
    "quotient:1:2,fd_gradient,40,0,5.33445416562768e-16",
    "quotient:1:2,ray_unique,40,0,",
    "quotient:1:2,fi_sum_bound,40,0,0.7448316818951546",
    "quotient:1:2,gap_epsprime_min,33,0,0.027460628432043416",
    "quotient:1:2,gap_epsprime_median,33,0,0.13685603985076805",
    "quotient:1:2,gap_epsprime_max,33,0,0.3314440370403629",
]


class TestConeCheck:
    def test_all_pass(self, tmp_path):
        code, out = run(tmp_path, "cone-check",
                        "n = 3\nkinds = sigma1,ma\nsamples = 60\n")
        assert code == 0
        text = (out / "cone_check.csv").read_text()
        assert "sigma1,gradient_positivity,60,0," in text
        assert "ma,euler_identity,60,0," in text
        assert "gap_epsprime_min" in text

    def test_nan_finite_difference_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cn, "fd_grad", lambda fun, lam: np.full(lam.shape, np.nan))
        code, out = run(tmp_path, "cone-check",
                        "n = 3\nkinds = sigma1\nsamples = 20\n")
        assert code == 1
        assert "sigma1,fd_gradient,20,20," in (out / "cone_check.csv").read_text()

    def test_non_positive_gradient_counted(self, tmp_path, monkeypatch):
        grad_many = cn.grad_many

        def one_bad_sample(fun, lam):
            g = grad_many(fun, lam)
            if g.shape == (20, 3):
                g[7, 1] = -g[7, 1]
            return g

        monkeypatch.setattr(cn, "grad_many", one_bad_sample)
        code, out = run(tmp_path, "cone-check",
                        "n = 3\nkinds = sigma1\nsamples = 20\n")
        assert code == 1
        assert "sigma1,gradient_positivity,20,1," in (out / "cone_check.csv").read_text()

    def test_seed0_rows_pinned(self, tmp_path):
        # the draw order (pairs, then level points, then level sigmas) and
        # the values of every check at seed 0
        code, out = run(tmp_path, "cone-check",
                        "n = 3\nkinds = sigma1,sigmaK:2,ma,quotient:1:2\n"
                        "samples = 40\n")
        assert code == 0
        assert (out / "cone_check.csv").read_text().splitlines()[2:] == SEED0_ROWS

    @pytest.mark.parametrize("name, n", [
        *[(kind, 3) for kind in ("sigma1", "sigmaK:2", "sigmaK:3", "ma",
                                 "quotient:1:2", "quotient:1:3",
                                 "quotient:2:3")],
        ("ma", 8),  # acceptance (2/3)^8, about 4%: the blocks fall short and grow
    ])
    def test_draw_gives_count_cone_points_per_seed(self, name, n):
        fun = cn.parse_kind(name, n)
        for count in (1, 7, 120):
            lam = cli._draw_in_cone(fun, count, np.random.default_rng(12))
            assert lam.shape == (count, n)
            assert cn.in_cone(fun, lam).all()
            np.testing.assert_array_equal(
                cli._draw_in_cone(fun, count, np.random.default_rng(12)), lam)

    @pytest.mark.parametrize("seed", range(10))
    def test_default_config_passes_at_seed(self, tmp_path, seed):
        # the benchmark's cone config: n = 3, the default kinds, 1000 samples
        code, out = run(tmp_path, "cone-check", seed=seed)
        assert code == 0
        rows = (out / "cone_check.csv").read_text().splitlines()[2:]
        assert len(rows) == 37 and all(r.split(",")[3] == "0" for r in rows)

    def test_over_budget_draw_refused_soon(self, tmp_path, capsys, monkeypatch):
        # ma at n = 17 keeps about 1 in 985 candidates, more than 1 in
        # CONE_ODDS, and 14,513 samples fit the entry cap; their 29,026
        # cone points need about 2.9e7 candidates, above CONE_BUDGET, as
        # the first block's acceptance shows: refused after one block
        blocks, in_cone = [], cn.in_cone

        def counted(fun, lam):
            blocks.append(len(lam))
            return in_cone(fun, lam)

        monkeypatch.setattr(cn, "in_cone", counted)
        code, out = run(tmp_path, "cone-check", "n = 17\nkinds = ma\nsamples = 14513\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: samples: ma at n = 17 ")
        assert err.count("\n") == 1 and f"more than {cli.CONE_BUDGET} " in err
        assert not out.exists()
        assert blocks == [4 * 2 * 14513]

    def test_budget_leaves_the_draws_it_admits(self, monkeypatch):
        # ma at n = 6 keeps about 9% of its candidates, so 200 points take
        # about 2,300: a budget of 5 per point refuses the draw once its
        # first block (800 candidates) falls short; one of 20 per point
        # admits it, drawn as with the default budget, stream and all
        fun = cn.parse_kind("ma", 6)
        ref_rng = np.random.default_rng(4)
        ref = cli._draw_in_cone(fun, 200, ref_rng)
        monkeypatch.setattr(cli, "CONE_TRIES", 64)
        monkeypatch.setattr(cli, "CONE_BUDGET", 5 * 200)
        with pytest.raises(cli.ConfigError, match="would take more than 1000 "):
            cli._draw_in_cone(fun, 200, np.random.default_rng(4))
        monkeypatch.setattr(cli, "CONE_BUDGET", 20 * 200)
        rng = np.random.default_rng(4)
        np.testing.assert_array_equal(cli._draw_in_cone(fun, 200, rng), ref)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("samples", [1, 1000])
    def test_scarce_cone_refused_soon(self, tmp_path, capsys, monkeypatch,
                                      samples):
        # ma keeps (2/3)^50 of the uniform candidates, about 2e-9: the draw
        # gives up after cli.CONE_TRIES of them, in few blocks even for
        # one sample, and sigma1's rows, drawn first, are not written
        blocks, in_cone = [], cn.in_cone

        def counted(fun, lam):
            blocks.append(fun.label)
            return in_cone(fun, lam)

        monkeypatch.setattr(cn, "in_cone", counted)
        code, out = run(tmp_path, "cone-check",
                        f"n = 50\nkinds = sigma1,ma\nsamples = {samples}\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "ma at n = 50" in err
        assert not out.exists()
        assert 0 < blocks.count("ma") <= 16

    def test_kinds_separated_by_spaces_or_commas(self, tmp_path):
        _, out1 = run(tmp_path, "cone-check", "kinds = sigma1 ma\nsamples = 20\n",
                      sub="a")
        _, out2 = run(tmp_path, "cone-check", "kinds = sigma1, ma\nsamples = 20\n",
                      sub="b")
        rows = [(out / "cone_check.csv").read_text().splitlines()[1:]
                for out in (out1, out2)]
        assert rows[0] == rows[1] and rows[0][1].startswith("sigma1,")

    def test_byte_identical_rerun(self, tmp_path):
        cfg = "n = 3\nkinds = quotient:1:2\nsamples = 40\n"
        _, out1 = run(tmp_path, "cone-check", cfg, seed=4, sub="a")
        _, out2 = run(tmp_path, "cone-check", cfg, seed=4, sub="b")
        assert (out1 / "cone_check.csv").read_bytes() == \
            (out2 / "cone_check.csv").read_bytes()


# solve data rows at seed 0, resolution 8, kind ma and the default presets
# (manufactured psi, star-bump subsolution): (report.csv, error.csv)
SEED0_SOLVE_ROWS = {
    "complex": (
        "ma,8,1,2.6764923610755886e-11,0.021144141033429053,"
        "0.11864124160383105,0.0699025688277081,0.39353303707804743,"
        "0.09832949318223233,0.09696464366071826,0.08737750921521893,"
        "0.3537676953057498,0,3",
        "8,0.0011441410334290525",
    ),
    "riemannian": (
        "ma,8,1,4.712812362583918e-10,0.005494779594465724,"
        "0.02968154756339414,0.01811551464144618,0.19773948900314273,"
        "0.09816092402092798,0.09807452093037136,0.09494115873612076,"
        "0.1799198790446519,0,3",
        "8,0.0004947795944657239",
    ),
}

# degenerate rows at seed 0, resolution 8, the default eps_list
SEED0_DEGENERATE_ROWS = [
    "0.1,1,3.546954396860258e-11,1.971751315829916,1.3653562074581256,6,",
    "0.01,1,1.2890947892474358e-09,1.9997780517007369,1.2832524903958298,5,",
    "0.001,1,1.7541646130450617e-10,1.9999978300517642,1.2821464250954957,6,",
]

# the same with geometry = riemannian: each solve runs the tangential
# boundary check, which zero data pass
SEED0_RIEMANNIAN_DEGENERATE_ROWS = [
    "0.1,1,9.453429705708061e-11,0.49947249592537113,1.183953889946344,5,",
    "0.01,1,1.023854057091711e-10,0.49999949739670685,1.133616189653119,6,",
    "0.001,1,3.346889694642169e-10,0.49999999949823676,1.1341395028408385,9,",
]


class TestSolveCommand:
    def test_trivial_preset_dumps_zero_field(self, tmp_path):
        code, out = run(
            tmp_path, "solve",
            "resolution = 8\nkind = ma\npsi = one\nphi = zero\n"
            "subsolution = zero\ndump_fields = csv,raw\n",
        )
        assert code == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[1].startswith("label,resolution")
        values = report[2].split(",")
        assert values[0] == "ma" and values[2] == "1"
        raw = np.fromfile(out / "u.raw", dtype="<f8", offset=32)
        assert np.abs(raw).max() <= 1e-10
        assert (out / "u.csv").read_text().splitlines()[0].startswith("i0,")

    def test_manufactured_error_table(self, tmp_path):
        code, out = run(
            tmp_path, "solve",
            "resolution = 8\nkind = sigma1\npsi = manufactured\n"
            "subsolution = star-bump\n",
        )
        assert code == 0
        err_line = (out / "error.csv").read_text().splitlines()[2]
        res, err = err_line.split(",")
        assert res == "8" and float(err) < 5e-3

    def test_riemannian_preset(self, tmp_path):
        code, out = run(
            tmp_path, "solve",
            "geometry = riemannian\nd = 3\nresolution = 8\nkind = ma\n"
            "psi = manufactured\nsubsolution = star-bump\n",
        )
        assert code == 0
        assert (out / "report.csv").exists()

    def test_byte_identical_rerun(self, tmp_path):
        cfg = ("resolution = 8\nkind = ma\npsi = manufactured\n"
               "subsolution = star-bump\ndump_fields = raw\n")
        _, out1 = run(tmp_path, "solve", cfg, seed=2, sub="a")
        _, out2 = run(tmp_path, "solve", cfg, seed=2, sub="b")
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "u.raw").read_bytes() == (out2 / "u.raw").read_bytes()

    @pytest.mark.parametrize("geometry", sorted(SEED0_SOLVE_ROWS))
    def test_seed0_rows_pinned(self, tmp_path, geometry):
        # every reported value of a small solve on each model, to the bit
        code, out = run(tmp_path, "solve",
                        f"geometry = {geometry}\nresolution = 8\nkind = ma\n")
        assert code == 0
        report, error = SEED0_SOLVE_ROWS[geometry]
        assert (out / "report.csv").read_text().splitlines()[2:] == [report]
        assert (out / "error.csv").read_text().splitlines()[2:] == [error]

    def test_invalid_subsolution_fails_loudly(self, tmp_path):
        # the reference-minus-bump field does not dominate psi == 1
        code, out = run(tmp_path, "solve",
                        "resolution = 8\nkind = ma\npsi = one\n"
                        "subsolution = star-bump\n")
        assert code == 1
        row = (out / "report.csv").read_text().splitlines()[2]
        assert row.split(",")[2] == "0"  # converged flag

    def test_linear_solve_error_becomes_failure_row(self, tmp_path, monkeypatch):
        def fail(*args):
            raise LinearSolveError("forced")

        monkeypatch.setattr(sv, "harmonic_majorant", fail)
        code, out = run(tmp_path, "solve",
                        "resolution = 8\nkind = ma\npsi = one\n"
                        "subsolution = zero\n")
        assert code == 1
        header, row = (out / "report.csv").read_text().splitlines()[1:]
        assert len(row.split(",")) == len(header.split(","))
        assert row.startswith("ma,8,0,")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # a misspelled key, and dt0, dt_min and lin_rtol, which the solver
        # no longer reads; lin_rtol on every solving command
        for command, key in (("solve", "resolutoin = 16"),
                             ("solve", "dt0 = 0.1"),
                             ("solve", "dt_min = 1e-4"),
                             ("solve", "lin_rtol = 1e-10"),
                             ("boundary-scaling", "lin_rtol = 1e-10"),
                             ("degenerate", "lin_rtol = 1e-10")):
            code, out = run(tmp_path, command, f"resolution = 6\n{key}\n")
            assert code == 2
            assert key.split()[0] in capsys.readouterr().err
            assert not out.exists()

    def test_solver_keys_are_the_solver_config_fields(self, tmp_path, capsys):
        # a config that sets every SolverConfig field is accepted by each
        # solving command, and the fields read back from their own repr
        base = sv.SolverConfig()
        names = [f.name for f in dataclasses.fields(sv.SolverConfig)]
        cfg = {name: repr(getattr(base, name)) for name in names}
        fields = "".join(f"{name} = {text}\n" for name, text in cfg.items())
        for command, extra in (("solve", ""), ("boundary-scaling", "scales = 1\n"),
                               ("degenerate", "eps_list = 0.1\n")):
            code, _ = run(tmp_path, command, f"resolution = 4\n{extra}{fields}",
                          sub=command)
            assert code == 0, command
            assert capsys.readouterr().err == ""
        assert cli._solver_config(cfg) == base

    @pytest.mark.parametrize("command, cfg_text, where", [
        ("solve", "kind = bogus\n", None),
        ("solve", "geometry = riemannian\nphi = scaled-cos\n", None),
        ("solve", "resolution = 8\nresolution = 8\n", "[line 2]"),
        ("solve", "resolution = six\n", "resolution: "),
        ("solve", "resolution = 8\nnot a key\n", "[line 2]"),
        ("solve", "# solve\n\nkind = ma\nnot a key\n", "[line 4]"),
        ("solve", "[run]\nkind = ma\nkind = sigma1\n", "[line 3]"),
        ("lemma-sweep", "eps = 0.2 0\n", None),
        ("lemma-sweep", "ns = 1 2\n", None),
        ("cone-check", "samples = 0\n", None),
        ("cone-check", "samples = -3\n", None),
        ("lemma-sweep", "trials = 0\n", None),
        ("lemma-sweep", "trials = -5\n", None),
        ("degenerate", "resolution = 8\neps_list = 0\n", None),
        ("solve", "n = 3\nresolution = 16\n", None),
        ("solve", "resolution = 4\ndump_fields = rwa\n", None),
        ("solve", "n = 4\nresolution = 3\ndump_fields = raw\n", None),
        ("solve", "resolution = 4\ndt_min = 1e-4\n", None),
        ("solve", "resolution = 4\ntolerance = 0\n", None),
        ("degenerate", "resolution = 4\nlin_rtol = 1e-10\n", None),
        ("boundary-scaling", "resolution = 4\nmax_newton = 0\n", None),
        ("solve", "resolution = 6\ntolerance = inf\n", None),
        ("solve", "resolution = 6\ntolerance = nan\n", None),
        ("solve", "resolution = 6\nphi = scaled-cos\nscale = inf\n", None),
        ("lemma-sweep", "corner_fractions = nan\n", None),
        ("lemma-sweep", "corner_fractions = 1.5\n", None),
        ("lemma-sweep", "corner_fractions = 1.0 0\n", None),
        ("lemma-sweep", "corner_fractions = -1\n", None),
        ("solve", "resolution = 8\nscale = 3\n", None),
        ("lemma-sweep", "eps = inf\n", None),
        ("boundary-scaling", "resolution = 6\nscales = 1 inf\n", None),
        ("degenerate", "resolution = 6\neps_list = 0.1 nan\n", None),
        ("solve", "geometry = riemanian\n", None),
        ("solve", "geometry = complex\nd = 7\nresolution = 4\n", None),
        ("solve", "geometry = riemannian\nn = 3\nresolution = 4\n", None),
        ("degenerate", "d = 3\nresolution = 4\n", None),
        ("degenerate", "resolution = 6\neps_list =\n", "eps_list: "),
        ("lemma-sweep", "ns =\n", "ns: "),
        ("lemma-sweep", "eps =\n", "eps: "),
        ("lemma-sweep", "eps = ,\n", "eps: "),
        ("lemma-sweep", "corner_fractions =\n", "corner_fractions: "),
        ("boundary-scaling", "resolution = 6\nscales =\n", "scales: "),
        ("solve", "kind = quotient:2\n", "kind 'quotient:2'"),
        ("solve", "kind = quotient:1:2:3\n", "kind 'quotient:1:2:3'"),
        ("solve", "kind = sigmaK:x\n", "kind 'sigmaK:x'"),
        ("solve", "kind = sigmaK:\n", "kind 'sigmaK:'"),
        ("cone-check", "kinds = sigma1,quotient:2\n", "kind 'quotient:2'"),
        ("cone-check", "kinds = quotient:1:2:3\n", "kind 'quotient:1:2:3'"),
        ("cone-check", "kinds = ma,sigmaK:x\n", "kind 'sigmaK:x'"),
        ("cone-check", "kinds = sigmaK:\n", "kind 'sigmaK:'"),
        ("lemma-sweep", "ns = 2 x\n", "ns: "),
        ("lemma-sweep", "trials = many\n", "trials: "),
        ("cone-check", "samples = 1.5\n", "samples: "),
        ("cone-check", "n = three\n", "n: "),
        ("solve", "n = two\nresolution = 4\n", "n: "),
        ("solve", "geometry = riemannian\nd = x\nresolution = 4\n", "d: "),
        ("solve", "resolution = 4\ntolerance = tight\n", "tolerance: "),
        ("solve", "resolution = 4\nmax_newton = 3.5\n", "max_newton: "),
        ("solve", "resolution = 4\nphi = scaled-cos\nscale = big\n",
         "scale: "),
        ("degenerate", "resolution = 6\neps_list = 0.1 x\n", "eps_list: "),
        ("cone-check", "kinds =\n", "kinds: must list at least one value"),
        ("cone-check", "kinds = ,\n", "kinds: must list at least one value"),
    ], ids=["kind", "preset", "duplicate-key", "number", "syntax",
            "syntax-after-comment", "duplicate-key-under-header",
            "sweep-eps-zero", "sweep-n-one", "samples-zero", "samples-negative",
            "trials-zero", "trials-negative",
            "degenerate-eps-zero", "grid-too-large", "dump-unknown",
            "dump-raw-eight-dims", "dt-min-unknown",
            "tolerance-zero", "lin-rtol-unknown", "max-newton-zero",
            "tolerance-inf", "tolerance-nan", "scale-inf",
            "sweep-fraction-nan", "sweep-fraction-above-one",
            "sweep-fraction-zero", "sweep-fraction-negative",
            "scale-without-scaled-cos", "sweep-eps-inf", "scales-inf",
            "degenerate-eps-nan", "geometry-unknown", "d-with-complex",
            "n-with-riemannian", "degenerate-d-with-complex",
            "degenerate-eps-empty", "sweep-ns-empty", "sweep-eps-empty",
            "sweep-eps-comma", "sweep-fractions-empty", "scales-empty",
            "kind-one-order", "kind-three-orders", "kind-order-not-int",
            "kind-order-missing", "kinds-one-order", "kinds-three-orders",
            "kinds-order-not-int", "kinds-order-missing", "ns-not-int",
            "trials-not-int", "samples-not-int", "cone-n-not-int",
            "n-not-int", "d-not-int", "tolerance-not-float",
            "max-newton-not-int", "scale-not-float", "eps-list-not-float",
            "kinds-empty", "kinds-comma"])
    def test_bad_config_exits_2_with_one_line(self, tmp_path, capsys,
                                              command, cfg_text, where):
        code, out = run(tmp_path, command, cfg_text)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()
        if where:  # the key or kind, or the line number and the file's path
            assert where in err
            if where.startswith("[line"):
                assert str(tmp_path / "run.cfg") in err

    @pytest.mark.parametrize("command, cfg_text, keys", [
        ("lemma-sweep", "resolution = 8\n", "resolution"),
        ("cone-check", "trials = 10\n", "trials"),
        ("solve", "ns = 2 3\n", "ns"),
        ("solve", "d = 3\nscale = 2\n", "d, scale"),
        ("boundary-scaling", "scale = 2\n", "scale"),
        ("degenerate", "scales = 1 2\n", "scales"),
    ], ids=["sweep-resolution", "cone-trials", "solve-ns", "solve-d-scale",
            "scaling-scale", "degenerate-scales"])
    def test_unread_key_named(self, tmp_path, capsys, command, cfg_text, keys):
        # a key the command never looked up is refused in one line naming
        # every such key, before any solve or sweep runs
        code, out = run(tmp_path, command, cfg_text)
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {command} did not read {keys}\n")
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(out)]) == 2
        assert "absent.cfg" in capsys.readouterr().err
        assert not out.exists()


class TestSeed:
    """--seed takes the unsigned 64-bit integers the README names."""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["lemma-sweep", "cone-check"])
    def test_out_of_range_seed_exits_2_with_one_line(self, tmp_path, capsys,
                                                     command, seed):
        code, out = run(tmp_path, command, seed=seed)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--seed {seed}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg_text", [
        ("lemma-sweep", "ns = 2\neps = 0.2\ntrials = 50\n"),
        ("cone-check", "kinds = sigma1\nsamples = 10\n"),
    ])
    def test_largest_seed_runs(self, tmp_path, command, cfg_text):
        code, out = run(tmp_path, command, cfg_text, seed=2**64 - 1)
        assert code == 0 and any(out.iterdir())


class TestArguments:
    """A command line that does not parse ends the run with status 2, one
    stderr line of the form "argument error: ..." and no output."""

    @pytest.mark.parametrize("argv, names", [
        (["lemma-sweep", "--seed", "abc"], "--seed"),
        (["lemma-sweep", "--profile", "nope"], "--profile"),
        (["no-such-command"], "no-such-command"),
        (["cone-check", "--bogus", "1"], "--bogus"),
        ([], "command"),
    ], ids=["seed", "profile", "command", "option", "none"])
    def test_one_line_and_nothing_written(self, tmp_path, capsys, argv,
                                          names):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("argument error: ")
        assert names in captured.err
        assert not out.exists()

    def test_module_entry_exits_2(self, tmp_path):
        out = tmp_path / "out"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "hessiancone", "lemma-sweep", "--seed",
             "abc", "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("argument error: argument --seed: invalid int "
                               "value: 'abc'\n")
        assert not out.exists()


class TestOutDirectory:
    """An --out that cannot hold the outputs ends the run with status 2 and
    one stderr line naming the path, never a traceback."""

    def test_out_naming_a_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("keep\n")
        assert main(["cone-check", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(target) in err
        assert target.read_text() == "keep\n"

    def test_out_under_a_file_refused_before_the_solve(self, tmp_path, capsys,
                                                       monkeypatch):
        target = tmp_path / "taken"
        target.write_text("")

        def never(*args):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli, "continuity_solve", never)
        assert main(["solve", "--out", str(target / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(target) in err

    def test_failed_write(self, tmp_path, capsys):
        # the output file's name is taken by a directory
        (tmp_path / "out" / "cone_check.csv").mkdir(parents=True)
        code, out = run(tmp_path, "cone-check", "samples = 5\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out / "cone_check.csv") in err


class TestScalingCommand:
    def test_ratio_table(self, tmp_path):
        code, out = run(tmp_path, "boundary-scaling",
                        "resolution = 8\nscales = 1 2 4 8\n")
        assert code == 0
        lines = (out / "boundary_scaling.csv").read_text().splitlines()
        assert lines[1] == "s,sup_grad,sup_ddbar_boundary,ratio"
        ratios = [float(r.split(",")[3]) for r in lines[2:]]
        assert max(ratios) / min(ratios) <= 10.0
        grads = [float(r.split(",")[1]) for r in lines[2:]]
        assert grads == sorted(grads)  # monotone in s

    def test_zero_scale_row_is_zero(self, tmp_path):
        code, out = run(tmp_path, "boundary-scaling",
                        "resolution = 8\nscales = 0\n")
        assert code == 0
        row = (out / "boundary_scaling.csv").read_text().splitlines()[2]
        s, grad, ddb, ratio = (float(x) for x in row.split(","))
        # exact solution is u = 0; discrete zeros up to the Newton tolerance
        assert s == 0.0 and grad <= 1e-6 and ddb <= 1e-6 and ratio <= 1e-6

    def test_zero_scale_left_out_of_the_spread(self, tmp_path, capsys):
        # the s = 0 ratio is rounding noise (1.5e-13 at resolution 8); it
        # is left out of the spread test by its scale, so the run passes
        code, out = run(tmp_path, "boundary-scaling",
                        "resolution = 8\nscales = 0 1 2 4 8\n")
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = (out / "boundary_scaling.csv").read_text().splitlines()[2:]
        ratios = [float(r.split(",")[3]) for r in rows]
        assert len(ratios) == 5 and 0.0 < ratios[0] <= 1e-6
        assert max(ratios[1:]) / min(ratios[1:]) <= 10.0

    def test_failed_check_named_on_stderr(self, tmp_path, capsys):
        # one Newton step is not enough for s = 1: the run exits 1 with one
        # stderr line naming the failed solve
        code, out = run(tmp_path, "boundary-scaling",
                        "resolution = 8\nscales = 0 1\nmax_newton = 1\n")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("boundary-scaling failed: solve at s=1.0")


class TestDegenerateCommand:
    def test_three_eps_table(self, tmp_path):
        code, out = run(tmp_path, "degenerate",
                        "resolution = 8\neps_list = 0.1 0.01 0.001\n")
        assert code == 0
        lines = (out / "degenerate.csv").read_text().splitlines()
        assert lines[1] == ("eps,converged,final_residual,sup_grad,sup_lap,"
                            "newton_iterations,error")
        rows = [r.split(",") for r in lines[2:]]
        assert len(rows) == 3
        assert all(r[1] == "1" for r in rows)
        assert all(float(r[2]) <= 1e-8 for r in rows)
        assert all(int(r[5]) >= 1 for r in rows)

    def test_seed0_rows_pinned(self, tmp_path):
        code, out = run(tmp_path, "degenerate", "resolution = 8\n")
        assert code == 0
        lines = (out / "degenerate.csv").read_text().splitlines()
        assert lines[2:] == SEED0_DEGENERATE_ROWS

    def test_riemannian_seed0_rows_pinned(self, tmp_path):
        code, out = run(tmp_path, "degenerate",
                        "geometry = riemannian\nresolution = 8\n")
        assert code == 0
        lines = (out / "degenerate.csv").read_text().splitlines()
        assert lines[2:] == SEED0_RIEMANNIAN_DEGENERATE_ROWS

    def test_failed_solves_named_on_stderr(self, tmp_path, capsys):
        # two Newton steps are not enough at either eps: the run exits 1
        # with one stderr line naming both, and each failure row keeps the
        # residual its ContinuationError reached
        code, out = run(tmp_path, "degenerate",
                        "resolution = 8\neps_list = 0.1 0.001\nmax_newton = 2\n")
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("degenerate failed: solve at eps=0.1 (ContinuationError); "
                       "solve at eps=0.001 (ContinuationError)\n")
        rows = [r.split(",") for r in
                (out / "degenerate.csv").read_text().splitlines()[2:]]
        assert [r[1] for r in rows] == ["0", "0"]
        assert all(0.0 < float(r[2]) < 1.0 for r in rows)
        assert all(r[6] == "ContinuationError" for r in rows)

    def test_lap_spread_named_on_stderr(self, tmp_path, capsys, monkeypatch):
        # a sup_lap spread above 2 fails the run with its own stderr line
        rows = [{"eps": eps, "converged": True, "final_residual": 0.0,
                 "sup_grad": 1.0, "sup_lap": lap, "newton_iterations": 1,
                 "error": ""} for eps, lap in ((0.1, 1.0), (0.01, 3.0))]
        monkeypatch.setattr(cli, "degenerate_sweep", lambda *a, **k: rows)
        code, _ = run(tmp_path, "degenerate", "resolution = 8\n")
        assert code == 1
        assert capsys.readouterr().err == (
            "degenerate failed: sup_lap 1.0 to 3.0 spread by more than 2\n")


def _violating_solve(*args):
    u, report = sv.continuity_solve(*args)
    report.comparison_violations = 3
    return u, report


def _unconverged_sweep(*args):
    return [dict(r, converged=False, error="Forced") for r in sv.degenerate_sweep(*args)]


def _violating_sweep(*args, sweep_cells=arrowhead.sweep_cells):
    return [dataclasses.replace(s, violations=2) for s in sweep_cells(*args)]


class TestFailureReport:
    """main alone reports a failed run: exit status 1 and one stderr line
    "<command> failed: ..."; a run that passes leaves stderr empty."""

    @pytest.mark.parametrize("command, cfg_text, target, name, forced", [
        ("lemma-sweep", "ns = 2\neps = 0.2\ntrials = 50\n", arrowhead,
         "sweep_cells", _violating_sweep),
        ("cone-check", "kinds = sigma1\nsamples = 20\n", cn, "fd_grad",
         lambda fun, lam: np.full(lam.shape, np.nan)),
        ("solve", "resolution = 8\n", cli, "continuity_solve", _violating_solve),
        ("boundary-scaling", "resolution = 8\nscales = 1\n", cli,
         "continuity_solve", _violating_solve),
        ("degenerate", "resolution = 8\neps_list = 0.1\n", cli,
         "degenerate_sweep", _unconverged_sweep),
    ], ids=["lemma-sweep", "cone-check", "solve", "boundary-scaling", "degenerate"])
    def test_one_line_from_main(self, tmp_path, capsys, monkeypatch, command,
                                cfg_text, target, name, forced):
        code, _ = run(tmp_path, command, cfg_text, sub="pass")
        assert code == 0 and capsys.readouterr().err == ""
        monkeypatch.setattr(target, name, forced)
        code, _ = run(tmp_path, command, cfg_text, sub="fail")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{command} failed: ") and err.count("\n") == 1


# the solving commands on the small grids, every shipped kind at form
# dimension 3; then a degenerate sweep without a strict subsolution and a
# lemma sweep whose eps overflows a threshold, with the status and the
# stderr line each must end in
FAILURE_PATHS = [
    *[(command, f"{geometry}resolution = 4\nkind = {kind}\n", None)
      for geometry in ("geometry = riemannian\nd = 3\n", "geometry = complex\nn = 3\n")
      for kind in ("sigma1", "sigmaK:2", "sigmaK:3", "ma", "quotient:1:2",
                   "quotient:1:3", "quotient:2:3")
      for command in ("solve", "boundary-scaling", "degenerate")],
    # f(I) of quotient:2:3 is below the degenerate-cos level 0.4
    *[("degenerate", f"{geometry}kind = quotient:2:3\nresolution = 8\n",
       (1, "degenerate failed: subsolution inequality violated by "))
      for geometry in ("geometry = riemannian\n", "n = 3\n")],
    # at n = 8 the strong threshold at the largest entries the sweeps
    # draw, 13 / eps * 700 + ..., overflows
    *[("lemma-sweep", f"eps = {eps}\nns = 3 8\ntrials = 50\n",
       (2, f"config error: eps: {eps} makes a growth threshold overflow at n = 8\n"))
      for eps in ("1e-305", "1e-307")],
]


class TestFailurePaths:
    def test_status_and_at_most_one_line(self, tmp_path, capsys):
        # whatever fails, a run ends in status 0, 1 or 2 with at most one
        # stderr line and no traceback
        for i, (command, cfg_text, want) in enumerate(FAILURE_PATHS):
            code, out = run(tmp_path, command, cfg_text, sub=str(i))
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and err.count("\n") == (code != 0), cfg_text
            assert "Traceback" not in err and (code != 2 or not out.exists())
            if want:
                assert code == want[0] and err.startswith(want[1]), cfg_text


class _Reached(Exception):
    """Raised by a stub standing where the first large array is made."""


def _reached(*args):
    raise _Reached


class TestSizeCaps:
    """A lemma-sweep or cone-check size whose arrays would not fit is a
    config error, refused before the sweep or the cone draw allocates."""

    @pytest.mark.parametrize("command, cfg_text, key", [
        ("lemma-sweep", "ns = 2 200000\ntrials = 1\n", "ns: "),
        ("lemma-sweep", f"ns = {cli.MAX_SWEEP_N + 1}\n", "ns: "),
        ("cone-check", "n = 1000\n", "n: "),
        ("cone-check", f"n = {cli.MAX_CONE_N + 1}\nkinds = sigma1\nsamples = 1\n",
         "n: "),
        ("cone-check", "n = 1\nkinds = sigma1\n", "n: "),
        ("cone-check", "samples = 100000000\n", "samples: "),
        ("cone-check", f"n = 3\nsamples = {cli.MAX_CONE_ENTRIES // 9 + 1}\n",
         "samples: "),
    ], ids=["sweep-n-huge", "sweep-n-above-cap", "cone-n-huge",
            "cone-n-above-cap", "cone-n-one", "samples-huge", "samples-above-cap"])
    def test_refused_before_any_allocation(self, tmp_path, capsys, monkeypatch,
                                           command, cfg_text, key):
        monkeypatch.setattr(arrowhead, "sweep_cells", _reached)
        monkeypatch.setattr(cli, "_cone_rows", _reached)
        code, out = run(tmp_path, command, cfg_text)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg_text", [
        ("lemma-sweep", f"ns = 2 {cli.MAX_SWEEP_N}\n"),
        ("cone-check", f"n = {cli.MAX_CONE_N}\nkinds = sigma1\n"
         f"samples = {cli.MAX_CONE_ENTRIES // cli.MAX_CONE_N**2}\n"),
        ("cone-check", f"n = 3\nsamples = {cli.MAX_CONE_ENTRIES // 9}\n"),
    ], ids=["sweep-n-at-cap", "cone-n-at-cap", "samples-at-cap"])
    def test_largest_sizes_accepted(self, tmp_path, monkeypatch, command,
                                    cfg_text):
        monkeypatch.setattr(arrowhead, "sweep_cells", _reached)
        monkeypatch.setattr(cli, "_cone_rows", _reached)
        with pytest.raises(_Reached):
            run(tmp_path, command, cfg_text)
