"""CLI subcommands: outputs, provenance headers, exit codes, determinism."""

import numpy as np
import pytest

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

    def test_zero_trials_header_only(self, tmp_path):
        code, out = run(tmp_path, "lemma-sweep", "ns = 2\ntrials = 0\n")
        assert code == 0
        lines = (out / "lemma_strong.csv").read_text().splitlines()
        assert len(lines) == 2  # provenance + header, no rows


# cone-check rows at seed 0, 40 samples, kinds sigma1,sigmaK:2,ma,quotient:1:2
SEED0_ROWS = [
    "sigma1,gradient_positivity,40,0,",
    "sigma1,concavity_midpoint,40,0,",
    "sigma1,concavity_gradient,40,0,",
    "sigma1,euler_identity,40,0,",
    "sigma1,fd_gradient,40,0,0.0",
    "sigma1,ray_unique,40,0,",
    "sigma1,fi_sum_bound,40,0,1.0569862604811",
    "sigmaK:2,gradient_positivity,40,0,",
    "sigmaK:2,concavity_midpoint,40,0,",
    "sigmaK:2,concavity_gradient,40,0,",
    "sigmaK:2,euler_identity,40,0,",
    "sigmaK:2,fd_gradient,40,0,3.4961341029932967e-16",
    "sigmaK:2,ray_unique,40,0,",
    "sigmaK:2,fi_sum_bound,40,0,0.6853297099036604",
    "sigmaK:2,gap_epsprime_min,25,0,0.0699029097162809",
    "sigmaK:2,gap_epsprime_median,25,0,0.24879532680030078",
    "sigmaK:2,gap_epsprime_max,25,0,0.7348094349360823",
    "ma,gradient_positivity,40,0,",
    "ma,concavity_midpoint,40,0,",
    "ma,concavity_gradient,40,0,",
    "ma,euler_identity,40,0,",
    "ma,fd_gradient,40,0,4.237730988069061e-16",
    "ma,ray_unique,40,0,",
    "ma,fi_sum_bound,40,0,0.26582826222429956",
    "ma,gap_epsprime_min,25,0,0.025940802487676662",
    "ma,gap_epsprime_median,25,0,0.09825097717335725",
    "ma,gap_epsprime_max,25,0,0.8286866483076071",
    "quotient:1:2,gradient_positivity,40,0,",
    "quotient:1:2,concavity_midpoint,40,0,",
    "quotient:1:2,concavity_gradient,40,0,",
    "quotient:1:2,euler_identity,40,0,",
    "quotient:1:2,fd_gradient,40,0,5.690775076733429e-16",
    "quotient:1:2,ray_unique,40,0,",
    "quotient:1:2,fi_sum_bound,40,0,0.6713766270235372",
    "quotient:1:2,gap_epsprime_min,34,0,0.027602566955911147",
    "quotient:1:2,gap_epsprime_median,34,0,0.11225307873428132",
    "quotient:1:2,gap_epsprime_max,34,0,0.3144373743379795",
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
        # the draw order (per sample lam then mu, per level lam then sigma)
        # and the values of every check at seed 0
        code, out = run(tmp_path, "cone-check",
                        "n = 3\nkinds = sigma1,sigmaK:2,ma,quotient:1:2\n"
                        "samples = 40\n")
        assert code == 0
        assert (out / "cone_check.csv").read_text().splitlines()[2:] == SEED0_ROWS

    def test_byte_identical_rerun(self, tmp_path):
        cfg = "n = 3\nkinds = quotient:1:2\nsamples = 40\n"
        _, out1 = run(tmp_path, "cone-check", cfg, seed=4, sub="a")
        _, out2 = run(tmp_path, "cone-check", cfg, seed=4, sub="b")
        assert (out1 / "cone_check.csv").read_bytes() == \
            (out2 / "cone_check.csv").read_bytes()


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
        # a misspelled key, and dt0, which the solver no longer reads
        for key in ("resolutoin = 16", "dt0 = 0.1"):
            code, out = run(tmp_path, "solve", f"resolution = 6\n{key}\n")
            assert code == 2
            assert key.split()[0] in capsys.readouterr().err
            assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command, cfg_text, where", [
        ("solve", "kind = bogus\n", None),
        ("solve", "geometry = riemannian\nphi = scaled-cos\n", None),
        ("solve", "resolution = 8\nresolution = 8\n", "[line 2]"),
        ("solve", "resolution = six\n", None),
        ("solve", "resolution = 8\nnot a key\n", "[line 2]"),
        ("solve", "# solve\n\nkind = ma\nnot a key\n", "[line 4]"),
        ("solve", "[run]\nkind = ma\nkind = sigma1\n", "[line 3]"),
        ("lemma-sweep", "eps = 0.2 0\n", None),
        ("lemma-sweep", "ns = 1 2\n", None),
        ("cone-check", "samples = 0\n", None),
        ("cone-check", "samples = -3\n", None),
        ("degenerate", "resolution = 8\neps_list = 0\n", None),
        ("solve", "n = 3\nresolution = 16\n", None),
        ("solve", "resolution = 4\ndump_fields = rwa\n", None),
        ("solve", "n = 4\nresolution = 3\ndump_fields = raw\n", None),
        ("solve", "resolution = 4\ndt_min = 0\n", None),
        ("solve", "resolution = 4\ndt_min = 1.5\n", None),
        ("solve", "resolution = 4\ntolerance = 0\n", None),
        ("solve", "resolution = 4\nlin_rtol = 0\n", None),
        ("degenerate", "resolution = 4\nlin_rtol = 1\n", None),
        ("boundary-scaling", "resolution = 4\nmax_newton = 0\n", None),
    ], ids=["kind", "preset", "duplicate-key", "number", "syntax",
            "syntax-after-comment", "duplicate-key-under-header",
            "sweep-eps-zero", "sweep-n-one", "samples-zero", "samples-negative",
            "degenerate-eps-zero", "grid-too-large", "dump-unknown",
            "dump-raw-eight-dims", "dt-min-zero", "dt-min-above-one",
            "tolerance-zero", "lin-rtol-zero", "lin-rtol-one", "max-newton-zero"])
    def test_bad_config_exits_2_with_one_line(self, tmp_path, capsys,
                                              command, cfg_text, where):
        code, out = run(tmp_path, command, cfg_text)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()
        if where:  # the line number in the file and the file's path
            assert where in err and str(tmp_path / "run.cfg") in err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(out)]) == 2
        assert "absent.cfg" in capsys.readouterr().err
        assert not out.exists()


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


class TestDegenerateCommand:
    def test_three_eps_table(self, tmp_path):
        code, out = run(tmp_path, "degenerate",
                        "resolution = 8\neps_list = 0.1 0.01 0.001\n")
        assert code == 0
        lines = (out / "degenerate.csv").read_text().splitlines()
        assert lines[1] == "eps,converged,final_residual,sup_grad,sup_lap,error"
        rows = [r.split(",") for r in lines[2:]]
        assert len(rows) == 3
        assert all(r[1] == "1" for r in rows)
        assert all(float(r[2]) <= 1e-8 for r in rows)
