"""Batch front-end: sweeps, cone checks, solves, scaling and degenerate
studies, all emitting CSV with a provenance header.

Subcommands: lemma-sweep, cone-check, solve, boundary-scaling, degenerate.
Every output begins with ``# hessiancone=<version> seed=<seed>
config_sha256=<hash>``; identical config and seed give byte-identical
files.  Exit status is 0 iff every enabled assertion passed, and 2 for a
config file the command cannot use: one that cannot be read, a key it
does not read, or a value that does not parse, is out of range (a grid
of more than MAX_INTERIOR_NODES interior nodes included) or names no
known function or preset.  Such a run prints one line to stderr and
writes nothing.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, arrowhead, cones
from .geometry import CylinderGeometry, GridGeometry, write_field_csv, write_field_raw
from .presets import build_problem
from .solve import (
    SOLVE_ERRORS,
    SolveReport,
    SolverConfig,
    continuity_solve,
    degenerate_sweep,
    solve_riemannian,
)

FAST, FULL = "fast", "full"

# interior nodes a solve may have: room for the 32^4 complex grid
# (1,015,808) and the 64^3 cylinder (258,048); n = 3 at resolution 16
# (15.7 million, about 2.3 GB for one 3 x 3 complex form field) is refused
MAX_INTERIOR_NODES = 2**21


class ConfigError(ValueError):
    """The config file cannot drive the command; exit status 2."""


@contextmanager
def _config_errors():
    """Turn an error met while reading the config or setting up the run
    into ConfigError.  Solves and sweeps run outside this block, so a fault
    in the numerics still surfaces as itself."""
    try:
        yield
    except (ValueError, OSError, configparser.Error) as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc  # one line


def _read_config(path):
    if path is None:
        return {}, b""
    raw = Path(path).read_bytes()
    text = raw.decode()
    parser = configparser.ConfigParser()
    # a bare key = value file is read under a [run] header one line above
    # its first line; errors report lines of the file itself
    shift = 0 if text.lstrip().startswith("[") else 1
    try:
        parser.read_string("[run]\n" * shift + text, source=str(path))
    except configparser.MissingSectionHeaderError:
        raise  # the file starts with "[", so no header was added
    except configparser.ParsingError as exc:
        fixed = configparser.ParsingError(str(path))
        for lineno, line in exc.errors:
            fixed.append(lineno - shift, line)
        raise fixed from None
    except (configparser.DuplicateOptionError,
            configparser.DuplicateSectionError) as exc:
        raise type(exc)(*exc.args[:-1], exc.lineno - shift) from None
    merged = {}
    for section in parser.sections():
        merged.update(dict(parser.items(section)))
    return merged, raw


def _floats(text):
    return [float(x) for x in str(text).replace(",", " ").split()]


def _ints(text):
    return [int(x) for x in str(text).replace(",", " ").split()]


def _require(ok, message):
    """Reject an out-of-range config value; called inside _config_errors."""
    if not ok:
        raise ValueError(message)


class _Writer:
    """CSV writer with the provenance header; the output directory is made
    on the first write, so a run rejected during set-up leaves none."""

    def __init__(self, outdir, seed, confhash):
        self.outdir = Path(outdir)
        self.prefix = (
            f"# hessiancone={__version__} seed={seed} config_sha256={confhash}\n"
        )

    def write(self, name, header, rows):
        self.outdir.mkdir(parents=True, exist_ok=True)
        path = self.outdir / name
        with open(path, "w") as fh:
            fh.write(self.prefix)
            fh.write(header + "\n")
            for row in rows:
                fh.write(row + "\n")
        return path


def cmd_lemma_sweep(cfg, writer, seed, profile):
    with _config_errors():
        ns = _ints(cfg.get("ns", "2 3 4" if profile == FAST else "2 3 4 5 6 7 8"))
        eps_list = _floats(cfg.get("eps", "0.05 0.2 1.0"))
        trials = int(cfg.get("trials", 1000 if profile == FAST else 10000))
        fractions = _floats(cfg.get("corner_fractions", "1.0"))
        _require(all(n >= 2 for n in ns), "ns: every n must be at least 2")
        _require(all(e > 0 for e in eps_list), "eps: every value must be positive")
    failures = 0
    for mode in ("strong", "weak", "distinct"):
        rows = []
        for n in ns:
            for eps in eps_list:
                if trials >= 1:
                    s = arrowhead.sweep_at_threshold(mode, n, eps, trials, seed)
                    rows.append(s.csv_row())
                    failures += s.violations
        writer.write(f"lemma_{mode}.csv", arrowhead.SWEEP_CSV_HEADER, rows)
    below = []
    for frac in fractions:
        if frac >= 1.0:
            continue
        for n in ns:
            for eps in eps_list:
                if trials >= 1:
                    s = arrowhead.sweep_below_threshold(
                        n, eps, trials, seed, corner_fraction=frac
                    )
                    below.append(s.csv_row())
    if below:
        writer.write("below_threshold.csv", arrowhead.SWEEP_CSV_HEADER, below)
    return failures


def _cone_rows(fun, samples, rng):
    def draw():
        while True:
            lam = rng.uniform(-3.0, 3.0, fun.n) + 1.0
            if cones.in_cone(fun, lam):
                return lam

    # every draw comes first, in the order of the per-sample loop it
    # replaces: lam then mu per sample, then lam then sigma per level
    lam, mu = np.array([(draw(), draw()) for _ in range(samples)]).transpose(1, 0, 2)
    levels = [(draw(), float(rng.uniform(0.2, 4.0)))
              for _ in range(max(1, samples // 10))]
    level_lam = np.array([d for d, _ in levels])
    sigma = np.array([s for _, s in levels])
    ones = np.ones(fun.n)
    midpoint_ok, gradient_ok = cones.check_concavity(fun, lam, mu)
    fd_ok, fd_err = cones.check_fd_grad(fun, lam)
    spec = cones.SubsolutionGapSpec(beta=cones.default_beta(fun, ones))
    gap = cones.subsolution_gap(fun, ones, lam, spec)
    ray_ok, t = cones.check_ray(fun, level_lam, sigma)
    c0 = cones.ray_intersect(fun, ones, sigma)
    tt = np.stack(np.broadcast_arrays(0.5, 1.0, 2.0, 1.0 + c0), axis=-1)
    fi_ok, margin = cones.fi_sum_margins(fun, t[:, None] * level_lam, sigma, tt)
    checks = {
        "gradient_positivity": (cones.check_gradient(fun, lam), ""),
        "concavity_midpoint": (midpoint_ok, ""),
        "concavity_gradient": (gradient_ok, ""),
        "euler_identity": (cones.check_euler(fun, lam), ""),
        # a NaN error is a failure and no statistic
        "fd_gradient": (fd_ok, repr(float(np.fmax.reduce(fd_err, initial=0.0)))),
        "ray_unique": (ray_ok, ""),
        "fi_sum_bound": (fi_ok, repr(float(margin.min()))),
    }
    rows = []
    failures = 0
    for check, (ok, stat) in checks.items():
        bad = int(np.count_nonzero(~ok))
        rows.append(f"{fun.label},{check},{samples},{bad},{stat}")
        failures += bad
    far = gap.branch == "normal-far"
    eps = np.sort(gap.eps_prime[far])
    if eps.size:
        bad = int(np.count_nonzero(~gap.passed[far]))
        for tag, val in (("gap_epsprime_min", eps[0]),
                         ("gap_epsprime_median", eps[eps.size // 2]),
                         ("gap_epsprime_max", eps[-1])):
            rows.append(f"{fun.label},{tag},{eps.size},{bad},{float(val)!r}")
            failures += bad
    return rows, failures


def cmd_cone_check(cfg, writer, seed, profile):
    with _config_errors():
        n = int(cfg.get("n", 3))
        kinds = str(cfg.get("kinds", "sigma1,sigmaK:2,ma,quotient:1:2")).split(",")
        funs = [cones.parse_kind(name.strip(), n) for name in kinds]
        samples = int(cfg.get("samples", 1000))
        _require(samples >= 1, "samples: must be at least 1")
    rng = np.random.default_rng(seed)
    rows, failures = [], 0
    for fun in funs:
        r, f = _cone_rows(fun, samples, rng)
        rows.extend(r)
        failures += f
    writer.write("cone_check.csv", "kind,check,samples,failures,stat", rows)
    return failures


def _solver_config(cfg):
    """SolverConfig defaults overridden by the solver keys in cfg."""
    base = SolverConfig()
    config = replace(base, **{key: type(getattr(base, key))(cfg[key])
                              for key in _SOLVER_KEYS if key in cfg})
    _require(0 < config.dt_min <= 1, "dt_min: must be in (0, 1]")
    _require(config.tolerance > 0, "tolerance: must be positive")
    _require(0 < config.lin_rtol < 1, "lin_rtol: must be in (0, 1)")
    _require(config.max_newton >= 1, "max_newton: must be at least 1")
    return config


def _geometry(cfg, profile):
    res = int(cfg.get("resolution", 16 if profile == FAST else 32))
    if str(cfg.get("geometry", "complex")) == "riemannian":
        geom = CylinderGeometry(d=int(cfg.get("d", 3)), resolution=res)
    else:
        geom = GridGeometry(n=int(cfg.get("n", 2)), resolution=res)
    nodes = math.prod(geom.interior_shape)
    _require(nodes <= MAX_INTERIOR_NODES,
             f"grid has {nodes} interior nodes, more than the "
             f"{MAX_INTERIOR_NODES} a run can hold (lower n, d or resolution)")
    return geom


def cmd_solve(cfg, writer, seed, profile):
    with _config_errors():
        geom = _geometry(cfg, profile)
        fun = cones.parse_kind(str(cfg.get("kind", "ma")), geom.form_dim)
        prob = build_problem(
            geom,
            fun,
            str(cfg.get("psi", "manufactured")),
            str(cfg.get("phi", "zero")),
            str(cfg.get("subsolution", "star-bump")),
            scale=float(cfg.get("scale", 1.0)),
        )
        config = _solver_config(cfg)
        dump = str(cfg.get("dump_fields", "none")).replace(",", " ").split()
        _require(set(dump) <= {"none", "csv", "raw"},
                 "dump_fields: every entry must be none, csv or raw")
        _require("raw" not in dump or geom.real_dims <= 6,
                 "dump_fields: raw needs at most 6 real directions")
    solver = continuity_solve if geom.is_complex else solve_riemannian
    try:
        u, report = solver(fun, prob.chi, prob.psi, prob.phi, prob.u_sub, config)
    except SOLVE_ERRORS as exc:
        empty = "," * (SolveReport.CSV_FIELDS.count(",") - 2)
        writer.write("report.csv", SolveReport.CSV_FIELDS,
                     [f"{fun.label},{geom.resolution},0{empty}"])
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    rows = [report.csv_row()]
    writer.write("report.csv", SolveReport.CSV_FIELDS, rows)
    if prob.u_star is not None:
        err = float(np.abs(u.values - prob.u_star.values).max())
        writer.write("error.csv", "resolution,sup_error",
                     [f"{geom.resolution},{err!r}"])
    if "csv" in dump:
        write_field_csv(writer.outdir / "u.csv", u)
    if "raw" in dump:
        write_field_raw(writer.outdir / "u.raw", u)
    bad = 0 if (report.converged and report.comparison_violations == 0) else 1
    return bad


def cmd_boundary_scaling(cfg, writer, seed, profile):
    # the ratio study is resolution-stable at 16 per direction; config may
    # override, the profile does not
    with _config_errors():
        geom = _geometry(cfg, FAST)
        fun = cones.parse_kind(str(cfg.get("kind", "ma")), geom.form_dim)
        scales = _floats(cfg.get("scales", "1 2 4 8"))
        config = _solver_config(cfg)
    rows, ratios, failures = [], [], 0
    for s in scales:
        with _config_errors():
            prob = build_problem(geom, fun, "one", "scaled-cos", "scaled-cos", scale=s)
        try:
            u, rep = continuity_solve(fun, prob.chi, prob.psi, prob.phi,
                                      prob.u_sub, config)
        except SOLVE_ERRORS:
            failures += 1
            rows.append(f"{s!r},,,")
            continue
        grad = max(rep.sup_grad_interior, rep.sup_grad_boundary)
        rows.append(
            f"{s!r},{grad!r},{rep.sup_ddbar_boundary!r},{rep.boundary_ratio!r}"
        )
        if rep.boundary_ratio > 0:
            ratios.append(rep.boundary_ratio)
        failures += rep.comparison_violations
    writer.write("boundary_scaling.csv",
                 "s,sup_grad,sup_ddbar_boundary,ratio", rows)
    if ratios and max(ratios) / min(ratios) > 10.0:
        failures += 1
    return failures


def cmd_degenerate(cfg, writer, seed, profile):
    with _config_errors():
        geom = _geometry(cfg, FAST)
        fun = cones.parse_kind(str(cfg.get("kind", "ma")), geom.form_dim)
        eps_list = _floats(cfg.get("eps_list", "0.1 0.01 0.001"))
        _require(all(e > 0 for e in eps_list),
                 "eps_list: every value must be positive")
        prob = build_problem(geom, fun, "degenerate-cos", "zero", "zero")
        config = _solver_config(cfg)
    rows_data = degenerate_sweep(fun, prob.chi, prob.psi, prob.phi, prob.u_sub,
                                 eps_list, config)
    rows = []
    failures = 0
    laps = []
    for r in rows_data:
        rows.append(
            f"{r['eps']!r},{int(r['converged'])},{r['final_residual']!r},"
            f"{r['sup_grad']!r},{r['sup_lap']!r},{r['error']}"
        )
        if not r["converged"]:
            failures += 1
        else:
            laps.append(r["sup_lap"])
    writer.write("degenerate.csv",
                 "eps,converged,final_residual,sup_grad,sup_lap,error", rows)
    if laps and max(laps) / min(laps) > 2.0:
        failures += 1
    return failures


COMMANDS = {
    "lemma-sweep": cmd_lemma_sweep,
    "cone-check": cmd_cone_check,
    "solve": cmd_solve,
    "boundary-scaling": cmd_boundary_scaling,
    "degenerate": cmd_degenerate,
}

_PROBLEM_KEYS = ("geometry", "n", "d", "resolution", "kind")
_SOLVER_KEYS = ("tolerance", "dt_min", "max_newton", "lin_rtol")

# the config keys each command reads; any other key is rejected
CONFIG_KEYS = {
    "lemma-sweep": ("ns", "eps", "trials", "corner_fractions"),
    "cone-check": ("n", "kinds", "samples"),
    "solve": _PROBLEM_KEYS + _SOLVER_KEYS
    + ("psi", "phi", "subsolution", "scale", "dump_fields"),
    "boundary-scaling": _PROBLEM_KEYS + _SOLVER_KEYS + ("scales",),
    "degenerate": _PROBLEM_KEYS + _SOLVER_KEYS + ("eps_list",),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hessiancone",
        description="Eigenvalue-concentration sweeps, cone checks, and "
        "continuity-method solves on the flat model manifold.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--profile", choices=(FAST, FULL), default=FAST)
    args = parser.parse_args(argv)

    try:
        with _config_errors():
            cfg, raw = _read_config(args.config)
        unknown = sorted(set(cfg) - set(CONFIG_KEYS[args.command]))
        if unknown:
            raise ConfigError(
                f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
        writer = _Writer(args.out, args.seed, hashlib.sha256(raw).hexdigest())
        failures = COMMANDS[args.command](cfg, writer, args.seed, args.profile)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
