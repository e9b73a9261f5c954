"""Batch front-end: sweeps, cone checks, solves, scaling and degenerate
studies, all emitting CSV with a provenance header.

Subcommands: lemma-sweep, cone-check, solve, boundary-scaling, degenerate.
Every output begins with ``# hessiancone=<version> seed=<seed>
config_sha256=<hash>``; identical config and seed give byte-identical
files.  A command returns what failed; main reports it in one stderr
line, ``<command> failed: a; b``, with exit status 1 (0 when nothing
failed).  Status 2 is for a config the command cannot use: one that
cannot be read, a key the command did not look up, or a value that does
not parse, is not finite, is out of range (more than MAX_INTERIOR_NODES
interior nodes, a size above MAX_SWEEP_N, MAX_CONE_N or MAX_CONE_ENTRIES
included), lists no entry, or names no known function or preset.  Such a
run prints one line to stderr and writes nothing; so does a command line
that does not parse or an ``--out`` that is not a directory, and a
failed write exits 2 with one line naming its path.
"""

from __future__ import annotations

import argparse
import configparser
import errno
import hashlib
import math
import sys
from contextlib import contextmanager
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
)

FAST, FULL = "fast", "full"

# interior nodes a solve may have: room for the 32^4 complex grid
# (1,015,808) and the 64^3 cylinder (258,048); n = 3 at resolution 16
# (15.7 million, about 2.3 GB for one 3 x 3 complex form field) is refused
MAX_INTERIOR_NODES = 2**21
# _draw_in_cone: ma keeps (2/3)^n of its candidates, so from n = 18 on
# (and at n = 17 for some seeds) it is refused, not drawn for days at n = 50;
# nor is a draw whose acceptance so far projects more than CONE_BUDGET
# candidates: about 28 s of drawing at n = 17 (1.7 us per ma candidate),
# where ma at 8,000 samples, just under it, ran 35 s in all
CONE_TRIES = 2**16
CONE_ODDS = 1024
CONE_BUDGET = 2**24
CONE_BLOCK_MAX = 2**14
# peak RSS at the caps: a lemma sweep holds at most arrowhead._DENSE_ENTRIES
# matrix entries of a chunk at a time (110 MB at n = 256, 56 MB at n = 64);
# cone-check a samples x n x n complex stack (484 MB at the worst n = 2;
# 112 MB at n = 64, where 1000 samples fit)
MAX_SWEEP_N = 256
MAX_CONE_N = 64
MAX_CONE_ENTRIES = 2**22


class ConfigError(ValueError):
    """The config file cannot drive the command; exit status 2."""


class _ArgumentError(ValueError):
    """The command line cannot drive a run; exit status 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise _ArgumentError, for main to
    report in one line, where argparse prints its usage and exits."""

    def error(self, message):
        raise _ArgumentError(message)


@contextmanager
def _config_errors():
    """Turn an error met while reading the config or setting up the run
    into ConfigError.  Solves and sweeps run outside this block, so a fault
    in the numerics still surfaces as itself."""
    try:
        yield
    except (ValueError, OSError, configparser.Error) as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc  # one line


class _Config(dict):
    """Config pairs that record each key the command looks up, so that the
    keys it never read are refused: a misspelled key, or one this run has
    no use for (``d`` on the complex model)."""

    def __init__(self, pairs, command):
        super().__init__(pairs)
        self.command, self.read = command, set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def refuse_unread(self):
        unread = ", ".join(sorted(self.keys() - self.read))
        _require(not unread, f"{self.command} did not read {unread}")


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


def _float(text):
    """A finite float: inf and nan are config errors, not values."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r}: must be a finite number")
    return value


def _require(ok, message):
    """Reject an out-of-range config value; called inside _config_errors."""
    if not ok:
        raise ValueError(message)


def _value(cfg, key, default, parse=_float):
    """The value of ``key`` (``default`` when absent) ``parse``d from its
    text; a value that does not parse is a config error naming the key."""
    try:
        return parse(str(cfg.get(key, default)))
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _listed(cfg, key, default, parse=_float):
    """The entries of the comma- or space-separated list value of ``key``,
    each ``parse``d; a value that lists none is a config error."""
    values = _value(cfg, key, default, lambda text: [
        parse(x) for x in text.replace(",", " ").split()])
    _require(values, f"{key}: must list at least one value")
    return values


class _Writer:
    """CSV writer with the provenance header; the output directory is made
    on the first write, so a run rejected during set-up leaves none; an
    outdir whose nearest existing path is no directory is refused here."""

    def __init__(self, outdir, seed, confhash):
        self.outdir = Path(outdir)
        for path in (self.outdir, *self.outdir.parents):
            if path.exists():
                if not path.is_dir():
                    raise NotADirectoryError(errno.ENOTDIR, "not a directory",
                                             str(path))
                break
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
        ns = _listed(cfg, "ns", "2 3 4" if profile == FAST else "2 3 4 5 6 7 8", int)
        eps_list = _listed(cfg, "eps", "0.05 0.2 1.0")
        trials = _value(cfg, "trials", 1000 if profile == FAST else 10000, int)
        fractions = _listed(cfg, "corner_fractions", "1.0")
        _require(all(2 <= n <= MAX_SWEEP_N for n in ns),
                 f"ns: every n must be in [2, {MAX_SWEEP_N}]")
        _require(all(e > 0 for e in eps_list), "eps: every value must be positive")
        _require(trials >= 1, "trials: must be at least 1")
        _require(all(0 < f <= 1 for f in fractions),
                 "corner_fractions: every value must be in (0, 1]")
        # a threshold that overflows at the largest entries the sweeps draw
        # turns their bounds into inf and nan
        top = np.full(max(ns) - 1, arrowhead.SPEC_BOUND)
        with np.errstate(over="ignore"):
            for eps in eps_list:
                _require(all(np.isfinite(threshold(top, top, eps)) for threshold in (
                    arrowhead.threshold_strong, arrowhead.threshold_weak,
                    arrowhead.threshold_distinct)),
                         f"eps: {eps!r} makes a growth threshold overflow at n = {max(ns)}")
        cfg.refuse_unread()
    modes = ("strong", "weak", "distinct")
    below = [frac for frac in fractions if frac < 1.0]
    cells = [(mode, eps, 1.0) for mode in modes for eps in eps_list]
    cells += [("strong", eps, frac) for frac in below for eps in eps_list]
    # one draw of each n serves all of its cells
    swept = [arrowhead.sweep_cells(n, cells, trials, seed) for n in ns]

    def rows(group):
        """The summaries of the group-th run of len(eps_list) cells, n by n."""
        first = group * len(eps_list)
        return [s for by_n in swept for s in by_n[first:first + len(eps_list)]]

    failed = []
    for group, mode in enumerate(modes):
        at = rows(group)
        failed += [f"{s.violations} {mode} violations at n={s.n}, eps={s.eps!r}"
                   for s in at if s.violations]
        writer.write(f"lemma_{mode}.csv", arrowhead.SWEEP_CSV_HEADER,
                     [s.csv_row() for s in at])
    if below:
        writer.write("below_threshold.csv", arrowhead.SWEEP_CSV_HEADER,
                     [s.csv_row() for group in range(len(modes), len(modes) + len(below))
                      for s in rows(group)])
    return failed


def _draw_in_cone(fun, count, rng):
    """``count`` cone points by rejection from ``rng.uniform(-3, 3, n) + 1``:
    candidates are drawn and tested in blocks, and the in-cone rows are
    kept in draw order until there are ``count``.  Blocks that fall short
    grow up to CONE_BLOCK_MAX; a draw that has tried CONE_TRIES candidates
    and kept fewer than 1 in CONE_ODDS, or at a rate that would need more
    than CONE_BUDGET for ``count``, raises ConfigError."""
    found, tried, kept = [], 0, 0
    while kept < count:
        if tried >= CONE_TRIES and kept * CONE_ODDS < tried:
            raise ConfigError(
                f"kinds: {fun.label} at n = {fun.n} kept {kept} of {tried} "
                f"uniform candidates, fewer than 1 in {CONE_ODDS}; lower n")
        if tried >= CONE_TRIES and tried * count > CONE_BUDGET * kept:
            raise ConfigError(
                f"samples: {fun.label} at n = {fun.n} kept {kept} of {tried} "
                f"uniform candidates, so {count} cone points would take more "
                f"than {CONE_BUDGET} candidates; lower samples or n")
        # the lowest shipped acceptance rate at n = 3 is 8/27 (ma), so one
        # block of four candidates per point usually suffices
        block = max(16, 4 * (count - kept), min(tried, CONE_BLOCK_MAX))
        lam = rng.uniform(-3.0, 3.0, (block, fun.n)) + 1.0
        found.append(lam[cones.in_cone(fun, lam)][:count - kept])
        tried += block
        kept += len(found[-1])
    return np.concatenate(found)


def _cone_draws(fun, samples, rng):
    """(lam, mu, level_lam, sigma): 2 * samples cone points taken in pairs,
    then one cone point per ray-check level, then the levels' sigmas."""
    levels = max(1, samples // 10)
    pairs = _draw_in_cone(fun, 2 * samples, rng).reshape(samples, 2, fun.n)
    level_lam = _draw_in_cone(fun, levels, rng)
    return pairs[:, 0], pairs[:, 1], level_lam, rng.uniform(0.2, 4.0, levels)


def _cone_rows(fun, samples, rng):
    lam, mu, level_lam, sigma = _cone_draws(fun, samples, rng)
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
    rows = [(fun.label, check, samples, int(np.count_nonzero(~ok)), stat)
            for check, (ok, stat) in checks.items()]
    far = gap.branch == "normal-far"
    eps = np.sort(gap.eps_prime[far])
    if eps.size:
        bad = int(np.count_nonzero(~gap.passed[far]))
        for tag, val in (("gap_epsprime_min", eps[0]),
                         ("gap_epsprime_median", eps[eps.size // 2]),
                         ("gap_epsprime_max", eps[-1])):
            rows.append((fun.label, tag, eps.size, bad, repr(float(val))))
    return rows


def cmd_cone_check(cfg, writer, seed, profile):
    with _config_errors():
        n = _value(cfg, "n", 3, int)
        _require(2 <= n <= MAX_CONE_N, f"n: must be in [2, {MAX_CONE_N}]")
        funs = _listed(cfg, "kinds", "sigma1,sigmaK:2,ma,quotient:1:2",
                       lambda name: cones.parse_kind(name, n))
        samples = _value(cfg, "samples", 1000, int)
        _require(samples >= 1, "samples: must be at least 1")
        _require(samples * n * n <= MAX_CONE_ENTRIES, f"samples: samples * n**2 "
                 f"above {MAX_CONE_ENTRIES} (lower samples or n)")
        cfg.refuse_unread()
    rng = np.random.default_rng(seed)
    rows = [row for fun in funs for row in _cone_rows(fun, samples, rng)]
    writer.write("cone_check.csv", "kind,check,samples,failures,stat",
                 [",".join(map(str, row)) for row in rows])
    return [f"{kind} {check} ({bad} of {count})"
            for kind, check, count, bad, _ in rows if bad]


def _solver_config(cfg):
    """SolverConfig defaults overridden by the solver keys in cfg."""
    config = SolverConfig(**{key: _value(cfg, key, value, type(value))
                             for key, value in vars(SolverConfig()).items()})
    _require(0 < config.tolerance < math.inf,
             "tolerance: must be positive and finite")
    _require(config.max_newton >= 1, "max_newton: must be at least 1")
    return config


def _solve_setup(cfg, profile):
    """The grid, the function and the SolverConfig of a solving command."""
    res = _value(cfg, "resolution", 16 if profile == FAST else 32, int)
    name = str(cfg.get("geometry", "complex"))
    _require(name in ("complex", "riemannian"),
             "geometry: must be complex or riemannian")
    if name == "riemannian":
        geom = CylinderGeometry(d=_value(cfg, "d", 3, int), resolution=res)
    else:
        geom = GridGeometry(n=_value(cfg, "n", 2, int), resolution=res)
    nodes = math.prod(geom.interior_shape)
    _require(nodes <= MAX_INTERIOR_NODES,
             f"grid has {nodes} interior nodes, more than the "
             f"{MAX_INTERIOR_NODES} a run can hold (lower n, d or resolution)")
    fun = cones.parse_kind(str(cfg.get("kind", "ma")), geom.form_dim)
    return geom, fun, _solver_config(cfg)


def cmd_solve(cfg, writer, seed, profile):
    with _config_errors():
        geom, fun, config = _solve_setup(cfg, profile)
        psi = str(cfg.get("psi", "manufactured"))
        phi, sub = str(cfg.get("phi", "zero")), str(cfg.get("subsolution", "star-bump"))
        scale = _value(cfg, "scale", 1.0) if "scaled-cos" in (phi, sub) else 1.0
        dump = str(cfg.get("dump_fields", "none")).replace(",", " ").split()
        _require(set(dump) <= {"none", "csv", "raw"},
                 "dump_fields: every entry must be none, csv or raw")
        _require("raw" not in dump or geom.real_dims <= 6,
                 "dump_fields: raw needs at most 6 real directions")
        cfg.refuse_unread()
        prob = build_problem(geom, fun, psi, phi, sub, scale=scale)
    try:
        u, report = continuity_solve(fun, prob.chi, prob.psi, prob.phi,
                                     prob.u_sub, config)
    except SOLVE_ERRORS as exc:
        empty = "," * (SolveReport.CSV_FIELDS.count(",") - 2)
        writer.write("report.csv", SolveReport.CSV_FIELDS,
                     [f"{fun.label},{geom.resolution},0{empty}"])
        return [str(exc)]
    writer.write("report.csv", SolveReport.CSV_FIELDS, [report.csv_row()])
    if prob.u_star is not None:
        err = float(np.abs(u.values - prob.u_star.values).max())
        writer.write("error.csv", "resolution,sup_error",
                     [f"{geom.resolution},{err!r}"])
    if "csv" in dump:
        write_field_csv(writer.outdir / "u.csv", u)
    if "raw" in dump:
        write_field_raw(writer.outdir / "u.raw", u)
    violations = report.comparison_violations
    return [f"{violations} comparison violations"] if violations else []


def cmd_boundary_scaling(cfg, writer, seed, profile):
    # the ratio study is resolution-stable at 16 per direction; config may
    # override, the profile does not
    with _config_errors():
        geom, fun, config = _solve_setup(cfg, FAST)
        scales = _listed(cfg, "scales", "1 2 4 8")
        cfg.refuse_unread()
    rows, ratios, failed = [], [], []
    for s in scales:
        with _config_errors():
            prob = build_problem(geom, fun, "one", "scaled-cos", "scaled-cos", scale=s)
        try:
            u, rep = continuity_solve(fun, prob.chi, prob.psi, prob.phi,
                                      prob.u_sub, config)
        except SOLVE_ERRORS:
            failed.append(f"solve at s={s!r}")
            rows.append(f"{s!r},,,")
            continue
        grad = max(rep.sup_grad_interior, rep.sup_grad_boundary)
        rows.append(
            f"{s!r},{grad!r},{rep.sup_ddbar_boundary!r},{rep.boundary_ratio!r}"
        )
        # s = 0 is zero data, u = 0: its ratio is rounding noise
        if s != 0.0:
            ratios.append(rep.boundary_ratio)
        if rep.comparison_violations:
            failed.append(f"{rep.comparison_violations} comparison "
                          f"violations at s={s!r}")
    writer.write("boundary_scaling.csv",
                 "s,sup_grad,sup_ddbar_boundary,ratio", rows)
    if ratios and not max(ratios) <= 10.0 * min(ratios):
        failed.append(f"boundary ratios {min(ratios)!r} to {max(ratios)!r} "
                      "spread by more than 10")
    return failed


def cmd_degenerate(cfg, writer, seed, profile):
    with _config_errors():
        geom, fun, config = _solve_setup(cfg, FAST)
        eps_list = _listed(cfg, "eps_list", "0.1 0.01 0.001")
        _require(all(e > 0 for e in eps_list),
                 "eps_list: every value must be positive")
        cfg.refuse_unread()
        prob = build_problem(geom, fun, "degenerate-cos", "zero", "zero")
    rows, laps, failed = [], [], []
    try:
        rows_data = degenerate_sweep(fun, prob.chi, prob.psi, prob.phi,
                                     prob.u_sub, eps_list, config)
    except SOLVE_ERRORS as exc:  # the input checks refused the sweep's start
        rows_data = []
        failed.append(str(exc))
    for r in rows_data:
        rows.append(
            f"{r['eps']!r},{int(r['converged'])},{r['final_residual']!r},"
            f"{r['sup_grad']!r},{r['sup_lap']!r},{r['newton_iterations']},"
            f"{r['error']}"
        )
        if not r["converged"]:
            failed.append(f"solve at eps={r['eps']!r} ({r['error']})")
        else:
            laps.append(r["sup_lap"])
    writer.write("degenerate.csv",
                 "eps,converged,final_residual,sup_grad,sup_lap,"
                 "newton_iterations,error", rows)
    if laps and max(laps) / min(laps) > 2.0:
        failed.append(f"sup_lap {min(laps)!r} to {max(laps)!r} "
                      "spread by more than 2")
    return failed


COMMANDS = {
    "lemma-sweep": cmd_lemma_sweep,
    "cone-check": cmd_cone_check,
    "solve": cmd_solve,
    "boundary-scaling": cmd_boundary_scaling,
    "degenerate": cmd_degenerate,
}


def main(argv=None) -> int:
    parser = _Parser(
        prog="hessiancone",
        description="Eigenvalue-concentration sweeps, cone checks, and "
        "continuity-method solves on the flat model manifold.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--profile", choices=(FAST, FULL), default=FAST)
    try:
        args = parser.parse_args(argv)
        if not 0 <= args.seed < 2**64:
            raise _ArgumentError(f"--seed {args.seed}: not in [0, 2**64)")
    except _ArgumentError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2

    try:
        with _config_errors():
            pairs, raw = _read_config(args.config)
        writer = _Writer(args.out, args.seed, hashlib.sha256(raw).hexdigest())
        failed = COMMANDS[args.command](_Config(pairs, args.command), writer,
                                        args.seed, args.profile)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --out, or a write into it
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    if failed:  # what failed, in one line
        print(f"{args.command} failed: {'; '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
