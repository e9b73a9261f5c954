"""Batch front-end: sweeps, cone checks, solves, scaling and degenerate
studies, all emitting CSV with a provenance header.

Subcommands: lemma-sweep, cone-check, solve, boundary-scaling, degenerate.
Every output begins with ``# hessiancone=<version> seed=<seed>
config_sha256=<hash>``; identical config and seed give byte-identical
files.  Exit status is 0 iff every enabled assertion passed, and 2 for a
config file the command cannot use: one that cannot be read, a key it
does not read, or a value that does not parse, is not finite (inf or
nan), is out of range (a grid of more than MAX_INTERIOR_NODES interior
nodes included), lists no entry where a list is read, or names no known
function or preset.  Such a run prints one line to stderr and writes
nothing; so does a command line that does not parse (an unknown
command, option or choice, or a --seed that is not an integer in
[0, 2**64)) and an ``--out`` that is not a directory, and a failed write
exits 2 with one line naming its path.
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
# (and at n = 17 for some seeds) it is refused, not drawn for days at n = 50
CONE_TRIES = 2**16
CONE_ODDS = 1024
CONE_BLOCK_MAX = 2**14


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
        _require(all(n >= 2 for n in ns), "ns: every n must be at least 2")
        _require(all(e > 0 for e in eps_list), "eps: every value must be positive")
        _require(trials >= 1, "trials: must be at least 1")
        _require(all(0 < f <= 1 for f in fractions),
                 "corner_fractions: every value must be in (0, 1]")
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

    failures = 0
    for group, mode in enumerate(modes):
        at = rows(group)
        failures += sum(s.violations for s in at)
        writer.write(f"lemma_{mode}.csv", arrowhead.SWEEP_CSV_HEADER,
                     [s.csv_row() for s in at])
    if below:
        writer.write("below_threshold.csv", arrowhead.SWEEP_CSV_HEADER,
                     [s.csv_row() for group in range(len(modes), len(modes) + len(below))
                      for s in rows(group)])
    return failures


def _scarce(fun, kept, tried):
    """The ConfigError of a cone draw that kept kept of tried candidates."""
    return ConfigError(
        f"kinds: {fun.label} at n = {fun.n} kept {kept} of {tried} "
        f"uniform candidates, fewer than 1 in {CONE_ODDS}; lower n")


def _draw_in_cone(fun, count, rng):
    """``count`` cone points by rejection from ``rng.uniform(-3, 3, n) + 1``:
    the points, and the stream position, of ``count`` rejection loops run
    one after another.  Candidates are drawn and tested in blocks; when a
    block completes the count, the stream is rewound and exactly the
    candidates the loops would consume are drawn again.  Blocks that fall
    short grow up to CONE_BLOCK_MAX; a draw that has tried CONE_TRIES
    candidates and kept fewer than 1 in CONE_ODDS raises ConfigError."""
    found, tried, kept = [], 0, 0
    while kept < count:
        if tried >= CONE_TRIES and kept * CONE_ODDS < tried:
            raise _scarce(fun, kept, tried)
        start = rng.bit_generator.state
        # the lowest shipped acceptance rate at n = 3 is 8/27 (ma), so one
        # block of four candidates per point usually suffices
        block = max(16, 4 * (count - kept), min(tried, CONE_BLOCK_MAX))
        lam = rng.uniform(-3.0, 3.0, (block, fun.n)) + 1.0
        hits = np.flatnonzero(cones.in_cone(fun, lam))[:count - kept]
        if kept + hits.size == count:
            rng.bit_generator.state = start
            rng.uniform(-3.0, 3.0, (hits[-1] + 1, fun.n))
        found.append(lam[hits])
        tried += block
        kept += hits.size
    return np.concatenate(found)


def _level_draws(fun, count, rng):
    """``count`` (lam, sigma) pairs, as ``count`` runs of the loop
    ``lam = _draw_in_cone(fun, 1, rng)[0]; sigma = rng.uniform(0.2, 4.0)``
    would draw them, read from blocks of ``rng.random()`` doubles
    (``rng.uniform(lo, hi)`` is ``lo + (hi - lo) * rng.random()``, bit for
    bit).  The candidates of a level starting at offset p of a block sit
    at p, p + n, ..., so one in_cone call per offset residue mod n tests
    every candidate of the block, and the levels are walked over the
    hits.  The stream is then rewound and exactly the doubles the loop
    consumed are drawn again.  A level that runs past its block carries
    on in the next, whose size follows _draw_in_cone's rule; a level
    without a hit in CONE_TRIES candidates raises ConfigError, as
    _draw_in_cone(fun, 1, rng) does."""
    n = fun.n
    lam, sigma = np.empty((count, n)), np.empty(count)
    done = tried = 0
    while done < count:
        if tried >= CONE_TRIES:
            raise _scarce(fun, 0, tried)
        start = rng.bit_generator.state
        rows = max(16, 4 * (count - done), min(tried, CONE_BLOCK_MAX))
        u = rng.random(rows * n + count - done)
        cand = -3.0 + 6.0 * u + 1.0
        hits = [cones.in_cone(fun, cand[r:r + (u.size - r) // n * n].reshape(-1, n))
                for r in range(min(n, count - done))]
        pos = 0
        while done < count:
            scan = hits[pos % n][pos // n:][:CONE_TRIES - tried]
            h = int(scan.argmax()) if scan.any() else scan.size  # rows before the hit
            end = pos + (h + 1) * n  # the offset of sigma
            if h == scan.size or end >= u.size:  # no hit, or no room for sigma
                tried, pos = tried + h, pos + h * n
                break
            lam[done], sigma[done] = cand[end - n:end], 0.2 + (4.0 - 0.2) * u[end]
            done, tried, pos = done + 1, 0, end + 1
        rng.bit_generator.state = start
        rng.random(pos)
    return lam, sigma


def _cone_draws(fun, samples, rng):
    """(lam, mu, level_lam, sigma), drawn in the order of the per-sample
    loop they replace: lam then mu per sample, then lam then sigma per
    level."""
    pairs = _draw_in_cone(fun, 2 * samples, rng).reshape(samples, 2, fun.n)
    level_lam, sigma = _level_draws(fun, max(1, samples // 10), rng)
    return pairs[:, 0], pairs[:, 1], level_lam, sigma


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
        n = _value(cfg, "n", 3, int)
        kinds = str(cfg.get("kinds", "sigma1,sigmaK:2,ma,quotient:1:2")).split(",")
        funs = [cones.parse_kind(name.strip(), n) for name in kinds]
        samples = _value(cfg, "samples", 1000, int)
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
    config = SolverConfig(**{key: _value(cfg, key, value, type(value))
                             for key, value in vars(SolverConfig()).items()})
    _require(0 < config.tolerance < math.inf,
             "tolerance: must be positive and finite")
    _require(config.max_newton >= 1, "max_newton: must be at least 1")
    return config


def _geometry(cfg, profile):
    res = _value(cfg, "resolution", 16 if profile == FAST else 32, int)
    name = str(cfg.get("geometry", "complex"))
    _require(name in ("complex", "riemannian"),
             "geometry: must be complex or riemannian")
    unread = "n" if name == "riemannian" else "d"
    _require(unread not in cfg, f"{unread}: not read with geometry = {name}")
    if name == "riemannian":
        geom = CylinderGeometry(d=_value(cfg, "d", 3, int), resolution=res)
    else:
        geom = GridGeometry(n=_value(cfg, "n", 2, int), resolution=res)
    nodes = math.prod(geom.interior_shape)
    _require(nodes <= MAX_INTERIOR_NODES,
             f"grid has {nodes} interior nodes, more than the "
             f"{MAX_INTERIOR_NODES} a run can hold (lower n, d or resolution)")
    return geom


def cmd_solve(cfg, writer, seed, profile):
    with _config_errors():
        geom = _geometry(cfg, profile)
        fun = cones.parse_kind(str(cfg.get("kind", "ma")), geom.form_dim)
        phi, sub = str(cfg.get("phi", "zero")), str(cfg.get("subsolution", "star-bump"))
        _require("scale" not in cfg or "scaled-cos" in (phi, sub),
                 "scale: not read unless phi or subsolution is scaled-cos")
        prob = build_problem(geom, fun, str(cfg.get("psi", "manufactured")),
                             phi, sub, scale=_value(cfg, "scale", 1.0))
        config = _solver_config(cfg)
        dump = str(cfg.get("dump_fields", "none")).replace(",", " ").split()
        _require(set(dump) <= {"none", "csv", "raw"},
                 "dump_fields: every entry must be none, csv or raw")
        _require("raw" not in dump or geom.real_dims <= 6,
                 "dump_fields: raw needs at most 6 real directions")
    try:
        u, report = continuity_solve(fun, prob.chi, prob.psi, prob.phi,
                                     prob.u_sub, config)
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
    return int(report.comparison_violations != 0)


def cmd_boundary_scaling(cfg, writer, seed, profile):
    # the ratio study is resolution-stable at 16 per direction; config may
    # override, the profile does not
    with _config_errors():
        geom = _geometry(cfg, FAST)
        fun = cones.parse_kind(str(cfg.get("kind", "ma")), geom.form_dim)
        scales = _listed(cfg, "scales", "1 2 4 8")
        config = _solver_config(cfg)
    rows, ratios, failures, failed = [], [], 0, []
    for s in scales:
        with _config_errors():
            prob = build_problem(geom, fun, "one", "scaled-cos", "scaled-cos", scale=s)
        try:
            u, rep = continuity_solve(fun, prob.chi, prob.psi, prob.phi,
                                      prob.u_sub, config)
        except SOLVE_ERRORS:
            failures += 1
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
            failures += rep.comparison_violations
            failed.append(f"{rep.comparison_violations} comparison "
                          f"violations at s={s!r}")
    writer.write("boundary_scaling.csv",
                 "s,sup_grad,sup_ddbar_boundary,ratio", rows)
    if ratios and not max(ratios) <= 10.0 * min(ratios):
        failures += 1
        failed.append(f"boundary ratios {min(ratios)!r} to {max(ratios)!r} "
                      "spread by more than 10")
    if failed:
        print(f"boundary-scaling failed: {'; '.join(failed)}", file=sys.stderr)
    return failures


def cmd_degenerate(cfg, writer, seed, profile):
    with _config_errors():
        geom = _geometry(cfg, FAST)
        fun = cones.parse_kind(str(cfg.get("kind", "ma")), geom.form_dim)
        eps_list = _listed(cfg, "eps_list", "0.1 0.01 0.001")
        _require(all(e > 0 for e in eps_list),
                 "eps_list: every value must be positive")
        prob = build_problem(geom, fun, "degenerate-cos", "zero", "zero")
        config = _solver_config(cfg)
    rows_data = degenerate_sweep(fun, prob.chi, prob.psi, prob.phi, prob.u_sub,
                                 eps_list, config)
    rows, laps, failed = [], [], []
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
    if failed:
        print(f"degenerate failed: {'; '.join(failed)}", file=sys.stderr)
    return len(failed)


COMMANDS = {
    "lemma-sweep": cmd_lemma_sweep,
    "cone-check": cmd_cone_check,
    "solve": cmd_solve,
    "boundary-scaling": cmd_boundary_scaling,
    "degenerate": cmd_degenerate,
}

_PROBLEM_KEYS = ("geometry", "n", "d", "resolution", "kind")
_SOLVER_KEYS = tuple(vars(SolverConfig()))

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
    except OSError as exc:  # --out, or a write into it
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
