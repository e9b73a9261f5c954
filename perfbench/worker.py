"""One benchmark workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Sets the workload up (imports, geometry, ``build_problem``, config), then
runs whole rounds of its operations until ``--seconds`` have passed, then
checks every round's output with :mod:`checks`.  Prints one JSON line:
the monotonic time at which the inputs were ready, per-round wall and CPU
times, peak RSS, attempted/failed operation counts, the check problems and,
with ``--trace 1``, the per-layer metrics.  ``run.py`` drives it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402

# Solve workloads use SolverConfig() defaults and zero boundary data.
# eps shifts psi as degenerate_sweep does; it keeps the degenerate
# right-hand side strictly positive.
SOLVES = {
    "ma16-manufactured": dict(complex=True, dim=2, m=16, psi="manufactured",
                              sub="star-bump", eps=0.0),
    "ma16-degenerate": dict(complex=True, dim=2, m=16, psi="degenerate-cos",
                            sub="zero", eps=1e-3),
    "cyl32-manufactured": dict(complex=False, dim=3, m=32, psi="manufactured",
                               sub="star-bump", eps=0.0),
}
STUDY_NS = (2, 3, 4, 5, 6, 7, 8)
STUDY_EPS = (0.05, 0.2, 1.0)
CONE_KINDS = ("sigma1", "sigmaK:2", "ma", "quotient:1:2")
CONE_SAMPLES = 1000
# Both commands run at the CLI's default seed, whatever --seed says: each
# raises a false alarm on some seeds (lemma-sweep's distinct sweep at
# seed 11, cone-check's fd_gradient at seeds 0, 3, 5, 12, 16; see
# CHANGES.md), which would make the failure share differ between runs.
# At seed 0 lemma-sweep passes and cone-check fails on every run.
STUDY_SEED = 0
# --seed picks which of the sweep's first 512 specs are re-checked
RECHECK_PICKS = 16
WORKLOADS = (*SOLVES, "studies")


def cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class SolveWorkload:
    """One continuity solve per round."""

    def __init__(self, name):
        from hessiancone import cones, presets, solve
        from hessiancone.geometry import CylinderGeometry, GridGeometry, ScalarField

        self.spec = spec = SOLVES[name]
        m = spec["m"]
        if spec["complex"]:
            geom = GridGeometry(n=spec["dim"], resolution=m)
        else:
            geom = CylinderGeometry(d=spec["dim"], resolution=m)
        self.fun = cones.monge_ampere(spec["dim"])
        self.prob = presets.build_problem(geom, self.fun, spec["psi"], "zero", spec["sub"])
        self.psi = self.prob.psi
        if spec["eps"]:
            self.psi = ScalarField(geom=geom, values=self.prob.psi.values + spec["eps"])
        self.solver_name = "continuity_solve" if spec["complex"] else "solve_riemannian"
        self.solve_module = solve
        self.config = solve.SolverConfig()

    def operations(self, round_index):
        def op():
            solver = getattr(self.solve_module, self.solver_name)
            u, _ = solver(self.fun, self.prob.chi, self.psi, self.prob.phi,
                          self.prob.u_sub, self.config)
            return u.values

        return [op]

    def failed(self, output):
        return False

    def check(self, outputs):
        spec = self.spec
        problems = []
        for u in outputs:
            if spec["psi"] == "degenerate-cos":
                problems += checks.check_complex_degenerate(u, spec["m"], spec["eps"])
            elif spec["complex"]:
                problems += checks.check_complex_manufactured(u, spec["m"])
            else:
                problems += checks.check_real_manufactured(u, spec["m"])
        return problems


class StudiesWorkload:
    """lemma-sweep --profile full, then cone-check, through cli.main at
    STUDY_SEED; an operation fails when its exit status is not 0."""

    def __init__(self, seed, workdir):
        from hessiancone import cli

        self.cli = cli
        self.picks = np.sort(np.random.default_rng(seed).choice(512, RECHECK_PICKS,
                                                                replace=False))
        self.workdir = workdir
        self.config = workdir / "cone_check.cfg"
        self.config.write_text(
            f"kinds = {','.join(CONE_KINDS)}\nsamples = {CONE_SAMPLES}\n"
        )

    def operations(self, round_index):
        out = str(self.workdir / f"round{round_index}")
        seed = ["--seed", str(STUDY_SEED)]
        lemma = ["lemma-sweep", "--profile", "full", *seed]
        cone = ["cone-check", "--config", str(self.config), *seed]
        return [
            lambda: ("lemma", out, self.cli.main(lemma + ["--out", out])),
            lambda: ("cone", out, self.cli.main(cone + ["--out", out])),
        ]

    def failed(self, output):
        return output[2] != 0

    def check(self, outputs):
        codes = {}
        for command, out, code in outputs:
            codes.setdefault(out, {})[command] = code
        problems = []
        for out, by_command in codes.items():
            problems += checks.check_studies(
                out, STUDY_SEED, self.picks, STUDY_NS, STUDY_EPS, CONE_KINDS,
                cone_exit=by_command.get("cone"))
        return problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        span_cost = spans.per_span_cost()

    def setup():
        if args.workload == "studies":
            return StudiesWorkload(args.seed, workdir)
        return SolveWorkload(args.workload)

    workload = tracer.span(spans.ROOT_SETUP, setup) if tracer else setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    outputs, walls, cpus = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        ops = workload.operations(len(walls))
        w0, c0 = time.perf_counter(), cpu_seconds()
        for op in ops:
            attempted += 1
            try:
                output = tracer.span(spans.ROOT_OP, op) if tracer else op()
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            failed += workload.failed(output)
            outputs.append(output)
        walls.append(time.perf_counter() - w0)
        cpus.append(cpu_seconds() - c0)
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ready": ready,
        "walls": walls,
        "cpus": cpus,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer, len(walls), span_cost)
        result["missing_wraps"] = tracer.missing
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.npz")
    result["problems"] = workload.check(outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
