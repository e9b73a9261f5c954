"""Per-layer spans recorded from outside the program.

The tracer replaces module attributes of ``hessiancone`` with timing
wrappers.  Every call through a wrapped attribute records one span (layer,
start, end, parent span, note) in flat in-memory arrays; nothing is
aggregated while the workload runs.  After the timed rounds the spans are
written out and reduced to per-layer metrics: a layer's self time is the
duration of its spans minus the part covered by their child spans.

A function is wrapped under every module attribute the program calls it
through (``solve.linearize`` and ``operators.linearize`` get the same
wrapper), because ``from .operators import linearize`` binds a second name.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

ROOT_SETUP = "bench.setup"
ROOT_OP = "bench.op"

# (module, attribute path, layer).  The private names are the layer
# boundaries that have no public name: a continuity stage attempt, a
# residual evaluation (stage start and every damping trial) and the
# preconditioner apply handed to LGMRES.
WRAPPED = (
    ("hessiancone.presets", "build_problem", "presets.build"),
    ("hessiancone.operators", "form_field", "operators.hessian"),
    ("hessiancone.solve", "form_field", "operators.hessian"),
    ("hessiancone.operators", "eigen_field", "operators.eigen"),
    ("hessiancone.solve", "eigen_field", "operators.eigen"),
    ("hessiancone.operators", "linearize", "operators.linearize"),
    ("hessiancone.solve", "linearize", "operators.linearize"),
    ("hessiancone.operators", "coefficient_tensor", "operators.coeff"),
    ("hessiancone.solve", "coefficient_tensor", "operators.coeff"),
    ("hessiancone.operators", "apply_second_order", "operators.apply"),
    ("hessiancone.linsolve", "apply_second_order", "operators.apply"),
    ("hessiancone.solve", "apply_second_order", "operators.apply"),
    ("hessiancone.linsolve", "solve_dirichlet", "linsolve.solve"),
    ("hessiancone.solve", "solve_dirichlet", "linsolve.solve"),
    ("hessiancone.linsolve", "_MeanCoefficientInverse.apply", "linsolve.precond"),
    ("hessiancone.cones", "elem_sym", "cones.eval"),
    ("hessiancone.cones", "f_many", "cones.eval"),
    ("hessiancone.cones", "grad_many", "cones.eval"),
    ("hessiancone.cones", "ray_intersect", "cones.ray"),
    ("hessiancone.cones", "in_cone", "cones.check"),
    ("hessiancone.cones", "f_eval", "cones.check"),
    ("hessiancone.cones", "f_grad", "cones.check"),
    ("hessiancone.cones", "fd_grad", "cones.check"),
    ("hessiancone.cones", "default_beta", "cones.check"),
    ("hessiancone.cones", "subsolution_gap", "cones.check"),
    ("hessiancone.cones", "make_level_set_point", "cones.check"),
    ("hessiancone.cones", "check_fi_sum_bound", "cones.check"),
    ("hessiancone.solve", "continuity_solve", "solve.continuation"),
    ("hessiancone.solve", "_newton_solve", "solve.stage"),
    ("hessiancone.solve", "_residual_and_mask", "solve.residual"),
    ("hessiancone.solve", "estimate_report", "solve.diagnostics"),
    ("hessiancone.solve", "harmonic_majorant", "solve.diagnostics"),
    ("hessiancone.solve", "comparison_check", "solve.diagnostics"),
    ("hessiancone.arrowhead", "sweep_at_threshold", "arrowhead.sweep"),
    ("hessiancone.arrowhead", "sweep_below_threshold", "arrowhead.sweep"),
    ("hessiancone.cli", "main", "cli"),
)

# Spans whose self time is driver glue rather than work of a layer; the
# coverage metric counts everything else.
GLUE = (ROOT_OP, "solve.continuation", "solve.stage", "solve.residual")


def _stage_note(result):
    """Accepted Newton updates of a stage (0 marks a stage with no work)."""
    return len(result[1].dampings)


def _sweep_note(result):
    return int(result.trials)


NOTES = {"solve.stage": _stage_note, "arrowhead.sweep": _sweep_note}

# note value of a span whose call raised
FAILED = -1


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self):
        self.layers = []
        self._layer_ids = {}
        self.layer = array("i")
        self.parent = array("i")
        self.note = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.missing = []

    def layer_id(self, name):
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def wrap(self, fn, layer):
        lid = self.layer_id(layer)
        note_fn = NOTES.get(layer)
        tr = self

        def traced(*args, **kwargs):
            idx = len(tr.layer)
            tr.layer.append(lid)
            tr.parent.append(tr.current)
            tr.note.append(0)
            tr.end.append(0.0)
            prev, tr.current = tr.current, idx
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.end[idx] = perf_counter()
                tr.current = prev
                tr.note[idx] = FAILED
                raise
            tr.end[idx] = perf_counter()
            tr.current = prev
            if note_fn is not None:
                tr.note[idx] = note_fn(result)
            return result

        return traced

    def span(self, layer, fn, *args):
        """Run fn(*args) as a span of the benchmark's own (a root)."""
        return self.wrap(fn, layer)(*args)

    def install(self):
        """Wrap every attribute of WRAPPED; one wrapper per function."""
        wrappers = {}
        for modname, path, layer in WRAPPED:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{path}")
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, layer)
            setattr(owner, attr, wrappers[id(fn)])

    def write(self, path):
        """Spans as a compressed .npz: layer names, and per span the layer
        index, parent span (-1 for a root), note and start/end seconds."""
        np.savez_compressed(
            path, layers=np.array(self.layers), layer=np.array(self.layer),
            parent=np.array(self.parent), note=np.array(self.note),
            start=np.array(self.start), end=np.array(self.end),
        )


def per_span_cost(repeats=20000):
    """Seconds a span adds to one call, from a wrapped no-op."""

    def noop():
        return None

    tr = Tracer()
    wrapped = tr.wrap(noop, "calibration")
    best = np.inf
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(repeats):
            noop()
        t1 = perf_counter()
        for _ in range(repeats):
            wrapped()
        t2 = perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / repeats)
        del tr.layer[:], tr.parent[:], tr.note[:], tr.start[:], tr.end[:]
    return max(best, 0.0)


def layer_metrics(tr, rounds, span_cost):
    """Per-layer metrics from the recorded spans.

    Spans below the single ROOT_SETUP feed only ``presets.build_s``; every
    other metric reads the spans below ROOT_OP roots and is per round.
    """
    n = len(tr.layer)
    layer = np.frombuffer(tr.layer, dtype=np.int32, count=n)
    parent = np.frombuffer(tr.parent, dtype=np.int32, count=n)
    note = np.frombuffer(tr.note, dtype=np.int64, count=n)
    ends = np.frombuffer(tr.end, count=n)
    dur = ends - np.frombuffer(tr.start, count=n)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child

    # the root each span descends from (parents precede children)
    root = np.arange(n)
    for i in range(n):
        if parent[i] >= 0:
            root[i] = root[parent[i]]
    ids = {name: i for i, name in enumerate(tr.layers)}

    def lid(name):
        return ids.get(name, -1)

    op_roots = layer == lid(ROOT_OP)
    in_op = op_roots[root]
    in_setup = (layer == lid(ROOT_SETUP))[root]
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)

    def sel(name, where=None):
        m = (layer == lid(name)) & in_op
        return m if where is None else m & where

    def self_s(name):
        return float(self_t[sel(name)].sum())

    def entries(name):
        """Calls into the layer from outside it (nested calls count once)."""
        return int(np.count_nonzero(sel(name, parent_layer != lid(name))))

    def inclusive_s(name, mask=in_op):
        m = (layer == lid(name)) & mask & (parent_layer != lid(name))
        return float(dur[m].sum())

    stage = sel("solve.stage")
    accepted = stage & (note >= 0)
    residual = sel("solve.residual")
    trials = np.count_nonzero(residual & accepted[np.maximum(parent, 0)]
                              & has_parent) - np.count_nonzero(accepted)
    newton = int(note[accepted].sum())
    solves = entries("linsolve.solve")
    matvecs = np.count_nonzero(sel("operators.apply", parent_layer == lid("linsolve.solve")))

    # solve_riemannian's tangential check runs in the op after the
    # continuation returns
    cont = sel("solve.continuation", parent_layer == lid(ROOT_OP))
    tangential = float((ends[parent[cont]] - ends[cont]).sum())

    op_time = float(dur[op_roots].sum())
    glue = sum(float(self_t[(layer == lid(g)) & in_op].sum()) for g in GLUE)
    spans_in_ops = int(np.count_nonzero(in_op & ~op_roots))
    sweep_s = inclusive_s("arrowhead.sweep")
    sweep_trials = int(note[sel("arrowhead.sweep")].sum())
    attempts = int(np.count_nonzero(stage))

    def ratio(a, b):
        return float(a) / b if b else 0.0

    raw = {
        "operators.hessian_s": (self_s("operators.hessian"), "s"),
        "operators.hessian_calls": (entries("operators.hessian"), "count"),
        "operators.eigen_s": (self_s("operators.eigen"), "s"),
        "operators.eigen_calls": (entries("operators.eigen"), "count"),
        "operators.linearize_s": (self_s("operators.linearize"), "s"),
        "operators.linearize_calls": (entries("operators.linearize"), "count"),
        "operators.coeff_s": (self_s("operators.coeff"), "s"),
        "operators.apply_s": (self_s("operators.apply"), "s"),
        "operators.apply_calls": (entries("operators.apply"), "count"),
        "linsolve.solves": (solves, "count"),
        "linsolve.self_s": (self_s("linsolve.solve"), "s"),
        "linsolve.precond_s": (self_s("linsolve.precond"), "s"),
        "linsolve.precond_calls": (entries("linsolve.precond"), "count"),
        "cones.eval_s": (self_s("cones.eval"), "s"),
        "cones.eval_calls": (entries("cones.eval"), "count"),
        "cones.ray_s": (self_s("cones.ray"), "s"),
        "cones.ray_calls": (entries("cones.ray"), "count"),
        "cones.check_s": (self_s("cones.check"), "s"),
        "solve.stage_attempts": (attempts, "count"),
        "solve.stages": (int(np.count_nonzero(accepted)), "count"),
        "solve.empty_stages": (int(np.count_nonzero(accepted & (note == 0))), "count"),
        "solve.newton_steps": (newton, "count"),
        "solve.residual_evals": (int(np.count_nonzero(residual)), "count"),
        "solve.residual_s": (float(dur[residual].sum()), "s"),
        "solve.diagnostics_s": (inclusive_s("solve.diagnostics") + tangential, "s"),
        "arrowhead.sweep_s": (sweep_s, "s"),
        "arrowhead.trials": (sweep_trials, "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.overhead_s": (span_cost * spans_in_ops, "s"),
    }
    out = {"presets.build_s": (inclusive_s("presets.build", in_setup), "s")}
    out.update((name, (value / rounds, unit)) for name, (value, unit) in raw.items())
    out["linsolve.matvecs_per_solve"] = (ratio(matvecs, solves), "ratio")
    out["solve.stage_accept_ratio"] = (ratio(np.count_nonzero(accepted), attempts), "ratio")
    out["solve.damping_accept_ratio"] = (ratio(newton, trials), "ratio")
    out["arrowhead.trials_per_s"] = (ratio(sweep_trials, sweep_s), "1/s")
    out["trace.coverage"] = (ratio(op_time - glue, op_time), "ratio")
    return out

