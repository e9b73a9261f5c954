"""Dirichlet solver and a-priori-estimate diagnostics.

The Dirichlet problem f(lambda(chi + dd-bar u)) = psi is solved by one
damped inexact Newton stage on the discrete system, started at the
subsolution with its faces set to the boundary data.  A step solves the
f-space linearization with the right-hand side of the Newton step for
the same equation in polynomial form, f^q = psi^q (as Loeper & Rapetti,
C. R. Acad. Sci. Paris 340, 2005, do for Monge-Ampere), whose linear
model stays inside the cone where -r's need not (_polynomial_step); for
q = 1 it is -r.  The residual, the tolerance and the stop stay in
f-space.  Damping keeps every node's sigma_1..sigma_m positive (the
cone) and the sup-norm residual decreasing.  Every step first tries the
full step; when that leaves the cone, the next trial is EXIT_FRACTION of
theta*, where the step's ray leaves the cone (the smallest positive root
of sigma_m(g + theta H(delta)) over the nodes, operators.cone_exit), as
interior-point methods step a fixed fraction to the boundary (Waechter &
Biegler, Math. Program. 106, 2006); the trials halve from there.  Each
linear solve runs to the Eisenstat-Walker forcing term (SIAM J. Sci.
Comput. 17, 1996): ETA_MAX on the first step, which has no residual
history, then 0.9 (r_k / r_{k-1})^2 of the sup-norm residuals, raised
to OVERSOLVE tolerance / r_k so the last step is not oversolved, within
[DEFAULT_RTOL, ETA_MAX]; it stops on its true residual, near that term
rather than far below it.  The stage's
StageRecord (SolveReport.stage) holds per step the residual, the
damping, every damping factor tried with its trial's residual, theta*
when the full step left the cone, the linear solve's record (forcing
term, operator applications, residual reached) and the wall seconds of
its phases (never written to a CSV).
A stage that fails raises ContinuationError with its reason.  The same
driver covers the cylinder, with the real Hessian for the complex one
and the tangential boundary check among the input checks.

A degenerate solve (psi <= f(lambda(g[u_sub])) / DEGENERATE_RATIO at
some node) on an even grid of at least 2 NESTED_MIN_RESOLUTION nodes per
period starts its Newton stage nested: the same stage, run on the grid
of every other node, is prolonged to the fine grid (_prolonged:
trigonometric interpolation along each periodic axis, exact below the
coarse Nyquist frequency whether the half grid is even or odd) and
lifted into the cone by the smallest bump c x_n (x_n - 1) that admits
it (_bump).  From a good coarse start the number of Newton steps does
not grow with the grid (Allgower, Boehmer, Potra & Rheinboldt, SIAM J.
Numer. Anal. 23, 1986), where the cold start spends most of its steps
getting from the subsolution to the solution.  When the coarse stage
fails, no bump admits the start or the fine stage fails, the solve runs
the cold stage instead, and the SolveReport says why.

Diagnostics implement the measured forms of the boundary estimates: the
harmonic majorant / comparison sandwich, sup-norm and Hessian reports with
one-sided boundary stencils, the boundary-ratio and tangential-normal
quotients, and a local barrier field whose discrete ellipticity defect can
be inspected near a boundary point.  The sup|ddbar u| entries are exact
without a dense eigenvalue solve at every node: two-sided trace bounds
on each node's extreme eigenvalues (Wolkowicz & Styan 1980) select the
nodes that can attain an extreme, and those alone are solved densely, in
one call (_extreme_eigenvalues).  A SolveReport keeps the wall seconds of
the subsolution check, the Newton stage and the diagnostics, never
written to a CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from time import perf_counter

import numpy as np

from . import cones
from .geometry import ScalarField
from .linsolve import DEFAULT_RTOL, LinearSolveError, solve_dirichlet
from .operators import (
    AdmissibilityError,
    apply_second_order,
    boundary_complex_hessian,
    boundary_real_hessian,
    coefficient_tensor,
    cone_exit,
    eigen_field,
    first_derivative_centered,
    form_field,
    gradient_boundary,
    gradient_interior,
    linearize,
    newton_state,
    newton_tensors,
    _dense,
    _dim,
    _index,
    _padded,
    _pairs,
)

__all__ = [
    "SolverConfig",
    "StageRecord",
    "SolveReport",
    "BarrierSpec",
    "BarrierReport",
    "SubsolutionError",
    "ContinuationError",
    "continuity_solve",
    "solve_riemannian",
    "harmonic_majorant",
    "comparison_check",
    "estimate_report",
    "barrier_eval",
    "degenerate_sweep",
    "comparison_tolerance",
    "newton_tail_ratios",
    "SOLVE_ERRORS",
]

BOUNDARY_MATCH_ATOL = 1e-10
SUBSOLUTION_SLACK = 1e-12
MAX_HALVINGS = 10  # a step's trials halve at most down to 2**-MAX_HALVINGS
# tau: a damped step's second trial is tau theta*, short of the cone exit
# theta*.  0.99 jammed a cold degenerate solve (theta 0.98 -> 0 in 9
# steps); 0.9 did not
EXIT_FRACTION = 0.9
ETA_MAX = 1e-2  # largest forcing term; looser ones cost Newton steps
# the forcing term is raised to OVERSOLVE * tolerance / r_k.  The linear
# solve bounds a relative 2-norm residual and Newton stops on the sup
# norm: with 0.5 the last step on the 16^3 cylinder reached 1.9e-8
# against the tolerance 1e-8 and cost a fifth Newton step
OVERSOLVE = 0.1
# _extreme_eigenvalues: the widening of each node's trace bounds relative
# to its bound on ||A||_2 (64 ulps)
EXTREME_SLACK = 64 * np.finfo(float).eps
# _cone_exit: nodes per block, in whole layers of the first axis.  Blocks
# of about this size ran as fast as or faster than one call over all
# nodes at 16^4, 32^4 and on the 32^3 cylinder; single layers of the
# cylinder (992 nodes) ran slower
EXIT_BLOCK = 8192
# _fine_stage: a solve starts nested when f(lambda(g[u_sub])) >=
# DEGENERATE_RATIO psi at some interior node and the half grid has at
# least NESTED_MIN_RESOLUTION nodes per period.  The manufactured 16^4 and
# 32^3 problems peak at 1.13 and 1.27, degenerate-cos + 1e-3 at 1000
DEGENERATE_RATIO = 2.0
NESTED_MIN_RESOLUTION = 8


class SubsolutionError(ValueError):
    """The supplied subsolution violates a precondition."""


class ContinuationError(RuntimeError):
    """The Newton stage from the subsolution to the target failed: its
    start was inadmissible, a linear solve failed, no damping factor
    qualified or the iteration budget ran out.  The message is the
    reason; ``residual`` is the last sup-norm residual reached (nan when
    the start was inadmissible)."""

    def __init__(self, message, residual=np.nan):
        self.residual = residual
        super().__init__(message)


# errors of a solve that a sweep or the CLI records as a failure row
SOLVE_ERRORS = (SubsolutionError, ContinuationError, LinearSolveError,
                AdmissibilityError)


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-8
    max_newton: int = 30


@dataclass
class StageRecord:
    """The one Newton stage of a solve: the residual before and after
    each Newton step, each step's damping factor and its
    LinearSolveRecord, per step the damping trials in order as (factor,
    sup-norm residual or "inadmissible"), the last being the accepted
    one, per step the cone exit theta* (_cone_exit) when its full trial
    left the cone and nan otherwise (nan too for cone order m >= 4); it
    set that step's second trial, EXIT_FRACTION theta*, or 0.5 when
    theta* >= 1 or nan; and per step the wall seconds of its phases
    (linearization and coefficient tensor, linear solve, damping
    trials)."""

    residuals: list
    dampings: list
    linear: list = field(default_factory=list)
    trials: list = field(default_factory=list)
    cone_exits: list = field(default_factory=list)
    seconds: list = field(default_factory=list)


@dataclass
class SolveReport:
    """Norms, boundary-estimate ratios, and solve statistics; ``stage``
    is the solve's StageRecord (None from estimate_report alone)."""

    label: str = ""
    resolution: int = 0
    converged: bool = False
    final_residual: float = np.nan
    sup_u: float = np.nan
    sup_grad_interior: float = np.nan
    sup_grad_boundary: float = np.nan
    sup_ddbar_interior: float = np.nan
    sup_ddbar_boundary: float = np.nan
    boundary_ratio: float = np.nan
    tangential_normal_ratio: float = np.nan
    global_second_ratio: float = np.nan
    comparison_violations: int = -1
    newton_iterations: int = 0
    boundary_tangential_min: float = np.nan
    stage: StageRecord | None = None
    # degenerate_sweep's sup_lap, max |tr form_field(u)| over the interior
    # nodes (never in CSV_FIELDS)
    sup_lap: float = np.nan
    # wall seconds of the subsolution check, the Newton stage (with the
    # coarse stage of a nested start) and the diagnostics (never in
    # CSV_FIELDS)
    seconds: list = field(default_factory=list)
    # the Newton stage's start, "cold" (_stage_start) or "nested"
    # (_nested_start); why a nested start fell back to the cold one ("" when
    # none was tried or none fell back); the bump c of the nested start; and
    # the coarse stage's StageRecord (None when none ran).  None of them is
    # in CSV_FIELDS
    start: str = "cold"
    fallback: str = ""
    bump: float = 0.0
    coarse: StageRecord | None = None

    CSV_FIELDS = (
        "label,resolution,converged,final_residual,sup_u,"
        "sup_grad_interior,sup_grad_boundary,sup_ddbar_interior,"
        "sup_ddbar_boundary,boundary_ratio,tangential_normal_ratio,"
        "global_second_ratio,comparison_violations,newton_iterations"
    )

    def csv_row(self) -> str:
        """The CSV_FIELDS cells: a bool as 0/1, an int or str as itself,
        anything else as repr(float)."""
        return ",".join(_csv_cell(getattr(self, name))
                        for name in self.CSV_FIELDS.split(","))


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def comparison_tolerance(geom) -> float:
    return 10.0 * geom.h * geom.h + 1e-8


def newton_tail_ratios(record, count: int = 2) -> list:
    """Residual reduction factors r_{k-1} / r_k of a StageRecord's last
    count Newton steps, newest first (fewer when it took fewer)."""
    r = record.residuals
    return [r[i - 1] / r[i] for i in range(len(r) - 1, 0, -1)][:count]


def _interior_values(geom, f):
    return f.values[geom.interior] if isinstance(f, ScalarField) else np.asarray(f)


def _residual_and_mask(u, fun, chi, psi_interior, state=None):
    """Interior residual, its sup norm and newton_state at u (for the
    linearization at u), or (None, None, None) when some node is
    inadmissible.  ``state`` is newton_state(u, fun, chi) when the caller
    has it already."""
    try:
        if state is None:
            state = newton_state(u, fun, chi)
    except AdmissibilityError:
        return None, None, None
    r = cones.f_from_sigmas(fun, state[0]) - psi_interior
    return r, float(np.abs(r).max()), state


def _forcing_term(residuals, tolerance) -> float:
    """Relative tolerance of the next step's linear solve, from the stage's
    sup-norm residuals so far: ETA_MAX on the first step, then
    0.9 (r_k / r_{k-1})^2 or, when larger, OVERSOLVE tolerance / r_k,
    within [DEFAULT_RTOL, ETA_MAX]."""
    if len(residuals) < 2:
        return ETA_MAX
    r_prev, r = residuals[-2], residuals[-1]
    eta = max(0.9 * (r / r_prev) ** 2, OVERSOLVE * tolerance / r)
    return max(DEFAULT_RTOL, min(ETA_MAX, eta))


def _polynomial_step(r, psi, power):
    """Right-hand side of the Newton step for f^q = psi^q (q = power),
    which has the f-space equation's solution:
    -(f^q - psi^q) / (q f^(q-1)) with f = r + psi, in the factored form
    -(r / q) sum_{j<q} (psi / f)^j (Horner in psi / f).  It is exactly
    -r for q = 1 and cancels nothing as f -> psi.  Its linear model of
    f^q is f^q + q f^(q-1) rhs = psi^q > 0, where -r asks for
    f^q - q f^(q-1) r, below 0 wherever f > q psi / (q - 1): outside the
    cone, so a degenerate psi damped most early steps."""
    ratio = psi / (r + psi)
    total = 1.0
    for _ in range(power - 1):
        total = 1.0 + ratio * total
    return -(r / power) * total


def _cone_exit(u, delta, fun, chi) -> float:
    """theta* of the step delta from u: the smallest positive root over the
    interior nodes of sigma_m(g(u) + theta H(delta)), m = fun.cone_order,
    with H(delta) = form_field of the update without chi (inf when no ray
    leaves the cone).  nan for m >= 4, where sigma_m's middle coefficients
    are not polarizations of newton_tensors and the damping keeps plain
    halving.  g and H are formed here, on the rejection path only, so no
    per-node field lives through the linear solve.  cone_exit runs over
    blocks of whole first-axis layers, about EXIT_BLOCK nodes each, so
    only g and H are held whole; each node's root does not depend on the
    block it is in."""
    m = fun.cone_order
    if m > 3:
        return np.nan
    H = form_field(ScalarField(geom=u.geom, values=delta))
    g = form_field(u, chi)
    step = max(1, EXIT_BLOCK // int(np.prod(u.geom.interior_shape[1:])))
    return min(float(cone_exit(g[:, k:k + step], H[:, k:k + step], m,
                               u.geom.is_complex).min())
               for k in range(0, g.shape[1], step))


def _newton_solve(u, fun, chi, psi, config, state=None):
    """Damped inexact Newton iteration from u to f = psi.

    Each step solves the f-space linearized system with homogeneous
    Dirichlet data and right-hand side _polynomial_step(r) for the update
    to the forcing term's tolerance, then tries damping factors until one
    keeps every node admissible and reduces the sup-norm residual: first
    1; when that trial leaves the cone, EXIT_FRACTION theta* (theta* the
    cone exit, _cone_exit; 0.5 when theta* >= 1 by rounding, or is nan);
    then halving, down to 2**-MAX_HALVINGS.  Returns (u, StageRecord);
    raises ContinuationError when the start is inadmissible, the linear
    solve fails, no factor qualifies or the iteration budget runs out.  The
    residual r = f - psi, its sup norm and config.tolerance are in f-space.
    u is never written: each iterate is a new field, and with no step the
    start is returned as it is.  ``state`` is newton_state at the start
    when the caller has formed it (_bump).
    """
    geom = u.geom
    r, rn, state = _residual_and_mask(u, fun, chi, psi, state)
    if r is None:
        raise ContinuationError("stage start inadmissible")
    record = StageRecord(residuals=[rn], dampings=[])
    while rn > config.tolerance:
        if len(record.residuals) > config.max_newton:
            raise ContinuationError("newton iteration budget exhausted", rn)
        # the residual's Newton tensors at u feed the linearization and go
        # before C is formed; only C lives on into the linear solve, and
        # nothing after it
        start = perf_counter()
        F, state = linearize(u, fun, chi, state), None
        C = coefficient_tensor(F, geom)
        del F
        linearized = perf_counter()
        # the right-hand side replaces r, so only one of them lives
        # through the linear solve
        rhs, r = _polynomial_step(r, psi, fun.power), None
        try:
            delta, linear = solve_dirichlet(
                C, geom, rhs,
                rtol=_forcing_term(record.residuals, config.tolerance))
        except LinearSolveError as exc:
            raise ContinuationError(str(exc), rn) from exc
        del C, rhs
        solved = perf_counter()
        theta, exit_, tried = 1.0, np.nan, []
        while True:
            trial = ScalarField(geom=geom, values=u.values + theta * delta)
            r_t, rn_t, state = _residual_and_mask(trial, fun, chi, psi)
            tried.append((theta, "inadmissible" if r_t is None else rn_t))
            if r_t is not None and rn_t < rn:
                break
            state = None
            if len(tried) == 1 and r_t is None:
                exit_ = _cone_exit(u, delta, fun, chi)
                theta = EXIT_FRACTION * exit_ if exit_ < 1.0 else 0.5
            else:
                theta *= 0.5
            if theta < 0.5**MAX_HALVINGS:
                raise ContinuationError(
                    "no admissible damping factor reduced the residual", rn)
        u, r, rn = trial, r_t, rn_t
        # the update and the trial's names go, so that no field but u and
        # r lives on into the next linear solve
        del delta, trial, r_t
        record.residuals.append(rn)
        record.dampings.append(theta)
        record.linear.append(linear)
        record.trials.append(tried)
        record.cone_exits.append(exit_)
        record.seconds.append((linearized - start, solved - linearized,
                               perf_counter() - solved))
    return u, record


def _check_subsolution(u_sub, phi, fun, chi, psi_interior):
    """A solve's input checks, run before any Newton work; a failed one
    raises SubsolutionError.  Returns (f(lambda(g[u_sub])), tangential
    minimum): on the cylinder the lowest tangential eigenvalue of g - g_sub
    on the faces, at least -10 h^2; nan on the complex model.  A face's
    block comes from its node layer, where u is phi: read from phi - u_sub."""
    geom = u_sub.geom
    faces = geom.faces
    if np.abs(u_sub.values[faces] - phi.values[faces]).max() > BOUNDARY_MATCH_ATOL:
        raise SubsolutionError("subsolution does not match the boundary data")
    tangential = np.nan
    if not geom.is_complex:
        # the planes of the tangential block, on the periodic axes 0..d-1:
        # its diagonal, then its pairs in row order, as the layout orders them
        d = geom.real_dims - 1
        block = list(range(d)) + [_index(d + 1, a, b) for a, b in _pairs(d)]
        diff = ScalarField(geom=geom, values=phi.values - u_sub.values)
        tangential = min(_extreme_eigenvalues(face[block], False)[0]
                         for face in boundary_real_hessian(diff))
        if tangential < -10.0 * geom.h * geom.h:
            raise SubsolutionError(
                f"tangential boundary monotonicity violated: {tangential!r}")
    try:
        sigma, _ = newton_state(u_sub, fun, chi)
    except AdmissibilityError as exc:
        raise SubsolutionError(f"subsolution not admissible: {exc}") from None
    psi0 = cones.f_from_sigmas(fun, sigma)  # f(lambda(g[u_sub]))
    if np.any(psi0 < psi_interior - SUBSOLUTION_SLACK):
        worst = float((psi_interior - psi0).max())
        raise SubsolutionError(
            f"subsolution inequality violated by {worst!r} at some node"
        )
    return psi0, tangential


def _stage_start(u_sub, phi):
    """u_sub with its faces set to phi's: where the Newton stage starts."""
    u = ScalarField(geom=u_sub.geom, values=u_sub.values.copy())
    u.values[u.geom.faces] = phi.values[u.geom.faces]
    return u


class _Fallback(Exception):
    """A nested start that cannot be used; the message is the reason."""


def _prolonged(U, geom) -> np.ndarray:
    """The values on ``geom``'s grid of the field U on the grid of every
    other node (half the resolution).  Along the Dirichlet axis the
    coarse nodes are kept and each midpoint takes the cubic through its
    four nearest coarse nodes: (-u_{k-1} + 9 u_k + 9 u_{k+1} - u_{k+2}) / 16,
    or (5 u_0 + 15 u_1 - 5 u_2 + u_3) / 16 next to a face.  Along each
    periodic axis in turn, of coarse size m, U is Fourier-interpolated:
    rfft along the axis, the Nyquist coefficient halved when m is even
    (it stands for the two frequencies +-m/2 of the fine grid), and
    irfft at 2m, times 2 (Trefethen, Spectral Methods in MATLAB, 2000,
    ch. 3).  Both are exact below the coarse Nyquist frequency, for odd
    m as for even, and on cubics along the Dirichlet axis; the faces are
    the prolonged ones, not the boundary data."""
    c = np.moveaxis(U, geom.dirichlet_axis, 0)
    v = np.empty((2 * len(c) - 1,) + c.shape[1:])
    v[::2] = c
    v[3:-3:2] = (9.0 * (c[1:-2] + c[2:-1]) - (c[:-3] + c[3:])) / 16.0
    v[1] = (5.0 * c[0] + 15.0 * c[1] - 5.0 * c[2] + c[3]) / 16.0
    v[-2] = (5.0 * c[-1] + 15.0 * c[-2] - 5.0 * c[-3] + c[-4]) / 16.0
    u = np.moveaxis(v, 0, geom.dirichlet_axis)
    for a in geom.periodic_axes:
        m = U.shape[a]
        spec = np.fft.rfft(u, axis=a)
        if m % 2 == 0:
            spec[(slice(None),) * a + (m // 2,)] *= 0.5
        u = 2.0 * np.fft.irfft(spec, n=2 * m, axis=a)
    return u


def _bump(u, fun, chi):
    """The c >= 0 that lifts the field u into the cone by the bump
    c x_n (x_n - 1), added to u's interior nodes in place (m h need not
    round to 1, so the faces get none), and newton_state at u when u is
    admissible as it is (c = 0.0), else None: (c, state).  The bump adds
    B c to every form's Dirichlet diagonal entry (B = 1/2 on the complex
    model, 2 on the cylinder): a rank-one change, along which sigma_k
    moves affinely with slope B (T_{k-1})_nn (T_0 = I), both at index
    k - 1.  c is the largest -sigma_k / slope over the inadmissible nodes,
    over EXIT_FRACTION.  Raises _Fallback when a slope there is not
    positive, or when the sigmas so moved leave the cone at a node."""
    geom, m = u.geom, fun.cone_order
    sigma, tensors = newton_tensors(form_field(u, chi), m, geom.is_complex)
    bad = ~cones.sigmas_in_cone(sigma)
    if not bad.any():
        return 0.0, (sigma, tensors)
    r = geom.form_dim
    rate = 0.5 if geom.is_complex else 2.0
    slope = rate * np.stack([np.broadcast_to(T[r - 1], bad.shape)
                             for T in tensors], axis=-1)
    if not (slope[bad] > 0.0).all():
        raise _Fallback("no positive slope at an inadmissible node")
    c = max(0.0, float((-sigma[bad] / slope[bad]).max())) / EXIT_FRACTION
    sigma += c * slope
    if not cones.sigmas_in_cone(sigma).all():
        raise _Fallback("repaired start inadmissible")
    xn = geom.grids()[geom.dirichlet_axis][geom.interior]
    u.values[geom.interior] += c * (xn * (xn - 1.0))
    return c, None


def _nested_start(u_sub, phi, fun, chi, psi, config, report) -> list:
    """The fine stage's nested start: the Newton stage on the grid of
    every other node, from u_sub, phi and psi injected there, prolonged
    (_prolonged), its faces set to phi's and lifted by _bump.  Returns
    [start, its newton_state or None] (_bump's); records the coarse
    StageRecord and c in ``report``; raises _Fallback when the coarse
    stage fails or no bump admits the start."""
    geom = u_sub.geom
    coarse = replace(geom, resolution=geom.resolution // 2)
    every_other = (slice(None, None, 2),) * geom.real_dims
    inner = list(every_other)
    inner[geom.dirichlet_axis] = slice(1, None, 2)  # interior index 2j - 1
    sub, data = (ScalarField(geom=coarse, values=f.values[every_other])
                 for f in (u_sub, phi))
    try:
        U, report.coarse = _newton_solve(_stage_start(sub, data), fun, chi,
                                         psi[tuple(inner)], config)
    except SOLVE_ERRORS as exc:
        raise _Fallback(f"coarse stage: {exc}") from None
    u = ScalarField(geom=geom, values=_prolonged(U.values, geom))
    u.values[geom.faces] = phi.values[geom.faces]
    report.bump, state = _bump(u, fun, chi)
    return [u, state]


def _fine_stage(u_sub, phi, fun, chi, psi, degenerate, config, report):
    """The solve's Newton stage on its own grid: (u, StageRecord).  It
    starts nested (_nested_start) when psi is ``degenerate``
    (f(lambda(g[u_sub])) >= DEGENERATE_RATIO psi at some node) and the
    grid halves to at least NESTED_MIN_RESOLUTION nodes per period; cold
    (_stage_start) otherwise, or when the nested start or its stage
    fails, with the reason in report.fallback."""
    m = u_sub.geom.resolution
    if degenerate and m % 2 == 0 and m // 2 >= NESTED_MIN_RESOLUTION:
        try:
            # each start (and the nested start's state) is formed in or
            # popped into the call, so that the stage alone holds it and
            # drops it with its first step
            start = _nested_start(u_sub, phi, fun, chi, psi, config, report)
            u, record = _newton_solve(start.pop(0), fun, chi, psi, config,
                                      start.pop())
            report.start = "nested"
            return u, record
        except _Fallback as exc:
            report.fallback = str(exc)
        except SOLVE_ERRORS as exc:
            report.fallback = f"fine stage: {exc}"
    return _newton_solve(_stage_start(u_sub, phi), fun, chi, psi, config)


def continuity_solve(fun, chi, psi, phi, u_sub, config: SolverConfig | None = None):
    """Solve f(lambda(chi + dd-bar u)) = psi, u = phi on the faces, by one
    Newton stage (t = 1 of the continuity path), from the subsolution or,
    for degenerate data on a fine enough grid, from a prolonged
    half-resolution solution (_fine_stage).

    Returns (u, SolveReport), the tangential minimum of the input checks
    (_check_subsolution) in boundary_tangential_min; a failed check raises
    SubsolutionError, a failed stage ContinuationError.
    """
    config = config or SolverConfig()
    start = perf_counter()
    geom = u_sub.geom
    psi_interior = _interior_values(geom, psi)
    psi0, tangential = _check_subsolution(u_sub, phi, fun, chi, psi_interior)
    degenerate = bool(np.any(psi0 >= DEGENERATE_RATIO * psi_interior))
    del psi0  # held by no stage
    checked = perf_counter()

    nested = SolveReport()
    u, record = _fine_stage(u_sub, phi, fun, chi, psi_interior, degenerate,
                            config, nested)

    solved = perf_counter()
    report = replace(estimate_report(u), label=fun.label, converged=True,
                     final_residual=record.residuals[-1],
                     newton_iterations=len(record.dampings), stage=record,
                     boundary_tangential_min=tangential, start=nested.start,
                     fallback=nested.fallback, bump=nested.bump,
                     coarse=nested.coarse)
    w = harmonic_majorant(chi, phi, geom)
    report.comparison_violations = comparison_check(u, u_sub, w)
    report.seconds = [checked - start, solved - checked, perf_counter() - solved]
    return u, report


def solve_riemannian(fun, chi_sym, psi, phi, u_sub, config: SolverConfig | None = None):
    """continuity_solve, whose input checks hold the tangential boundary
    check, on the flat cylinder; a complex geometry is refused."""
    if u_sub.geom.is_complex:
        raise ValueError("solve_riemannian expects a cylinder geometry")
    return continuity_solve(fun, chi_sym, psi, phi, u_sub, config)


def harmonic_majorant(chi, phi, geom) -> ScalarField:
    """Solve trace-Laplacian w = -trace(chi), w = phi on the faces.

    The trace Laplacian is the linearized operator of the identity form:
    sum_i w_{i ibar} (a quarter of the flat Laplacian) on the complex
    model, the full Laplacian on the cylinder.  Its coefficients are
    constant, so C holds one scalar per axis and no plane.
    """
    dim = geom.form_dim
    C = coefficient_tensor(np.ones(dim), geom)
    tr = float(np.trace(chi).real)
    values, _ = solve_dirichlet(
        C, geom, -np.broadcast_to(tr, geom.interior_shape),
        boundary_values=phi.values)
    return ScalarField(geom=geom, values=values)


def comparison_check(u, u_sub, w) -> int:
    """Count nodes violating u_sub - tol <= u <= w + tol."""
    tol = comparison_tolerance(u.geom)
    below = u.values < u_sub.values - tol
    above = u.values > w.values + tol
    return int(np.count_nonzero(below | above))


def _extreme_eigenvalues(forms, is_complex):
    """(lowest, highest) eigenvalue of the Hermitian (``is_complex``) or
    real symmetric forms whose planes ``forms`` holds: the min and max of
    eigen_field over their dense forms, found by solving few nodes
    densely.

    A node's form A has lambda_max in [m + s / sqrt(r - 1), m + s sqrt(r - 1)]
    and lambda_min in [m - s sqrt(r - 1), m - s / sqrt(r - 1)], with
    m = tr A / r and s^2 = (sum_a (A_aa - m)^2 + sum_{a != b} |A_ab|^2) / r
    formed from the planes (Wolkowicz & Styan, Linear Algebra Appl. 29,
    1980; s = 0 for r = 1).  s^2 is summed about m: ||A||_F^2 / r - m^2
    cancels for A near cI and can under-bound lambda_max.  Each bound is
    widened by EXTREME_SLACK of |m| + s sqrt(r - 1) >= ||A||_2, which
    covers its own rounding and LAPACK's backward error.  The node where
    LAPACK's lambda_max is largest has an upper bound at or above every
    node's lower bound: it passes the largest lower bound, or ties with
    that bound's node, which then attains the same value; likewise for
    lambda_min.  eigen_field solves those nodes and the nodes of the two
    inner bounds in one call, so the extreme is the value LAPACK computes
    at the node that attains it, as in a dense solve of the whole stack.
    An empty stack gives (0.0, 0.0).  A NaN or infinite entry, or one
    whose square overflows, gives (nan, nan), where the dense solve need
    not: numpy's eigvalsh returns [0, -0] for a 2 x 2 form with a NaN
    diagonal entry.
    """
    flat = forms.reshape((len(forms), -1))
    if not flat.shape[1]:
        return 0.0, 0.0
    r = _dim(len(flat), is_complex)
    half = r * (r - 1) // 2
    m = sum(flat[:r]) / r
    squares = sum((d - m) ** 2 for d in flat[:r])
    for k in range(half):
        off = flat[r + k] ** 2
        if is_complex:
            off += flat[r + half + k] ** 2
        squares += 2.0 * off
    if not (np.isfinite(m).all() and np.isfinite(squares).all()):
        return np.nan, np.nan
    radius = np.sqrt(squares * ((r - 1) / r))  # s sqrt(r - 1)
    inner = np.sqrt(squares / (r * max(r - 1, 1)))  # s / sqrt(r - 1)
    slack = EXTREME_SLACK * (np.abs(m) + radius)
    top, bottom = m + inner - slack, m - inner + slack  # inner bounds
    nodes = ((m + radius + slack > top.max())
             | (m - radius - slack < bottom.min()))
    nodes[[top.argmax(), bottom.argmin()]] = True
    lam = eigen_field(_dense(flat[:, nodes], is_complex))
    return float(lam[:, 0].min()), float(lam[:, -1].max())


def _spectral_radius(forms, is_complex) -> float:
    """max |lambda| over the forms whose planes ``forms`` holds (see
    _extreme_eigenvalues)."""
    return max(map(abs, _extreme_eigenvalues(forms, is_complex)))


def estimate_report(u) -> SolveReport:
    """Norms and measured boundary-estimate ratios of a solved field.

    Boundary derivatives use second-order one-sided stencils along the
    normal direction; everything else is centered.  On real geometries the
    'ddbar' entries hold the real-Hessian norms instead, each the exact
    max |lambda| over the nodes from _extreme_eigenvalues.
    """
    geom = u.geom
    report = SolveReport(resolution=geom.resolution)
    report.sup_u = u.sup()
    padded = _padded(u.values, geom)  # for the gradients and face Hessians

    gi = gradient_interior(u, padded)
    report.sup_grad_interior = float(np.sqrt((gi**2).sum(axis=-1)).max())
    gb = gradient_boundary(u, padded)
    report.sup_grad_boundary = float(
        max(np.sqrt((g**2).sum(axis=-1)).max() for g in gb)
    )
    sup_grad = max(report.sup_grad_interior, report.sup_grad_boundary)

    is_complex = geom.is_complex
    faces = (boundary_complex_hessian if is_complex
             else boundary_real_hessian)(u, padded)
    # the planes of the tangential-normal entries (a, k), a < k, with k
    # the normal direction
    k = geom.form_dim - 1
    normal = [_index(k + 1, a, k) for a in range(k)]
    imag = [_index(k + 1, a, k, imag=True) for a in range(k)]
    tn = max(float(np.abs(f[normal] + 1j * f[imag] if is_complex
                          else f[normal]).max()) for f in faces)
    forms = form_field(u, None)
    report.sup_ddbar_interior = _spectral_radius(forms, is_complex)
    report.sup_lap = float(np.abs(sum(forms[:k + 1])).max())
    report.sup_ddbar_boundary = max(_spectral_radius(f, is_complex)
                                    for f in faces)
    report.boundary_ratio = report.sup_ddbar_boundary / (1.0 + sup_grad**2)
    report.tangential_normal_ratio = tn / (1.0 + sup_grad)
    sup_dd_all = max(report.sup_ddbar_interior, report.sup_ddbar_boundary)
    report.global_second_ratio = sup_dd_all / (
        1.0 + sup_grad**2 + report.sup_ddbar_boundary
    )
    return report


@dataclass(frozen=True)
class BarrierSpec:
    """Constants of the local boundary barrier; requires N*delta <= t."""

    A1: float
    A2: float
    A3: float
    N: float
    t_barrier: float
    delta: float

    def __post_init__(self):
        for name in ("A1", "A2", "A3", "N", "t_barrier", "delta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.N * self.delta - self.t_barrier > 0:
            raise ValueError("need N*delta - t <= 0")
        if self.delta > 0.5:
            raise ValueError("delta exceeds half the domain thickness")


@dataclass
class BarrierReport:
    psi_tilde: ScalarField
    b1: float
    min_L_interior: float
    max_on_ring: float
    omega_nodes: int


def _tangential_squares(deriv, geom):
    """sum over tangential complex directions of |dv/dz_tau|^2, where
    ``deriv(axis)`` is the first derivative of v along a real axis."""
    total = 0.0
    for tau in range(geom.n - 1):
        xa, ya = geom.complex_axes(tau)
        total = total + 0.25 * (deriv(xa) ** 2 + deriv(ya) ** 2)  # |(dx - i dy)/2|^2
    return total


def barrier_eval(u, u_sub, phi, fun, chi, spec: BarrierSpec, p0_index, direction):
    """Evaluate the local barrier near a boundary point and its discrete
    ellipticity defect.

    ``direction`` is (real_axis, sign) with the axis tangential and not in
    the normal complex direction; the barrier is

        A1 sqrt(b1) (u_sub - u) - A2 sqrt(b1) rho^2
        + A3 sqrt(b1) (N sigma^2 - t sigma)
        + (1/sqrt(b1)) sum_tau |(u - phi)_tau|^2 + D(u - phi),

    with b1 = 1 + sup|grad(u - phi)|^2 + sup|grad phi|^2.  Reported are
    the minimum of L(barrier) over the interior of the rho < delta
    neighborhood and the maximum of the barrier over its discrete edge
    (including the boundary-face part).
    """
    geom = u.geom
    if not geom.is_complex:
        raise ValueError("barrier_eval needs the complex geometry")
    axis, sign = direction
    if axis >= 2 * (geom.n - 1) or sign not in (-1, 1):
        raise ValueError("direction must be a signed tangential real axis")
    da = geom.dirichlet_axis
    if p0_index[da] not in (0, geom.shape[da] - 1):
        raise ValueError("p0 must lie on a boundary face")

    diff = u.values - phi.values
    diff_p = _padded(diff, geom)  # shared by every stencil of diff below
    gd = gradient_interior(ScalarField(geom=geom, values=diff), diff_p)
    gp = gradient_interior(phi)
    b1 = float(
        1.0 + (gd**2).sum(axis=-1).max() + (gp**2).sum(axis=-1).max()
    )
    sq = np.sqrt(b1)

    sigma = geom.boundary_distance()
    rho = geom.distance_to(tuple(p0_index))

    d_inside = partial(first_derivative_centered, diff_p, geom)
    d_faces = partial(first_derivative_centered, diff_p, geom, layer=[0, -1])
    psi_tilde = np.zeros(geom.shape)
    inside = geom.interior
    psi_tilde[inside] = (
        spec.A1 * sq * (u_sub.values - u.values)[inside]
        - spec.A2 * sq * rho[inside] ** 2
        + spec.A3 * sq * (spec.N * sigma[inside] ** 2 - spec.t_barrier * sigma[inside])
        + _tangential_squares(d_inside, geom) / sq
        + sign * d_inside(axis)
    )
    # both faces at once: the tangential axes keep their grid positions
    faces = geom.faces
    psi_tilde[faces] = (
        -spec.A2 * sq * rho[faces] ** 2
        + _tangential_squares(d_faces, geom) / sq
        + sign * d_faces(axis)
    )

    omega = rho < spec.delta
    omega_int = omega.copy()
    omega_int[faces] = False

    C = coefficient_tensor(linearize(u, fun, chi), geom)
    L_psi = apply_second_order(C, psi_tilde, geom)
    mask_int = omega_int[inside]
    min_L = float(L_psi[mask_int].min()) if mask_int.any() else np.nan

    # discrete edge: interior Omega nodes with a neighbor outside, plus the
    # boundary-face part of the closed neighborhood
    eroded = omega_int.copy()
    for a in range(geom.real_dims):
        eroded &= np.roll(omega, 1, axis=a) & np.roll(omega, -1, axis=a)
    ring = omega_int & ~eroded
    edge = np.concatenate([psi_tilde[ring], psi_tilde[faces][rho[faces] <= spec.delta]])
    max_ring = float(edge.max()) if edge.size else np.nan

    return BarrierReport(
        psi_tilde=ScalarField(geom=geom, values=psi_tilde),
        b1=b1,
        min_L_interior=min_L,
        max_on_ring=max_ring,
        omega_nodes=int(np.count_nonzero(omega_int)),
    )


def degenerate_sweep(fun, chi, psi, phi, u_sub, eps_list, config=None):
    """Solve the shifted problems psi + eps for each eps; per-eps rows.

    Requires a strictly admissible subsolution (positive gap); individual
    failures are recorded and the sweep continues.  A row's
    newton_iterations is the solve's step count, "" when it failed; a
    failed row's final_residual is the residual its ContinuationError
    reached (nan for the other errors, and for an inadmissible start).
    sup_lap is the report's: max |tr form_field(u)| over the interior
    nodes, from the forms estimate_report takes its interior norm from.
    """
    config = config or SolverConfig()
    geom = u_sub.geom
    eps_list = list(eps_list)
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    psi_interior = _interior_values(geom, psi)
    psi0, _ = _check_subsolution(u_sub, phi, fun, chi, psi_interior)
    delta0 = float((psi0 - psi_interior).min())
    if delta0 <= 0:
        raise SubsolutionError("need a strict subsolution for the sweep")
    rows = []
    for eps in eps_list:
        row = {"eps": eps, "delta0": delta0, "converged": False,
               "final_residual": np.nan, "sup_u": np.nan,
               "sup_grad": np.nan, "sup_lap": np.nan,
               "newton_iterations": "", "error": ""}
        shifted = ScalarField(geom=geom, values=psi.values + eps)
        try:
            _, rep = continuity_solve(fun, chi, shifted, phi, u_sub, config)
        except SOLVE_ERRORS as exc:
            row["error"] = type(exc).__name__
            row["final_residual"] = getattr(exc, "residual", np.nan)
            rows.append(row)
            continue
        row["converged"] = True
        row["final_residual"] = rep.final_residual
        row["newton_iterations"] = rep.newton_iterations
        row["sup_u"] = rep.sup_u
        row["sup_grad"] = max(rep.sup_grad_interior, rep.sup_grad_boundary)
        row["sup_lap"] = rep.sup_lap
        rows.append(row)
    return rows
