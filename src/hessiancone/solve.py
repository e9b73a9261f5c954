"""Continuity-method solver and a-priori-estimate diagnostics.

The Dirichlet problem f(lambda(chi + dd-bar u)) = psi is driven from the
subsolution's own equation to the target along the interpolated family

    psi_t = (1 - t) f(lambda(g[u_sub])) + t psi,        t: 0 -> 1,

each stage solved by a damped Newton iteration on the discrete system.
Damping keeps every node's sigma_1..sigma_m positive (the cone) and the
sup-norm residual decreasing.  Continuation tries t = 1 first, halves the
step when a stage fails, doubles it after a stage succeeds (Deuflhard 2004)
and stalls loudly below the minimum step.  The same driver covers the real
(cylinder) variant, where the complex Hessian is replaced by the real one.

Diagnostics implement the measured forms of the boundary estimates: the
harmonic majorant / comparison sandwich, sup-norm and Hessian reports with
one-sided boundary stencils, the boundary-ratio and tangential-normal
quotients, and a local barrier field whose discrete ellipticity defect can
be inspected near a boundary point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import cones
from .geometry import ScalarField
from .linsolve import LinearSolveError, solve_dirichlet
from .operators import (
    AdmissibilityError,
    apply_second_order,
    boundary_complex_hessian,
    boundary_real_hessian,
    coefficient_tensor,
    eigen_field,
    first_derivative_centered,
    form_field,
    gradient_boundary,
    gradient_interior,
    linearize,
    newton_state,
    residual,
    _chi_interior,
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
MAX_HALVINGS = 10  # damping factors 1, 1/2, ..., 2**-MAX_HALVINGS


class SubsolutionError(ValueError):
    """The supplied subsolution violates a precondition."""


class ContinuationError(RuntimeError):
    """The continuity path stalled before t = 1."""

    def __init__(self, t, residual, message):
        self.t = t
        self.residual = residual
        super().__init__(message)


class _StageFailure(RuntimeError):
    pass


# errors of a solve that a sweep or the CLI records as a failure row
SOLVE_ERRORS = (SubsolutionError, ContinuationError, LinearSolveError,
                AdmissibilityError)


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-8
    dt_min: float = 1e-4
    max_newton: int = 30
    lin_rtol: float = 1e-10


@dataclass
class StageRecord:
    t: float
    residuals: list
    dampings: list


@dataclass
class SolveReport:
    """Norms, boundary-estimate ratios, and solve statistics."""

    label: str = ""
    resolution: int = 0
    converged: bool = False
    t_final: float = 0.0
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
    continuity_stages: int = 0
    min_dt_used: float = np.nan
    boundary_tangential_min: float = np.nan
    stage_history: list = field(default_factory=list)
    rejected_stages: list = field(default_factory=list)  # (t, t_target, reason)

    CSV_FIELDS = (
        "label,resolution,converged,t_final,final_residual,sup_u,"
        "sup_grad_interior,sup_grad_boundary,sup_ddbar_interior,"
        "sup_ddbar_boundary,boundary_ratio,tangential_normal_ratio,"
        "global_second_ratio,comparison_violations,newton_iterations,"
        "continuity_stages,min_dt_used"
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


def newton_tail_ratios(stage_history, count: int = 2) -> list:
    """Residual reduction factors of the last accepted Newton iterations,
    newest first, walking stages backwards (stages that converged without
    iterating contribute nothing)."""
    ratios = []
    for stage in reversed(stage_history):
        r = stage.residuals
        for i in range(len(r) - 1, 0, -1):
            ratios.append(r[i - 1] / r[i])
            if len(ratios) == count:
                return ratios
    return ratios


def _interior_values(geom, f):
    return f.values[geom.interior] if isinstance(f, ScalarField) else np.asarray(f)


def _residual_and_mask(u, fun, chi, psi_t_interior):
    """Interior residual, its sup norm and newton_state at u (for the
    linearization at u), or (None, None, None) when some node is
    inadmissible."""
    try:
        state = newton_state(u, fun, chi)
    except AdmissibilityError:
        return None, None, None
    r = cones.f_from_sigmas(fun, state[0]) - psi_t_interior
    return r, float(np.abs(r).max()), state


def _newton_solve(u0, fun, chi, psi_t, config, t_label):
    """Damped Newton iteration of one continuity stage.

    Each step solves the linearized system with homogeneous Dirichlet data
    for the update, then applies the largest damping factor in 1, 1/2,
    ..., 2**-MAX_HALVINGS that keeps every node admissible and reduces the
    sup-norm residual.  Returns (u, StageRecord); raises _StageFailure
    when the start is inadmissible, the linear solve fails, no factor
    qualifies or the iteration budget runs out.
    """
    geom = u0.geom
    u = u0.copy()
    r, rn, state = _residual_and_mask(u, fun, chi, psi_t)
    if r is None:
        raise _StageFailure("stage start inadmissible")
    residuals = [rn]
    dampings = []
    while rn > config.tolerance:
        if len(residuals) > config.max_newton:
            raise _StageFailure("newton iteration budget exhausted")
        # the residual's Newton tensors at u feed the linearization; only
        # C lives on into the linear solve, and nothing after it
        C, state = coefficient_tensor(linearize(u, fun, chi, state), geom), None
        try:
            delta = solve_dirichlet(C, geom, -r, rtol=config.lin_rtol)
        except LinearSolveError as exc:
            raise _StageFailure(str(exc))
        del C
        for k in range(MAX_HALVINGS + 1):
            theta = 0.5**k
            trial = ScalarField(geom=geom, values=u.values + theta * delta)
            r_t, rn_t, state = _residual_and_mask(trial, fun, chi, psi_t)
            if r_t is None or not rn_t < rn:
                state = None
                continue
            u, r, rn = trial, r_t, rn_t
            residuals.append(rn)
            dampings.append(theta)
            break
        else:
            raise _StageFailure("no admissible damping factor reduced the residual")
    return u, StageRecord(t=t_label, residuals=residuals, dampings=dampings)


def _check_subsolution(u_sub, phi, fun, chi, psi_interior):
    faces = u_sub.geom.faces
    if np.abs(u_sub.values[faces] - phi.values[faces]).max() > BOUNDARY_MATCH_ATOL:
        raise SubsolutionError("subsolution does not match the boundary data")
    try:
        psi0 = residual(u_sub, fun, 0.0, chi)  # f(lambda(g[u_sub]))
    except AdmissibilityError as exc:
        raise SubsolutionError(f"subsolution not admissible: {exc}") from None
    if np.any(psi0 < psi_interior - SUBSOLUTION_SLACK):
        worst = float((psi_interior - psi0).max())
        raise SubsolutionError(
            f"subsolution inequality violated by {worst!r} at some node"
        )
    return psi0


def continuity_solve(fun, chi, psi, phi, u_sub, config: SolverConfig | None = None):
    """Drive the interpolated family from the subsolution to the target.

    Returns (u, SolveReport).  The first stage targets t = 1; a failed
    stage (kept in report.rejected_stages) is retried with half its step,
    an accepted one doubles the next, and the path stalls (raising
    ContinuationError) below config.dt_min.  A stage that would leave
    less than config.dt_min to go targets t = 1 exactly.
    """
    config = config or SolverConfig()
    geom = u_sub.geom
    psi_interior = _interior_values(geom, psi)
    psi0 = _check_subsolution(u_sub, phi, fun, chi, psi_interior)

    u = ScalarField(geom=geom, values=u_sub.values.copy())
    u.values[geom.faces] = phi.values[geom.faces]

    t, dt, min_dt = 0.0, 1.0, 1.0
    stages = []
    rejected = []
    last_rn = np.nan
    while t < 1.0:
        # a gap below dt_min left after this stage would make a stage of
        # rounding error only; close it now
        t_target = t + dt if 1.0 - (t + dt) >= config.dt_min else 1.0
        step = t_target - t
        psi_t = (1.0 - t_target) * psi0 + t_target * psi_interior
        try:
            u_new, record = _newton_solve(u, fun, chi, psi_t, config, t_target)
        except _StageFailure as exc:
            rejected.append((t, t_target, str(exc)))
            dt = 0.5 * step
            if dt < config.dt_min:
                raise ContinuationError(
                    t, last_rn, f"path stalled at t={t!r}: {exc}"
                )
            continue
        u = u_new
        t = t_target
        min_dt = min(min_dt, step)
        stages.append(record)
        last_rn = record.residuals[-1]
        dt = 2.0 * step

    report = estimate_report(u)
    report.label = fun.label
    report.resolution = geom.resolution
    report.converged = True
    report.t_final = t
    report.final_residual = last_rn
    report.newton_iterations = sum(len(s.dampings) for s in stages)
    report.continuity_stages = len(stages)
    report.min_dt_used = min_dt
    report.stage_history = stages
    report.rejected_stages = rejected

    w = harmonic_majorant(chi, phi, geom)
    report.comparison_violations = comparison_check(u, u_sub, w)
    return u, report


def solve_riemannian(fun, chi_sym, psi, phi, u_sub, config: SolverConfig | None = None):
    """Real-Hessian variant on the flat cylinder.

    Identical driver (the discrete Hessian switches to the real one via
    the geometry).  Additionally records the minimum tangential eigenvalue
    of g - g_sub over the boundary faces, which must exceed -10 h^2.
    """
    if u_sub.geom.is_complex:
        raise ValueError("solve_riemannian expects a cylinder geometry")
    u, report = continuity_solve(fun, chi_sym, psi, phi, u_sub, config)
    geom = u.geom
    diff = ScalarField(geom=geom, values=u.values - u_sub.values)
    worst = np.inf
    tang = list(geom.periodic_axes)
    for face_h in boundary_real_hessian(diff):
        lam = np.linalg.eigvalsh(face_h[..., tang, :][..., tang])
        worst = min(worst, float(lam.min()))
    report.boundary_tangential_min = worst
    if worst < -10.0 * geom.h * geom.h:
        raise ArithmeticError(
            f"tangential boundary monotonicity violated: {worst!r}"
        )
    return u, report


def harmonic_majorant(chi, phi, geom) -> ScalarField:
    """Solve trace-Laplacian w = -trace(chi), w = phi on the faces.

    The trace Laplacian is the linearized operator of the identity form:
    sum_i w_{i ibar} (a quarter of the flat Laplacian) on the complex
    model, the full Laplacian on the cylinder.
    """
    dim = geom.form_dim
    eye = np.broadcast_to(np.eye(dim), geom.interior_shape + (dim, dim))
    C = coefficient_tensor(eye, geom)
    tr = np.trace(_chi_interior(chi, geom, dim, complex), axis1=-2, axis2=-1).real
    values = solve_dirichlet(C, geom, -np.broadcast_to(tr, geom.interior_shape),
                             boundary_values=phi.values)
    return ScalarField(geom=geom, values=values)


def comparison_check(u, u_sub, w) -> int:
    """Count nodes violating u_sub - tol <= u <= w + tol."""
    tol = comparison_tolerance(u.geom)
    below = u.values < u_sub.values - tol
    above = u.values > w.values + tol
    return int(np.count_nonzero(below | above))


def estimate_report(u) -> SolveReport:
    """Norms and measured boundary-estimate ratios of a solved field.

    Boundary derivatives use second-order one-sided stencils along the
    normal direction; everything else is centered.  On real geometries the
    'ddbar' entries hold the real-Hessian norms instead.
    """
    geom = u.geom
    report = SolveReport(resolution=geom.resolution)
    report.sup_u = u.sup()

    gi = gradient_interior(u)
    report.sup_grad_interior = float(np.sqrt((gi**2).sum(axis=-1)).max())
    gb = gradient_boundary(u)
    report.sup_grad_boundary = float(
        max(np.sqrt((g**2).sum(axis=-1)).max() for g in gb)
    )
    sup_grad = max(report.sup_grad_interior, report.sup_grad_boundary)

    h_int = eigen_field(form_field(u, None))
    faces = (boundary_complex_hessian if geom.is_complex else boundary_real_hessian)(u)
    k = geom.form_dim - 1
    tn = max(float(np.abs(f[..., :k, k]).max()) for f in faces)
    report.sup_ddbar_interior = float(np.abs(h_int).max()) if h_int.size else 0.0
    report.sup_ddbar_boundary = max(
        float(np.abs(np.linalg.eigvalsh(f)).max()) for f in faces
    )
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
    gd = gradient_interior(ScalarField(geom=geom, values=diff))
    gp = gradient_interior(phi)
    b1 = float(
        1.0 + (gd**2).sum(axis=-1).max() + (gp**2).sum(axis=-1).max()
    )
    sq = np.sqrt(b1)

    sigma = geom.boundary_distance()
    rho = geom.distance_to(tuple(p0_index))

    d_inside = partial(first_derivative_centered, diff, geom)
    d_faces = partial(first_derivative_centered, diff, geom, layer=[0, -1])
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
    failures are recorded and the sweep continues.
    """
    config = config or SolverConfig()
    geom = u_sub.geom
    eps_list = list(eps_list)
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    psi_interior = _interior_values(geom, psi)
    psi0 = _check_subsolution(u_sub, phi, fun, chi, psi_interior)
    delta0 = float((psi0 - psi_interior).min())
    if delta0 <= 0:
        raise SubsolutionError("need a strict subsolution for the sweep")
    rows = []
    for eps in eps_list:
        row = {"eps": eps, "delta0": delta0, "converged": False,
               "final_residual": np.nan, "sup_u": np.nan,
               "sup_grad": np.nan, "sup_lap": np.nan, "error": ""}
        shifted = ScalarField(geom=geom, values=psi.values + eps)
        try:
            u, rep = continuity_solve(fun, chi, shifted, phi, u_sub, config)
        except SOLVE_ERRORS as exc:
            row["error"] = type(exc).__name__
            rows.append(row)
            continue
        row["converged"] = True
        row["final_residual"] = rep.final_residual
        row["sup_u"] = rep.sup_u
        row["sup_grad"] = max(rep.sup_grad_interior, rep.sup_grad_boundary)
        lap = np.trace(form_field(u, None), axis1=-2, axis2=-1).real
        row["sup_lap"] = float(np.abs(lap).max())
        rows.append(row)
    return rows
