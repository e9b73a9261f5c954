"""Preconditioned iterative solves of the linearized problems.

The elliptic operator A = sum_ab C_ab(x) d^2/dx_a dx_b with Dirichlet data
on the two faces and periodic identifications elsewhere is applied
matrix-free through the stencils in :mod:`.operators`.

The preconditioner is Cordes-normalized (Smears & Sueli 2013): it scales
a residual pointwise by w = 1 / tr C(x), which turns A into an operator
with unit trace at every node, and then inverts sum_a cbar_a d^2/dx_a^2
with cbar_a the interior mean of C_aa / tr C.  That frozen operator
diagonalizes exactly under a real FFT (``rfftn``, half spectrum) along
the periodic axes and a DST-I along the Dirichlet axis.  The weight
follows coefficients whose scale varies by orders of magnitude from node
to node, as it does in the degenerate limit psi -> 0, where the raw means
cannot.  LGMRES tests the true residual of A, so the weight changes the
iteration count and not the system solved; for constant coefficients the
preconditioner is the exact inverse.

Each solve returns its field with a :class:`LinearSolveRecord`: the
relative residual asked for and reached, and the operator and
preconditioner applications spent.  None is wasted.  LGMRES's zero start
gets zeros back without an application, and the final residual check
reuses LGMRES's last product: LGMRES tests its true residual A x - b at
the top of each outer cycle and returns the x it tested there.  Krylov
vectors are written into the interior window of one padded buffer per
solve, whose wrapped ghost layers are refreshed in place, so the stencils
read it without another copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.sparse.linalg import LinearOperator, lgmres

from .operators import (apply_second_order, nonzero_pairs, _padded, _window,
                        _wrap_ghosts)

__all__ = ["LinearSolveError", "LinearSolveRecord", "solve_dirichlet"]

DEFAULT_RTOL = 1e-10


class LinearSolveError(RuntimeError):
    """The iterative linear solver failed to reach its tolerance."""


@dataclass(frozen=True)
class LinearSolveRecord:
    """What one solve_dirichlet call did: the relative residual it was
    asked for (rtol) and reached (residual, 0 when the right-hand side
    vanishes), and its operator and preconditioner applications."""

    rtol: float
    residual: float
    applications: int
    precond_applications: int


class _MeanCoefficientInverse:
    """x -> inverse of sum_a cbar_a d^2/dx_a^2 applied to w x, with
    w = 1 / tr C and cbar_a the interior mean of C_aa / tr C."""

    def __init__(self, C, geom):
        diag = np.diagonal(C, axis1=-2, axis2=-1)
        trace = diag.sum(axis=-1)
        if not np.all(trace > 0):
            raise LinearSolveError("coefficient trace not positive at some node")
        self.weight = 1.0 / trace
        mean_diag = (diag * self.weight[..., None]).mean(
            axis=tuple(range(geom.real_dims)))
        self.shape = geom.interior_shape
        self.periodic = list(geom.periodic_axes)
        self.da = geom.dirichlet_axis
        self.sizes = [self.shape[a] for a in self.periodic]
        h2 = geom.h * geom.h
        symbol = 0.0
        for a in range(geom.real_dims):
            size = self.shape[a]
            if a == self.da:
                theta = np.pi * np.arange(1, size + 1) / geom.resolution
            else:
                # rfftn keeps the first size // 2 + 1 modes of its last axis
                count = size // 2 + 1 if a == self.periodic[-1] else size
                theta = 2.0 * np.pi * np.arange(count) / size
            eig = mean_diag[a] * (2.0 * np.cos(theta) - 2.0) / h2
            shape = [1] * geom.real_dims
            shape[a] = eig.size
            symbol = symbol + eig.reshape(shape)
        self.inv_symbol = 1.0 / symbol

    def apply(self, x_flat):
        x = x_flat.reshape(self.shape) * self.weight
        x = scipy.fft.dst(x, type=1, axis=self.da, norm="ortho", overwrite_x=True)
        x = scipy.fft.rfftn(x, axes=self.periodic)
        x *= self.inv_symbol
        x = scipy.fft.irfftn(x, s=self.sizes, axes=self.periodic)
        x = scipy.fft.idst(x, type=1, axis=self.da, norm="ortho", overwrite_x=True)
        return x.reshape(-1)


def solve_dirichlet(
    C,
    geom,
    rhs_interior,
    boundary_values=None,
    rtol: float = DEFAULT_RTOL,
    maxiter: int = 2000,
) -> tuple[np.ndarray, LinearSolveRecord]:
    """Solve sum C_ab d_ab U = rhs at interior nodes, U = bc on the faces.

    ``boundary_values`` is a full-shape array supplying the Dirichlet data
    (only its two faces are read); omitted means homogeneous data.
    Returns the full-shape solution field and its LinearSolveRecord.
    Raises :class:`LinearSolveError` when tr C is not positive at some
    node, LGMRES reports failure or the residual of the returned field is
    above 10 rtol.
    """
    interior = geom.interior
    pairs = nonzero_pairs(C)
    full = np.zeros(geom.shape)
    rhs = np.asarray(rhs_interior, dtype=float).copy()
    applications, precond_applications = 0, 0
    if boundary_values is not None:
        bc = np.zeros(geom.shape)
        bc[geom.faces] = boundary_values[geom.faces]
        rhs -= apply_second_order(C, bc, geom, pairs)
        applications += 1
        full += bc

    b = rhs.reshape(-1)
    if not np.any(b):
        return full, LinearSolveRecord(rtol, 0.0, applications, 0)

    padded = _padded(np.zeros(geom.shape), geom)  # the faces stay zero
    inside = padded[_window(geom, {})]
    product = np.zeros(b.size)  # A applied to the vector in ``inside``
    calls = 0

    def matvec(x):
        nonlocal product, applications, calls
        calls += 1
        if calls == 1 and not np.any(x):
            return product  # LGMRES's zero start
        inside[...] = x.reshape(geom.interior_shape)
        _wrap_ghosts(padded, geom)
        product = apply_second_order(C, padded, geom, pairs).reshape(-1)
        applications += 1
        return product

    precond = _MeanCoefficientInverse(C, geom)

    def psolve(r):
        nonlocal precond_applications
        precond_applications += 1
        return precond.apply(r)

    nun = b.size
    A = LinearOperator((nun, nun), matvec=matvec, dtype=float)
    M = LinearOperator((nun, nun), matvec=psolve, dtype=float)
    x, info = lgmres(A, b, M=M, rtol=rtol, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise LinearSolveError(f"lgmres returned info={info}")
    # info == 0 is not trustworthy in every corner case; verify the
    # residual explicitly so a silent non-solve cannot escape.  The last
    # product is A x unless the buffer no longer holds the x returned.
    x = x.reshape(geom.interior_shape)
    if not np.array_equal(inside, x):
        matvec(x)
    rel = float(np.linalg.norm(product - b) / np.linalg.norm(b))
    if rel > 10.0 * rtol:
        raise LinearSolveError(f"relative residual {rel!r} above tolerance")
    full[interior] += x
    return full, LinearSolveRecord(rtol, rel, applications,
                                   precond_applications)
