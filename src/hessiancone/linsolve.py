"""Preconditioned iterative solves of the linearized problems.

The elliptic operator sum_ab C_ab(x) d^2/dx_a dx_b with Dirichlet data on
the two faces and periodic identifications elsewhere is applied
matrix-free through the stencils in :mod:`.operators`.  The
preconditioner freezes the diagonal coefficients at their interior means,
which diagonalizes exactly under an FFT along the periodic axes and a
DST-I along the Dirichlet axis; LGMRES then converges in a few dozen
iterations for smoothly varying coefficients (and in O(1) iterations for
constant ones).
"""

from __future__ import annotations

import numpy as np
import scipy.fft
from scipy.sparse.linalg import LinearOperator, lgmres

from .operators import apply_second_order

__all__ = ["LinearSolveError", "solve_dirichlet"]

DEFAULT_RTOL = 1e-10


class LinearSolveError(RuntimeError):
    """The iterative linear solver failed to reach its tolerance."""


class _MeanCoefficientInverse:
    """Inverse of sum_a cbar_a d^2/dx_a^2 on the interior grid."""

    def __init__(self, geom, mean_diag):
        self.geom = geom
        self.periodic = list(geom.periodic_axes)
        self.da = geom.dirichlet_axis
        h2 = geom.h * geom.h
        m = geom.resolution
        symbol = np.zeros(geom.interior_shape)
        for a in range(geom.real_dims):
            size = geom.interior_shape[a]
            if a == self.da:
                theta = np.pi * np.arange(1, size + 1) / m
            else:
                theta = 2.0 * np.pi * np.arange(size) / size
            eig = mean_diag[a] * (2.0 * np.cos(theta) - 2.0) / h2
            shape = [1] * geom.real_dims
            shape[a] = size
            symbol = symbol + eig.reshape(shape)
        self.symbol = symbol

    def apply(self, x_flat):
        x = x_flat.reshape(self.geom.interior_shape)
        x = scipy.fft.dst(x, type=1, axis=self.da, norm="ortho")
        x = scipy.fft.fftn(x, axes=self.periodic)
        x /= self.symbol
        x = scipy.fft.ifftn(x, axes=self.periodic).real
        x = scipy.fft.idst(x, type=1, axis=self.da, norm="ortho")
        return x.reshape(-1)


def solve_dirichlet(
    C,
    geom,
    rhs_interior,
    boundary_values=None,
    rtol: float = DEFAULT_RTOL,
    maxiter: int = 2000,
) -> np.ndarray:
    """Solve sum C_ab d_ab U = rhs at interior nodes, U = bc on the faces.

    ``boundary_values`` is a full-shape array supplying the Dirichlet data
    (only its two faces are read); omitted means homogeneous data.
    Returns the full-shape solution field.  Raises
    :class:`LinearSolveError` when LGMRES does not converge to ``rtol``.
    """
    interior = geom.interior
    full = np.zeros(geom.shape)
    rhs = np.asarray(rhs_interior, dtype=float).copy()
    if boundary_values is not None:
        bc = np.zeros(geom.shape)
        bc[geom.faces] = boundary_values[geom.faces]
        rhs -= apply_second_order(C, bc, geom)
        full += bc

    b = rhs.reshape(-1)
    if not np.any(b):
        return full

    def matvec(x):
        emb = np.zeros(geom.shape)
        emb[interior] = x.reshape(geom.interior_shape)
        return apply_second_order(C, emb, geom).reshape(-1)

    nun = b.size
    mean_diag = [float(C[..., a, a].mean()) for a in range(geom.real_dims)]
    precond = _MeanCoefficientInverse(geom, mean_diag)
    A = LinearOperator((nun, nun), matvec=matvec, dtype=float)
    M = LinearOperator((nun, nun), matvec=precond.apply, dtype=float)
    x, info = lgmres(A, b, M=M, rtol=rtol, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise LinearSolveError(f"lgmres returned info={info}")
    # info == 0 is not trustworthy in every corner case; verify the
    # residual explicitly so a silent non-solve cannot escape
    rel = float(np.linalg.norm(matvec(x) - b) / np.linalg.norm(b))
    if rel > 10.0 * rtol:
        raise LinearSolveError(f"relative residual {rel!r} above tolerance")
    full[interior] += x.reshape(geom.interior_shape)
    return full
