"""Preconditioned iterative solves of the linearized problems.

The elliptic operator A = sum_ab C_ab(x) d^2/dx_a dx_b with Dirichlet data
on the two faces and periodic identifications elsewhere is applied
matrix-free through the stencils in :mod:`.operators`.

The preconditioner is Cordes-normalized (Smears & Sueli 2013): it scales
a residual pointwise by w = 1 / tr C(x), which turns A into an operator
with unit trace at every node, and then inverts sum_a cbar_a d^2/dx_a^2
with cbar_a the interior mean of C_aa / tr C.  That frozen operator is
separable, and the classical fast Poisson solver inverts it exactly
(Swarztrauber 1977): Fourier transforms along the periodic axes, one
real (half spectrum) and the rest complex, leave one tridiagonal system
per mode along the Dirichlet axis, which a Thomas sweep solves.  The
weight follows coefficients whose scale varies by orders of magnitude
from node to node, as it does in the degenerate limit psi -> 0, where
the raw means cannot.  For constant coefficients the preconditioner is
the exact inverse.

The Krylov method is restarted GMRES, preconditioned on the right (Saad &
Schultz 1986), so it minimizes the true residual |b - A x| and stops at
the tolerance asked for, not far below it; the weight changes the
iteration count and not the system solved.  The preconditioner is fixed
within a solve, so a cycle's update is M applied once to its combination
of Arnoldi vectors, and the only basis held is the RESTART + 1 rows of
those vectors.  C comes as coefficient_tensor stores it, its distinct
planes keyed by axis pair, or one scalar per axis for a constant
operator; the keys are the pairs the operator applies.  Inner products
run through ``np.einsum``: BLAS level-1 calls would wake OpenBLAS's
second thread, whose spinning slows every numpy call after them.  The
Arnoldi loop works in place on the preallocated rows of its basis and
one scratch vector.
The whole basis, RESTART + 1 rows, is allocated at once in every solve,
used or not, and that is deliberate.  It is the process's largest
allocation and is freed at the end of the solve, so it raises glibc's
dynamic mmap and trim thresholds above the Newton loop's other arrays
(about 0.5 MB each at 16^4); those then come from the heap and are
reused, not mapped and faulted in afresh.  On the 16^4 manufactured and
degenerate Monge-Ampere solves, RESTART = 12 cut the peak RSS by about
9.5 MB, but raised the minor page faults per solve from 160 and 465 to
6k and 12k and the wall time by 10-15%; a basis kept between solves and
grown on demand cost the 32^3 cylinder solve 20% of its wall time.
Each operator application takes one centred first difference per axis of
a mixed pair and forms every mixed partial from two windows of it (see
:mod:`.operators`), so applications round differently from the
four-window stencil: not bit for bit, but within rounding of it.

Each solve returns its field with a :class:`LinearSolveRecord`: the
relative residual asked for and reached, and the operator and
preconditioner applications spent.  Krylov vectors are written into the
interior window of one padded buffer per solve, whose wrapped ghost
layers are refreshed in place, so the stencils read it without another
copy; in an Arnoldi step the preconditioner writes its output M v there
itself.  No vector lives past its last use: the preconditioner keeps
one real pivot per mode, and an Arnoldi vector, once copied into the
basis, is not held through the next application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import apply_second_order, _padded, _window, _wrap_ghosts

__all__ = ["LinearSolveError", "LinearSolveRecord", "solve_dirichlet"]

DEFAULT_RTOL = 1e-10
RESTART = 30  # Krylov vectors per GMRES cycle
# a cycle that leaves |r| above this fraction of its start has stalled;
# exact GMRES never increases |r|
STALL = 0.99
MAX_CYCLES = 2000  # GMRES cycles before a solve gives up


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
    w = 1 / tr C and cbar_a the interior mean of C_aa / tr C.

    The work runs with the Dirichlet axis first, so each of its layers is
    contiguous.  After the transforms, mode by mode, the Dirichlet axis
    carries x_{k-1} + beta x_k + x_{k+1} = y_k / s, where s = cbar_d / h^2
    and beta = -2 + sum_p (cbar_p / cbar_d)(2 cos theta_p - 2) <= -2 over
    the periodic axes p, theta_p = 2 pi j_p / m_p for mode j_p of m_p
    nodes.  The matrix is diagonally dominant, so the Thomas sweep needs
    no pivoting; its pivots g_0 = 1 / beta, g_k = 1 / (beta - g_{k-1}) are
    computed here, one real pivot per mode, and 1 / s is folded into the
    weight.  The sweep runs on the complex spectrum, each product taking
    the real pivot of its mode: the values of a sweep over a float view
    with every pivot repeated for the real and imaginary parts, but for
    the sign of a zero, where numpy's complex-by-real product adds a
    signed zero to it, at half the pivots' memory."""

    def __init__(self, C, geom):
        diag = [C[a, a][1] for a in range(geom.real_dims)]
        trace = sum(diag)
        if not np.all(trace > 0):
            raise LinearSolveError("coefficient trace not positive at some node")
        weight = 1.0 / trace
        mean_diag = [np.mean(plane * weight) for plane in diag]
        da, periodic = geom.dirichlet_axis, geom.periodic_axes
        self.shape = geom.interior_shape
        self.order = (da,) + periodic
        self.back = tuple(np.argsort(self.order))
        s = mean_diag[da] / (geom.h * geom.h)
        if np.ndim(weight):  # a scalar for a constant operator
            weight = np.ascontiguousarray(weight.transpose(self.order))
        self.weight = weight / s
        # the last axis takes the real transform, the others complex ones
        self.complex_axes = range(1, len(periodic))
        self.real = np.empty(tuple(self.shape[a] for a in self.order))
        spectral = list(self.real.shape)
        spectral[-1] = spectral[-1] // 2 + 1
        self.spectrum = np.empty(spectral, dtype=complex)
        modes = np.ix_(*[np.arange(count) for count in spectral[1:]])
        beta = sum((mean_diag[a] / mean_diag[da]
                    * (2.0 * np.cos(2.0 * np.pi * j / self.shape[a]) - 2.0)
                    for a, j in zip(periodic, modes)), -2.0)
        self.pivots = np.empty(spectral, dtype=float)
        self.pivots[0] = 1.0 / beta
        for k in range(1, len(self.pivots)):
            self.pivots[k] = 1.0 / (beta - self.pivots[k - 1])
        self.scratch = np.empty(spectral[1:], dtype=complex)

    def apply(self, x_flat, out=None):
        """M x as a new flat vector, or written into ``out``, an array of
        the interior shape (the Krylov buffer's interior)."""
        real, spectrum, g, tmp = self.real, self.spectrum, self.pivots, self.scratch
        # a strided copy, then a contiguous product: faster than one
        # product that reads x strided
        np.copyto(real, x_flat.reshape(self.shape).transpose(self.order))
        real *= self.weight
        np.fft.rfft(real, axis=-1, out=spectrum)
        for a in self.complex_axes:
            np.fft.fft(spectrum, axis=a, out=spectrum)
        y = spectrum
        y[0] *= g[0]
        for k in range(1, len(y)):
            y[k] -= y[k - 1]
            y[k] *= g[k]
        for k in range(len(y) - 2, -1, -1):
            np.multiply(y[k + 1], g[k], out=tmp)
            y[k] -= tmp
        for a in self.complex_axes:
            np.fft.ifft(spectrum, axis=a, out=spectrum)
        np.fft.irfft(spectrum, n=real.shape[-1], axis=-1, out=real)
        if out is None:
            return real.transpose(self.back).flatten()  # a copy, never a view
        np.copyto(out, real.transpose(self.back))
        return out


def _dot(u, v):
    """Inner product through a ufunc loop, which wakes no BLAS thread."""
    return float(np.einsum("i,i", u, v))


def _norm(v):
    return _dot(v, v) ** 0.5


def _arnoldi_coefficients(H, beta):
    """y minimizing |beta e_1 - H y| for the (k + 1) x k Hessenberg H, and
    that minimum: the residual norm of the GMRES iterate."""
    g = np.zeros(H.shape[0])
    g[0] = beta
    y = np.linalg.lstsq(H, g, rcond=None)[0]
    return y, float(np.linalg.norm(H @ y - g))


def _gmres(A, M, b, rtol):
    """Restarted GMRES(RESTART) for A x = b, right-preconditioned by M;
    A(v, precondition=True) is A M v.

    A cycle runs modified Gram-Schmidt Arnoldi on A M until its
    least-squares residual is at most rtol |b|, adds M(sum_j y_j v_j) to x
    and applies A once for r = b - A x: the check, and the next cycle's
    start.  M is fixed, so sum_j y_j M v_j is M of the combination of the
    v_j, and no basis of the M v_j is kept (Saad, Iterative Methods for
    Sparse Linear Systems, 2003, sec. 9.3.2; only flexible GMRES, whose M
    changes from step to step, needs one): RESTART + 1 rows of V are the
    only basis, for one more M application per cycle.  The zero start
    costs no application.  Returns (x, |r| / |b| (0 when r = 0),
    M applications) once |r| <= rtol |b|; raises
    LinearSolveError on a non-finite Arnoldi coefficient, when a cycle
    leaves |r| above rtol |b| and above STALL times the |r| it started
    from, or when MAX_CYCLES cycles leave |r| above rtol |b|.
    """
    x = np.zeros(b.size)
    bnorm = _norm(b)
    r, rnorm, target = b, bnorm, rtol * bnorm
    V = np.empty((RESTART + 1, b.size))
    scratch = np.empty(b.size)
    cycles = steps = 0
    while not rnorm <= target:  # a NaN residual enters and raises
        if cycles == MAX_CYCLES:
            raise LinearSolveError(
                f"relative residual {rnorm / bnorm!r} above tolerance "
                f"after {MAX_CYCLES} cycles")
        cycles += 1
        H = np.zeros((RESTART + 1, RESTART))
        np.divide(r, rnorm, out=V[0])
        for j in range(RESTART):
            steps += 1
            w = A(V[j], precondition=True)
            for i in range(j + 1):
                H[i, j] = _dot(w, V[i])
                w -= np.multiply(V[i], H[i, j], out=scratch)
            H[j + 1, j] = _norm(w)
            if not np.all(np.isfinite(H[:j + 2, j])):
                raise LinearSolveError("non-finite Arnoldi coefficient")
            y, estimate = _arnoldi_coefficients(H[:j + 2, :j + 1], rnorm)
            if estimate <= target or H[j + 1, j] == 0.0:
                break
            np.divide(w, H[j + 1, j], out=V[j + 1])
            w = None  # copied into V: not held through the next application
        w = None
        x += M(np.einsum("j,ji->i", y, V[:j + 1], out=scratch))
        steps += 1
        r = A(x)
        np.subtract(b, r, out=r)
        rnorm, start = _norm(r), rnorm
        if rnorm > max(target, STALL * start):
            raise LinearSolveError(
                f"GMRES stalled: cycle {cycles} left the relative residual "
                f"at {rnorm / bnorm!r}, above {STALL} of the "
                f"{start / bnorm!r} it started from")
    return x, (rnorm / bnorm if rnorm else 0.0), steps


def solve_dirichlet(
    C,
    geom,
    rhs_interior,
    boundary_values=None,
    rtol: float = DEFAULT_RTOL,
) -> tuple[np.ndarray, LinearSolveRecord]:
    """Solve sum C_ab d_ab U = rhs at interior nodes, U = bc on the faces,
    C in the form coefficient_tensor gives it.

    ``boundary_values`` is a full-shape array supplying the Dirichlet data
    (only its two faces are read); omitted means homogeneous data.
    Returns the full-shape solution field and its LinearSolveRecord.
    Raises :class:`LinearSolveError` when tr C is not positive at some node
    or GMRES fails (see ``_gmres``).
    """
    # GMRES never writes into b, so rhs is read as given; the solution
    # field is allocated after GMRES, which holds its own vectors
    rhs = np.asarray(rhs_interior, dtype=float)
    applications = 0
    bc = None
    if boundary_values is not None:
        bc = np.zeros(geom.shape)
        bc[geom.faces] = boundary_values[geom.faces]
        rhs = rhs - apply_second_order(C, bc, geom)
        applications += 1

    padded = _padded(np.zeros(geom.shape), geom)  # the faces stay zero
    inside = padded[_window(geom, {})]

    precond = _MeanCoefficientInverse(C, geom)

    def matvec(x, precondition=False):
        """A x, or A M x with M's output written straight into the Krylov
        buffer's interior."""
        nonlocal applications
        applications += 1
        if precondition:
            precond.apply(x, out=inside)
        else:
            inside[...] = x.reshape(geom.interior_shape)
        _wrap_ghosts(padded, geom)
        return apply_second_order(C, padded, geom).reshape(-1)

    b = rhs.reshape(-1)
    x, rel, precond_applications = _gmres(matvec, precond.apply, b, rtol)
    full = np.zeros(geom.shape)
    if bc is not None:
        full += bc
    full[geom.interior] += x.reshape(geom.interior_shape)
    return full, LinearSolveRecord(rtol, rel, applications,
                                   precond_applications)
