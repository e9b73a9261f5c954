"""Discrete Hessian operators on flat model grids.

Second derivatives are centered and second order; stencils at interior
nodes may read the Dirichlet boundary slices, which hold the boundary
data.  With dz = (dx - i dy)/2 the complex Hessian of a real field is

    u_{i jbar} = ((u_{x_i x_j} + u_{y_i y_j}) + i (u_{x_i y_j} - u_{y_i x_j})) / 4,

Hermitian by construction and exact on real-quadratic polynomials.  The
linearization of lambda -> f(lambda(g)) at a Hermitian field is the
spectral-function derivative sum_p f_p(lambda) v_p v_p^*; eigenvalues
closer than a small cluster tolerance share the cluster mean of f_p,
which keeps the formula continuous across crossings of the symmetric f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones

__all__ = [
    "HermitianFormField",
    "AdmissibilityError",
    "complex_hessian",
    "real_hessian",
    "eigen_field",
    "residual",
    "linearize",
    "coefficient_tensor",
    "apply_second_order",
    "complex_laplacian",
    "gradient_interior",
    "gradient_boundary",
    "boundary_complex_hessian",
    "first_derivative_centered",
]

# Eigenvalues within this distance (relative to the field scale) are
# treated as one cluster inside the linearization.
CLUSTER_TOL = 1e-8


class AdmissibilityError(ValueError):
    """Eigenvalues left the cone at some node; carries its grid index."""

    def __init__(self, node, message=None):
        self.node = tuple(int(i) for i in node)
        super().__init__(message or f"inadmissible node at grid index {self.node}")


@dataclass
class HermitianFormField:
    """Per-interior-node Hermitian (or real symmetric) dim x dim matrices."""

    geom: object
    values: np.ndarray

    def __post_init__(self):
        expected = self.geom.interior_shape
        if self.values.shape[:-2] != expected:
            raise ValueError("form field must cover the interior nodes")
        if self.values.shape[-1] != self.values.shape[-2]:
            raise ValueError("matrices must be square")


def _padded(u_full: np.ndarray, geom) -> np.ndarray:
    """One ghost layer per axis: periodic wrap, zeros past the Dirichlet
    faces (those ghosts are never read by interior stencils)."""
    p = np.zeros(tuple(s + 2 for s in u_full.shape))
    core = tuple(slice(1, -1) for _ in u_full.shape)
    p[core] = u_full
    # sequential full-extent wraps so ghost corners of axis pairs are right
    for a in geom.periodic_axes:
        lo = [slice(None)] * u_full.ndim
        hi = [slice(None)] * u_full.ndim
        lo[a] = 0
        hi[a] = -1
        src_hi = [slice(None)] * u_full.ndim
        src_lo = [slice(None)] * u_full.ndim
        src_hi[a] = -2
        src_lo[a] = 1
        p[tuple(lo)] = p[tuple(src_hi)]
        p[tuple(hi)] = p[tuple(src_lo)]
    return p


def _window(geom, shifts) -> tuple:
    """Slice of a padded array over the interior, offset by shifts."""
    sl = []
    for a, size in enumerate(geom.shape):
        lo = 1 if a != geom.dirichlet_axis else 2
        hi = size + 1 if a != geom.dirichlet_axis else size
        s = shifts.get(a, 0)
        sl.append(slice(lo + s, hi + s))
    return tuple(sl)


def _pure_second(p, geom, a, h2):
    plus = p[_window(geom, {a: 1})]
    zero = p[_window(geom, {})]
    minus = p[_window(geom, {a: -1})]
    return (plus - 2.0 * zero + minus) / h2


def _mixed_second(p, geom, a, b, h2):
    pp = p[_window(geom, {a: 1, b: 1})]
    pm = p[_window(geom, {a: 1, b: -1})]
    mp = p[_window(geom, {a: -1, b: 1})]
    mm = p[_window(geom, {a: -1, b: -1})]
    return (pp - pm - mp + mm) / (4.0 * h2)


def _chi_interior(chi, geom, dim, dtype):
    if chi is None:
        return np.zeros((dim, dim), dtype=dtype)
    chi = np.asarray(chi)
    if chi.shape == (dim, dim):
        return chi.astype(dtype)
    if chi.shape == geom.shape + (dim, dim):
        return chi[geom.interior].astype(dtype)
    if chi.shape == geom.interior_shape + (dim, dim):
        return chi.astype(dtype)
    raise ValueError(f"chi shape {chi.shape} not understood")


def complex_hessian(u, chi=None) -> HermitianFormField:
    """g = chi + complex Hessian of u at the interior nodes."""
    geom = u.geom
    if not geom.is_complex:
        raise ValueError("complex_hessian needs a complex geometry")
    n = geom.n
    h2 = geom.h * geom.h
    p = _padded(u.values, geom)
    g = np.zeros(geom.interior_shape + (n, n), dtype=complex)
    for i in range(n):
        xi, yi = geom.complex_axes(i)
        g[..., i, i] = 0.25 * (
            _pure_second(p, geom, xi, h2) + _pure_second(p, geom, yi, h2)
        )
        for j in range(i + 1, n):
            xj, yj = geom.complex_axes(j)
            re = _mixed_second(p, geom, xi, xj, h2) + _mixed_second(p, geom, yi, yj, h2)
            im = _mixed_second(p, geom, xi, yj, h2) - _mixed_second(p, geom, yi, xj, h2)
            g[..., i, j] = 0.25 * (re + 1j * im)
            g[..., j, i] = np.conj(g[..., i, j])
    g += _chi_interior(chi, geom, n, complex)
    return HermitianFormField(geom=geom, values=g)


def real_hessian(u, chi=None) -> HermitianFormField:
    """chi + real Hessian (flat Christoffel symbols) at interior nodes."""
    geom = u.geom
    d = geom.real_dims
    h2 = geom.h * geom.h
    p = _padded(u.values, geom)
    g = np.zeros(geom.interior_shape + (d, d))
    for a in range(d):
        g[..., a, a] = _pure_second(p, geom, a, h2)
        for b in range(a + 1, d):
            g[..., a, b] = _mixed_second(p, geom, a, b, h2)
            g[..., b, a] = g[..., a, b]
    g += _chi_interior(chi, geom, d, float)
    return HermitianFormField(geom=geom, values=g)


def form_field(u, chi=None) -> HermitianFormField:
    return complex_hessian(u, chi) if u.geom.is_complex else real_hessian(u, chi)


def eigen_field(g: HermitianFormField) -> np.ndarray:
    """Ascending eigenvalues per node (dense Hermitian solver)."""
    return np.linalg.eigvalsh(g.values)


def _require_admissible(fun, lam, geom):
    """Raise AdmissibilityError at the first node whose eigenvalues lie
    outside the cone."""
    ok = cones.in_cone(fun, lam)
    if not np.all(ok):
        node = list(np.argwhere(~ok)[0])
        node[geom.dirichlet_axis] += 1  # interior index -> full-grid index
        raise AdmissibilityError(node)


def residual(u, fun, psi_t, chi=None) -> np.ndarray:
    """f(lambda(g[u])) - psi_t on the interior nodes.

    Raises AdmissibilityError (with the offending full-grid index) if any
    node's eigenvalues leave the cone.
    """
    lam = eigen_field(form_field(u, chi))
    _require_admissible(fun, lam, u.geom)
    vals = cones.f_many(fun, lam)
    target = psi_t.values[u.geom.interior] if hasattr(psi_t, "values") else psi_t
    return vals - target


def _cluster_average(fp, lam):
    """Exact segment means of fp over clusters of near-equal eigenvalues."""
    scale = 1.0 + np.abs(lam).max(axis=-1, keepdims=True)
    gaps = np.diff(lam, axis=-1) >= CLUSTER_TOL * scale
    cid = np.zeros(lam.shape, dtype=int)
    cid[..., 1:] = np.cumsum(gaps, axis=-1)
    out = np.empty_like(fp)
    n = lam.shape[-1]
    for c in range(n):
        mask = cid == c
        cnt = mask.sum(axis=-1, keepdims=True)
        s = np.where(mask, fp, 0.0).sum(axis=-1, keepdims=True)
        mean = s / np.maximum(cnt, 1)
        out = np.where(mask, mean, out)
    return out


def linearize(u, fun, chi=None) -> HermitianFormField:
    """Coefficient matrices F^{i jbar} of the linearized operator per node.

    Positive definite wherever the iterate is admissible (rejected
    otherwise), Hermitian exactly.
    """
    g = form_field(u, chi)
    lam, vec = np.linalg.eigh(g.values)
    _require_admissible(fun, lam, u.geom)
    fp = cones.grad_many(fun, lam)
    fp = _cluster_average(fp, lam)
    coeff = np.einsum("...ip,...p,...jp->...ij", vec, fp, np.conj(vec))
    coeff = 0.5 * (coeff + np.conj(np.swapaxes(coeff, -1, -2)))
    if not u.geom.is_complex:
        coeff = coeff.real
    return HermitianFormField(geom=u.geom, values=coeff)


def coefficient_tensor(F: HermitianFormField) -> np.ndarray:
    """Real symmetric coefficients over the real coordinates.

    For complex geometry the linearized operator is the trace pairing
    trace(F H[v]) with H the complex Hessian; in real coordinates this is
    sum_ab C_ab d^2 v / dx_a dx_b with quarter blocks [[S, T], [-T, S]]
    (S = Re F, T = Im F) in interleaved (x_i, y_i) order.
    """
    geom = F.geom
    if not geom.is_complex:
        return np.ascontiguousarray(F.values.real)
    n = geom.n
    S = F.values.real
    T = F.values.imag
    C = np.zeros(F.values.shape[:-2] + (2 * n, 2 * n))
    for i in range(n):
        xi, yi = geom.complex_axes(i)
        for j in range(n):
            xj, yj = geom.complex_axes(j)
            C[..., xi, xj] = 0.25 * S[..., i, j]
            C[..., yi, yj] = 0.25 * S[..., i, j]
            C[..., xi, yj] = 0.25 * T[..., i, j]
            C[..., yi, xj] = -0.25 * T[..., i, j]
    return C


def apply_second_order(C: np.ndarray, u_full: np.ndarray, geom) -> np.ndarray:
    """sum_ab C_ab d^2 u / dx_a dx_b on the interior, C symmetric."""
    r = geom.real_dims
    h2 = geom.h * geom.h
    p = _padded(u_full, geom)
    out = np.zeros(geom.interior_shape)
    for a in range(r):
        out += C[..., a, a] * _pure_second(p, geom, a, h2)
        for b in range(a + 1, r):
            cab = C[..., a, b]
            if np.any(cab):
                out += 2.0 * cab * _mixed_second(p, geom, a, b, h2)
    return out


def complex_laplacian(u) -> np.ndarray:
    """Trace of the complex Hessian: quarter of the full flat Laplacian."""
    geom = u.geom
    h2 = geom.h * geom.h
    p = _padded(u.values, geom)
    out = np.zeros(geom.interior_shape)
    for a in range(geom.real_dims):
        out += _pure_second(p, geom, a, h2)
    return 0.25 * out


def first_derivative_centered(u_full: np.ndarray, geom, axis: int) -> np.ndarray:
    """Centered first derivative on the interior nodes."""
    p = _padded(u_full, geom)
    return (p[_window(geom, {axis: 1})] - p[_window(geom, {axis: -1})]) / (2.0 * geom.h)


def gradient_interior(u) -> np.ndarray:
    """All first partials (centered) at interior nodes: (..., real_dims)."""
    return np.stack([first_derivative_centered(u.values, u.geom, a)
                     for a in range(u.geom.real_dims)], axis=-1)


def _face_take(u_full, geom, index):
    sl = [slice(None)] * u_full.ndim
    sl[geom.dirichlet_axis] = index
    return u_full[tuple(sl)]


def _tangential_centered(face_vals, axis_in_face, h):
    return (np.roll(face_vals, -1, axis=axis_in_face)
            - np.roll(face_vals, 1, axis=axis_in_face)) / (2.0 * h)


def _face_axes(geom):
    return [a for a in range(geom.real_dims) if a != geom.dirichlet_axis]


def gradient_boundary(u) -> list:
    """Per face: (face_shape, real_dims) first derivatives; the normal
    derivative uses the second-order one-sided stencil."""
    geom = u.geom
    h = geom.h
    da = geom.dirichlet_axis
    out = []
    for face in (0, 1):
        idx = 0 if face == 0 else geom.shape[da] - 1
        f0 = _face_take(u.values, geom, idx)
        grads = np.zeros(f0.shape + (geom.real_dims,))
        for pos, a in enumerate(_face_axes(geom)):
            grads[..., a] = _tangential_centered(f0, pos, h)
        if face == 0:
            f1 = _face_take(u.values, geom, 1)
            f2 = _face_take(u.values, geom, 2)
            grads[..., da] = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        else:
            f1 = _face_take(u.values, geom, idx - 1)
            f2 = _face_take(u.values, geom, idx - 2)
            grads[..., da] = (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)
        out.append(grads)
    return out


def _boundary_real_second(u_full, geom, face):
    """Real second partials on one boundary face; derivatives along the
    Dirichlet axis use second-order one-sided stencils."""
    h = geom.h
    h2 = h * h
    da = geom.dirichlet_axis
    size = geom.shape[da]
    idx = 0 if face == 0 else size - 1
    sgn = 1 if face == 0 else -1
    layers = [_face_take(u_full, geom, idx + sgn * k) for k in range(4)]
    faxes = _face_axes(geom)
    r = geom.real_dims
    D = {}
    for pos_a, a in enumerate(faxes):
        for pos_b, b in enumerate(faxes):
            if b < a:
                continue
            if a == b:
                D[(a, a)] = (
                    np.roll(layers[0], -1, pos_a)
                    - 2.0 * layers[0]
                    + np.roll(layers[0], 1, pos_a)
                ) / h2
            else:
                D[(a, b)] = (
                    np.roll(np.roll(layers[0], -1, pos_a), -1, pos_b)
                    - np.roll(np.roll(layers[0], -1, pos_a), 1, pos_b)
                    - np.roll(np.roll(layers[0], 1, pos_a), -1, pos_b)
                    + np.roll(np.roll(layers[0], 1, pos_a), 1, pos_b)
                ) / (4.0 * h2)
    # one-sided second derivative along the normal direction
    D[(da, da)] = (
        2.0 * layers[0] - 5.0 * layers[1] + 4.0 * layers[2] - layers[3]
    ) / h2
    # mixed normal-tangential: one-sided normal difference of the
    # centered tangential derivative
    for pos_a, a in enumerate(faxes):
        tang = [_tangential_centered(layers[k], pos_a, h) for k in range(3)]
        Dna = sgn * (-3.0 * tang[0] + 4.0 * tang[1] - tang[2]) / (2.0 * h)
        key = (a, da) if a < da else (da, a)
        D[key] = Dna
    full = np.zeros(layers[0].shape + (r, r))
    for (a, b), arr in D.items():
        full[..., a, b] = arr
        full[..., b, a] = arr
    return full


def boundary_complex_hessian(u) -> list:
    """Complex Hessian of u on each boundary face (no chi added)."""
    geom = u.geom
    n = geom.n
    out = []
    for face in (0, 1):
        D = _boundary_real_second(u.values, geom, face)
        H = np.zeros(D.shape[:-2] + (n, n), dtype=complex)
        for i in range(n):
            xi, yi = geom.complex_axes(i)
            H[..., i, i] = 0.25 * (D[..., xi, xi] + D[..., yi, yi])
            for j in range(i + 1, n):
                xj, yj = geom.complex_axes(j)
                re = D[..., xi, xj] + D[..., yi, yj]
                im = D[..., xi, yj] - D[..., yi, xj]
                H[..., i, j] = 0.25 * (re + 1j * im)
                H[..., j, i] = np.conj(H[..., i, j])
        out.append(H)
    return out


def boundary_real_hessian(u) -> list:
    """Real Hessian of u on each boundary face."""
    return [_boundary_real_second(u.values, u.geom, face) for face in (0, 1)]
