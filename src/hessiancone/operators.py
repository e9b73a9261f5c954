"""Discrete Hessian operators on flat model grids.

Second derivatives are centered and second order.  Every centered
stencil, at the interior nodes or along a Dirichlet face, reads windows
of one copy of the field padded by a wrapped ghost layer on each periodic
axis; interior stencils may read the Dirichlet faces, which hold the
boundary data.  Derivatives along the Dirichlet axis at a face are
one-sided.  Forms are plain (..., r, r) arrays over the nodes they
cover.  With dz = (dx - i dy)/2 the complex Hessian of a real field is

    u_{i jbar} = ((u_{x_i x_j} + u_{y_i y_j}) + i (u_{x_i y_j} - u_{y_i x_j})) / 4,

Hermitian by construction and exact on real-quadratic polynomials.
f(lambda(g)) needs only sigma_1..sigma_m of the eigenvalues of g, which
one per-node recurrence gives with the Newton tensors T_j (Reilly 1973):

    T_0 = I,    sigma_j = tr(g T_{j-1}) / j,    T_j = sigma_j I - g T_{j-1}.

As d sigma_j = tr(T_{j-1} dg), the linearization is
sum_j (df/dsigma_j) T_{j-1}, with no special case for equal eigenvalues.
"""

from __future__ import annotations

import numpy as np

from . import cones

__all__ = [
    "AdmissibilityError",
    "complex_hessian",
    "real_hessian",
    "eigen_field",
    "newton_tensors",
    "newton_state",
    "residual",
    "linearize",
    "coefficient_tensor",
    "apply_second_order",
    "nonzero_pairs",
    "gradient_interior",
    "gradient_boundary",
    "boundary_complex_hessian",
    "first_derivative_centered",
]

class AdmissibilityError(ValueError):
    """Eigenvalues left the cone at some node; carries its grid index."""

    def __init__(self, node, message=None):
        self.node = tuple(int(i) for i in node)
        super().__init__(message or f"inadmissible node at grid index {self.node}")


def _padded(u_full: np.ndarray, geom) -> np.ndarray:
    """One wrapped ghost layer on each periodic axis; along the Dirichlet
    axis the two faces already border the interior."""
    pad = [(1, 1)] * u_full.ndim
    pad[geom.dirichlet_axis] = (0, 0)
    return np.pad(u_full, pad, mode="wrap")


def _window(geom, shifts, layer=None) -> tuple:
    """Slice of a padded array over the interior, offset by shifts along
    the periodic axes; with ``layer``, along the Dirichlet axis it takes
    those node layers instead (an index, or a list such as [0, -1] for
    both faces)."""
    starts = [1 + shifts.get(a, 0) for a in range(geom.real_dims)]
    win = [slice(s, s + size) for s, size in zip(starts, geom.interior_shape)]
    if layer is not None:
        win[geom.dirichlet_axis] = layer
    return tuple(win)


def _second_partials(u_full, geom, layer=None):
    """Callable (a, b) -> centered d^2 u / dx_a dx_b on the interior, or
    on the Dirichlet-axis ``layer`` (a, b periodic there)."""
    p = _padded(u_full, geom)
    h2 = geom.h * geom.h

    # (plus - 2 zero + minus) / h2 and (pp - pm - mp + mm) / (4 h2) in
    # one buffer, operation by operation in that order, so the result is
    # the same to the bit as the plain expression
    def second(a, b):
        if a == b:
            plus, zero, minus = (p[_window(geom, {a: s}, layer)] for s in (1, 0, -1))
            d = np.multiply(zero, 2.0)
            np.subtract(plus, d, out=d)
            d += minus
            d /= h2
            return d
        pp, pm, mp, mm = (p[_window(geom, {a: sa, b: sb}, layer)]
                          for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
        d = np.subtract(pp, pm)
        d -= mp
        d += mm
        d /= 4.0 * h2
        return d

    return second


def _complex_form(second, geom, shape) -> np.ndarray:
    """u_{i jbar} over nodes of the given shape, from the real second
    partials ``second(a, b)``; the x_i y_i partials are never requested."""
    n = geom.n
    g = np.zeros(shape + (n, n), dtype=complex)
    for i in range(n):
        xi, yi = geom.complex_axes(i)
        g[..., i, i] = 0.25 * (second(xi, xi) + second(yi, yi))
        for j in range(i + 1, n):
            xj, yj = geom.complex_axes(j)
            re = second(xi, xj) + second(yi, yj)
            im = second(xi, yj) - second(yi, xj)
            g[..., i, j] = 0.25 * (re + 1j * im)
            g[..., j, i] = np.conj(g[..., i, j])
    return g


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


def complex_hessian(u, chi=None) -> np.ndarray:
    """g = chi + complex Hessian of u at the interior nodes."""
    geom = u.geom
    if not geom.is_complex:
        raise ValueError("complex_hessian needs a complex geometry")
    g = _complex_form(_second_partials(u.values, geom), geom, geom.interior_shape)
    g += _chi_interior(chi, geom, geom.n, complex)
    return g


def real_hessian(u, chi=None) -> np.ndarray:
    """chi + real Hessian (flat Christoffel symbols) at interior nodes."""
    geom = u.geom
    d = geom.real_dims
    second = _second_partials(u.values, geom)
    g = np.zeros(geom.interior_shape + (d, d))
    for a in range(d):
        for b in range(a, d):
            g[..., a, b] = g[..., b, a] = second(a, b)
    g += _chi_interior(chi, geom, d, float)
    return g


def form_field(u, chi=None) -> np.ndarray:
    return complex_hessian(u, chi) if u.geom.is_complex else real_hessian(u, chi)


def eigen_field(g: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues per node (dense Hermitian solver)."""
    return np.linalg.eigvalsh(g)


def newton_tensors(g: np.ndarray, m: int):
    """sigma_0..sigma_m (real, last axis) and Newton tensors T_0..T_{m-1}
    of each matrix in the stack g.  Each trace is a real pairing with g^T;
    the product g T is formed only to build T_j for j >= 2."""
    eye = np.eye(g.shape[-1])
    gt = np.swapaxes(g, -1, -2)
    sigma = np.ones(g.shape[:-2] + (m + 1,))
    tensors = [eye]
    for j in range(1, m + 1):
        sigma[..., j] = np.einsum("...ab,...ab->...", gt, tensors[-1]).real / j
        if j < m:
            gT = g if j == 1 else g @ tensors[-1]
            tensors.append(sigma[..., j, None, None] * eye - gT)
    return sigma, tensors


def _require_admissible(sigma, geom):
    """AdmissibilityError at the first node whose sigmas leave the cone."""
    ok = cones.sigmas_in_cone(sigma)
    if not np.all(ok):
        node = list(np.argwhere(~ok)[0])
        node[geom.dirichlet_axis] += 1  # interior index -> full-grid index
        raise AdmissibilityError(node)


def newton_state(u, fun, chi=None):
    """(sigma, tensors) of newton_tensors at g[u] = chi + Hessian of u.

    Raises AdmissibilityError (with the offending full-grid index) if any
    node's eigenvalues leave the cone.
    """
    sigma, tensors = newton_tensors(form_field(u, chi), fun.cone_order)
    _require_admissible(sigma, u.geom)
    return sigma, tensors


def residual(u, fun, psi_t, chi=None) -> np.ndarray:
    """f(lambda(g[u])) - psi_t on the interior nodes; AdmissibilityError
    as in newton_state."""
    vals = cones.f_from_sigmas(fun, newton_state(u, fun, chi)[0])
    target = psi_t.values[u.geom.interior] if hasattr(psi_t, "values") else psi_t
    return vals - target


def linearize(u, fun, chi=None, state=None) -> np.ndarray:
    """Coefficient matrices F^{i jbar} = sum_j (df/dsigma_j) T_{j-1} of the
    linearized operator per node: positive definite wherever the iterate
    is admissible (rejected otherwise), Hermitian exactly.  ``state`` is
    newton_state(u, fun, chi) when the caller has it already."""
    sigma, tensors = newton_state(u, fun, chi) if state is None else state
    coeff = sum(c[..., None, None] * tensors[j - 1]
                for j, c in cones.df_dsigmas(fun, sigma).items())
    return 0.5 * (coeff + np.conj(np.swapaxes(coeff, -1, -2)))


def coefficient_tensor(F: np.ndarray, geom) -> np.ndarray:
    """Real symmetric coefficients over the real coordinates.

    For complex geometry the linearized operator is the trace pairing
    trace(F H[v]) with H the complex Hessian (the adjoint of the map in
    _complex_form); in real coordinates this is
    sum_ab C_ab d^2 v / dx_a dx_b with quarter blocks [[S, T], [-T, S]]
    (S = Re F, T = Im F) in interleaved (x_i, y_i) order.  C is the
    (..., r, r) view of an (r, r, ...) buffer: each C[..., a, b] is
    contiguous.
    """
    if not geom.is_complex:
        C = np.moveaxis(F.real, (-2, -1), (0, 1)).copy()
        return np.moveaxis(C, (0, 1), (-2, -1))
    S, T = F.real, F.imag
    C = np.empty((geom.real_dims,) * 2 + S.shape[:-2])
    for i in range(geom.n):
        xi, yi = geom.complex_axes(i)
        for j in range(geom.n):
            xj, yj = geom.complex_axes(j)
            C[xi, xj] = C[yi, yj] = 0.25 * S[..., i, j]
            C[xi, yj] = 0.25 * T[..., i, j]
            C[yi, xj] = -0.25 * T[..., i, j]
    return np.moveaxis(C, (0, 1), (-2, -1))


def nonzero_pairs(C: np.ndarray) -> frozenset:
    """The off-diagonal index pairs (a, b), a < b, where some C_ab is nonzero."""
    r = C.shape[-1]
    return frozenset((a, b) for a in range(r) for b in range(a + 1, r)
                     if np.any(C[..., a, b]))


def apply_second_order(C: np.ndarray, u_full: np.ndarray, geom,
                       pairs=None) -> np.ndarray:
    """sum_ab C_ab d^2 u / dx_a dx_b on the interior, C symmetric.

    Of the off-diagonal terms only ``pairs`` (default nonzero_pairs(C))
    are applied; a caller applying one C many times computes them once.
    """
    if pairs is None:
        pairs = nonzero_pairs(C)
    r = geom.real_dims
    second = _second_partials(u_full, geom)
    out = np.zeros(geom.interior_shape)
    for a in range(r):
        d = second(a, a)
        d *= C[..., a, a]
        out += d
        for b in range(a + 1, r):
            if (a, b) in pairs:
                d = second(a, b)
                d *= 2.0 * C[..., a, b]
                out += d
    return out


def first_derivative_centered(u_full: np.ndarray, geom, axis: int,
                              layer=None) -> np.ndarray:
    """Centered first derivative on the interior nodes, or on the
    Dirichlet-axis ``layer`` (axis periodic there)."""
    p = _padded(u_full, geom)
    return (p[_window(geom, {axis: 1}, layer)]
            - p[_window(geom, {axis: -1}, layer)]) / (2.0 * geom.h)


def gradient_interior(u) -> np.ndarray:
    """All first partials (centered) at interior nodes: (..., real_dims)."""
    return np.stack([first_derivative_centered(u.values, u.geom, a)
                     for a in range(u.geom.real_dims)], axis=-1)


def _face_layers(geom, face, count):
    """Dirichlet-axis indices of the first ``count`` node layers from a
    face inwards, and the inward sign (+1 on face 0, -1 on face 1)."""
    return ([k if face == 0 else -1 - k for k in range(count)],
            1 if face == 0 else -1)


def _one_sided(layers, sgn, h):
    """Second-order one-sided derivative along the Dirichlet axis from the
    face layers (oriented by the inward sign)."""
    return sgn * (-3.0 * layers[0] + 4.0 * layers[1] - layers[2]) / (2.0 * h)


def gradient_boundary(u) -> list:
    """Per face: (face_shape, real_dims) first derivatives; the normal
    derivative uses the second-order one-sided stencil."""
    geom = u.geom
    out = []
    for face in (0, 1):
        layers, sgn = _face_layers(geom, face, 3)
        values = [np.take(u.values, k, axis=geom.dirichlet_axis) for k in layers]
        grads = np.zeros(values[0].shape + (geom.real_dims,))
        for a in geom.periodic_axes:
            grads[..., a] = first_derivative_centered(u.values, geom, a, layers[0])
        grads[..., geom.dirichlet_axis] = _one_sided(values, sgn, geom.h)
        out.append(grads)
    return out


def _boundary_real_second(u_full, geom, face):
    """Real second partials on one boundary face; derivatives along the
    Dirichlet axis use second-order one-sided stencils."""
    h = geom.h
    da = geom.dirichlet_axis
    layers, sgn = _face_layers(geom, face, 4)
    values = [np.take(u_full, k, axis=da) for k in layers]
    second = _second_partials(u_full, geom, layers[0])
    r = geom.real_dims
    D = np.zeros(values[0].shape + (r, r))
    for i, a in enumerate(geom.periodic_axes):
        for b in geom.periodic_axes[i:]:
            D[..., a, b] = D[..., b, a] = second(a, b)
        # mixed normal-tangential: one-sided normal difference of the
        # centered tangential derivative, taken on three layers at once
        tang = np.moveaxis(first_derivative_centered(u_full, geom, a, layers[:3]), da, 0)
        D[..., a, da] = D[..., da, a] = _one_sided(tang, sgn, h)
    D[..., da, da] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2]
                      - values[3]) / (h * h)
    return D


def boundary_complex_hessian(u) -> list:
    """Complex Hessian of u on each boundary face (no chi added)."""
    return [_complex_form(lambda a, b: D[..., a, b], u.geom, D.shape[:-2])
            for D in boundary_real_hessian(u)]


def boundary_real_hessian(u) -> list:
    """Real Hessian of u on each boundary face."""
    return [_boundary_real_second(u.values, u.geom, face) for face in (0, 1)]
