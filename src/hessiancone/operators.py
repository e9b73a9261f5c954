"""Discrete Hessian operators on flat model grids.

Second derivatives are centered and second order.  Every centered
stencil, at the interior nodes or along a Dirichlet face, reads windows
of one copy of the field padded by a wrapped ghost layer on each periodic
axis; interior stencils may read the Dirichlet faces, which hold the
boundary data.  Derivatives along the Dirichlet axis at a face are
one-sided.  A per-node form (the Hessian g, the Newton tensors, the
linearization F, the coefficients C) is stored node-major: an
(r, r, *nodes) buffer with each entry plane contiguous, handed out as its
(..., r, r) view, and the sigmas likewise as an (m+1, *nodes) buffer
behind a (..., m+1) view.  The per-node algebra loops over the r^2 entry
planes rather than over a trailing axis of length 2 or 3.  With
dz = (dx - i dy)/2 the complex Hessian of a real field is

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
    "exit_polynomial",
    "cone_exit",
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
    shape = [size + 2 for size in u_full.shape]
    shape[geom.dirichlet_axis] -= 2
    p = np.empty(shape)
    p[_window(geom, {}, slice(None))] = u_full
    return _wrap_ghosts(p, geom)


def _wrap_ghosts(p: np.ndarray, geom) -> np.ndarray:
    """Refill the ghost layers of a padded array in place from the opposite
    edges, axis after axis over the whole extent of the others, so the
    corners wrap too and p equals np.pad(..., mode="wrap") of its core."""
    for a in geom.periodic_axes:
        q = np.moveaxis(p, a, 0)  # a view: the writes land in p
        q[0] = q[-2]
        q[-1] = q[1]
    return p


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


def _second_partials(u, geom, layer=None):
    """Callable (a, b) -> centered d^2 u / dx_a dx_b on the interior, or
    on the Dirichlet-axis ``layer`` (a, b periodic there).  ``u`` is a
    full-shape field or a padded one (``_padded``), which is read as it is."""
    p = _padded(u, geom) if u.shape == geom.shape else u
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


def _planes(form: np.ndarray) -> np.ndarray:
    """The (r, r, ...) entry planes of a (..., r, r) form: a view of the
    buffer behind a form built here, a contiguous copy of any other."""
    return np.ascontiguousarray(np.moveaxis(form, (-2, -1), (0, 1)))


def _form(planes: np.ndarray) -> np.ndarray:
    """The (..., r, r) view of an (r, r, ...) buffer of entry planes."""
    return np.moveaxis(planes, (0, 1), (-2, -1))


def _complex_form(second, geom, shape) -> np.ndarray:
    """u_{i jbar} over nodes of the given shape, from the real second
    partials ``second(a, b)``; the x_i y_i partials are never requested."""
    n = geom.n
    g = np.zeros((n, n) + shape, dtype=complex)
    re, im = g.real, g.imag
    for i in range(n):
        xi, yi = geom.complex_axes(i)
        np.multiply(second(xi, xi) + second(yi, yi), 0.25, out=re[i, i])
        for j in range(i + 1, n):
            xj, yj = geom.complex_axes(j)
            np.multiply(second(xi, xj) + second(yi, yj), 0.25, out=re[i, j])
            re[j, i] = re[i, j]
            np.multiply(second(xi, yj) - second(yi, xj), 0.25, out=im[i, j])
            np.negative(im[i, j], out=im[j, i])
    return _form(g)


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
    g = np.empty((d, d) + geom.interior_shape)
    for a in range(d):
        for b in range(a, d):
            g[a, b] = g[b, a] = second(a, b)
    g = _form(g)
    g += _chi_interior(chi, geom, d, float)
    return g


def form_field(u, chi=None) -> np.ndarray:
    return complex_hessian(u, chi) if u.geom.is_complex else real_hessian(u, chi)


def laplacian(u) -> np.ndarray:
    """The trace of form_field(u) at the interior nodes, from the diagonal
    second partials alone, added in the diagonal's order as the trace adds
    them: the same values, up to the sign of a zero."""
    geom = u.geom
    second = _second_partials(u.values, geom)
    if geom.is_complex:
        return sum(np.multiply(second(x, x) + second(y, y), 0.25)
                   for x, y in map(geom.complex_axes, range(geom.n)))
    return sum(second(a, a) for a in range(geom.real_dims))


def eigen_field(g: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues per node (dense Hermitian solver)."""
    return np.linalg.eigvalsh(g)


def _real_product(x, y):
    """Re(x y) of two entry planes, formed as the complex product forms it."""
    if np.iscomplexobj(x):
        return x.real * y.real - x.imag * y.imag
    return x * y


def _plane_product(G, T):
    """The planes of g T from those of g and T, summed over k in order."""
    r = len(G)
    out = np.empty_like(T)
    for a in range(r):
        for b in range(r):
            out[a, b] = G[a, 0] * T[0, b]
            for k in range(1, r):
                out[a, b] += G[a, k] * T[k, b]
    return out


def newton_tensors(g: np.ndarray, m: int):
    """sigma_0..sigma_m (real, last axis) and Newton tensors T_0..T_{m-1}
    of each matrix in the stack g.

    sigma_1 is the sum of the diagonal planes, and sigma_j =
    sum_ab Re(g_ba T_ab) / j is summed over b within each row a, then
    over the rows: the order np.einsum sums it in.  T_0 is np.eye(r),
    never a field; T_j = sigma_j I - g T_{j-1} is built plane by plane,
    the product g T only for j >= 2.  sigma and each T_j are views of
    node-major buffers.
    """
    r, nodes = g.shape[-1], g.shape[:-2]
    G = _planes(g).reshape(r, r, -1)
    sigma = np.empty((m + 1,) + G.shape[2:])
    sigma[0] = 1.0
    sigma[1] = G[0, 0].real
    for a in range(1, r):
        sigma[1] += G[a, a].real
    tensors = [np.eye(r)]
    for j in range(1, m + 1):
        if j > 1:
            for a in range(r):
                row = _real_product(G[0, a], T[a, 0])
                for b in range(1, r):
                    row += _real_product(G[b, a], T[a, b])
                if a:
                    sigma[j] += row
                else:
                    sigma[j] = row
            sigma[j] /= j
        if j < m:
            T = np.negative(G if j == 1 else _plane_product(G, T))
            for a in range(r):
                T.real[a, a] += sigma[j]
            tensors.append(_form(T.reshape((r, r) + nodes)))
    return np.moveaxis(sigma.reshape((m + 1,) + nodes), 0, -1), tensors


def _trace_product(A, B):
    """Re tr(A B) per node of two stacks of (r, r) forms."""
    return np.einsum("...ab,...ba->...", A, B).real


def exit_polynomial(g: np.ndarray, H: np.ndarray, m: int) -> np.ndarray:
    """Coefficients c_0..c_m (last axis) of p(theta) = sigma_m(g + theta H)
    per node, for m <= 3, by polarization of newton_tensors:

        c_0 = sigma_m(g),  c_1 = Re tr(T_{m-1}(g) H),
        c_{m-1} = Re tr(T_{m-1}(H) g),  c_m = sigma_m(H),

    since d sigma_m = tr(T_{m-1} dg) at g, and at H for the reversed
    polynomial theta^m sigma_m(H + g / theta).  These are all of them for
    m <= 3.  H's tensors are dropped before g's are formed."""
    if not 1 <= m <= 3:
        raise ValueError(f"exit_polynomial needs 1 <= m <= 3, not {m}")
    sigma, tensors = newton_tensors(H, m)
    c = np.empty(sigma.shape)
    c[..., m] = sigma[..., m]
    if m > 2:
        c[..., m - 1] = _trace_product(tensors[m - 1], g)
    del sigma, tensors
    sigma, tensors = newton_tensors(g, m)
    c[..., 0] = sigma[..., m]
    if m > 1:
        c[..., 1] = _trace_product(tensors[m - 1], H)
    return c


def cone_exit(g: np.ndarray, H: np.ndarray, m: int) -> np.ndarray:
    """theta* per node, the smallest positive root of sigma_m(g + theta H)
    for g inside Gamma_m (m <= 3), or inf where there is none: where the
    ray from g along H leaves the cone.

    sigma_m is hyperbolic with respect to every point of Gamma_m (Garding,
    J. Math. Mech. 8, 1959), so sigma_m(H + s g) has real roots only.  The
    closed forms work in s = 1 / theta, on the monic polynomial
    s^m + (c_1 s^(m-1) + ... + c_m) / c_0 (exit_polynomial), whose leading
    coefficient c_0 > 0 never vanishes: theta* is 1 / s for its largest
    root s, where that is positive.  That root is linear for m = 1, the
    cancellation-free form of the quadratic formula for m = 2, and the
    trigonometric (Viete) root of the depressed cubic, with all roots real,
    for m = 3."""
    c = exit_polynomial(g, H, m)
    a = c[..., 1:] / c[..., :1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if m == 1:
            s = -a[..., 0]
        elif m == 2:
            b, c2 = a[..., 0], a[..., 1]
            root = np.sqrt(np.maximum(b * b - 4.0 * c2, 0.0))
            s = np.where(b <= 0.0, 0.5 * (root - b), -2.0 * c2 / (b + root))
        else:
            shift = a[..., 0] / 3.0  # s = t - shift: t^3 + p t + q
            p = a[..., 1] - a[..., 0] * shift
            q = (2.0 * shift * shift - a[..., 1]) * shift + a[..., 2]
            rad = np.sqrt(np.maximum(-p / 3.0, 0.0))
            cos3 = np.clip(-q / (2.0 * rad**3), -1.0, 1.0)
            t = np.where(rad > 0.0, 2.0 * rad * np.cos(np.arccos(cos3) / 3.0),
                         np.cbrt(-q))
            s = t - shift
        return np.where(s > 0.0, 1.0 / s, np.inf)


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
    newton_state(u, fun, chi) when the caller has it already.  F is the
    view of a node-major buffer; a df/dsigma_1 term (T_0 = I) adds to the
    diagonal planes only."""
    sigma, tensors = newton_state(u, fun, chi) if state is None else state
    dfds = cones.df_dsigmas(fun, sigma)
    r, nodes = tensors[0].shape[-1], sigma.shape[:-1]
    F = np.zeros((r, r, sigma[..., 0].size),
                 np.result_type(*(tensors[j - 1] for j in dfds)))
    for j, c in dfds.items():
        c = c.reshape(-1)
        if j == 1:
            for a in range(r):
                F.real[a, a] += c
        else:
            F += c * _planes(tensors[j - 1]).reshape(F.shape)
    # F <- (F + F^*) / 2, each pair of planes once
    for a in range(r):
        for b in range(a, r):
            F[a, b] = 0.5 * (F[a, b] + np.conj(F[b, a]))
            if b > a:
                F[b, a] = np.conj(F[a, b])
    return _form(F.reshape((r, r) + nodes))


def coefficient_tensor(F: np.ndarray, geom) -> np.ndarray:
    """Real symmetric coefficients over the real coordinates.

    For complex geometry the linearized operator is the trace pairing
    trace(F H[v]) with H the complex Hessian (the adjoint of the map in
    _complex_form); in real coordinates this is
    sum_ab C_ab d^2 v / dx_a dx_b with quarter blocks [[S, T], [-T, S]]
    (S = Re F, T = Im F) in interleaved (x_i, y_i) order.  C is the
    (..., r, r) view of an (r, r, ...) buffer: each C[..., a, b] is
    contiguous.  On real geometry C is Re F's own node-major buffer when
    F has one.
    """
    if not geom.is_complex:
        return _form(_planes(F.real))
    S, T = F.real, F.imag
    C = np.empty((geom.real_dims,) * 2 + S.shape[:-2])
    for i in range(geom.n):
        xi, yi = geom.complex_axes(i)
        for j in range(geom.n):
            xj, yj = geom.complex_axes(j)
            np.multiply(S[..., i, j], 0.25, out=C[xi, xj])
            C[yi, yj] = C[xi, xj]
            np.multiply(T[..., i, j], 0.25, out=C[xi, yj])
            np.negative(C[xi, yj], out=C[yi, xj])
    return _form(C)


def nonzero_pairs(C: np.ndarray) -> frozenset:
    """The off-diagonal index pairs (a, b), a < b, where some C_ab is nonzero."""
    r = C.shape[-1]
    return frozenset((a, b) for a in range(r) for b in range(a + 1, r)
                     if np.any(C[..., a, b]))


def apply_second_order(C: np.ndarray, u_full: np.ndarray, geom,
                       pairs=None) -> np.ndarray:
    """sum_ab C_ab d^2 u / dx_a dx_b on the interior, C symmetric.

    ``u_full`` is the full-shape field, or the field already padded as
    ``_padded`` pads it; a caller applying C to many vectors keeps one
    padded buffer and refreshes its ghosts with ``_wrap_ghosts``.  Of the
    off-diagonal terms only ``pairs`` (default nonzero_pairs(C)) are
    applied; such a caller computes them once.
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


def first_derivative_centered(u: np.ndarray, geom, axis: int,
                              layer=None) -> np.ndarray:
    """Centered first derivative on the interior nodes, or on the
    Dirichlet-axis ``layer`` (axis periodic there).  ``u`` is a full-shape
    field or a padded one (``_padded``), which is read as it is."""
    p = _padded(u, geom) if u.shape == geom.shape else u
    return (p[_window(geom, {axis: 1}, layer)]
            - p[_window(geom, {axis: -1}, layer)]) / (2.0 * geom.h)


def gradient_interior(u, padded=None) -> np.ndarray:
    """All first partials (centered) at interior nodes: (..., real_dims).
    ``padded`` is _padded(u.values) when the caller has it already; the
    face stencils below take it the same way."""
    p = _padded(u.values, u.geom) if padded is None else padded
    return np.stack([first_derivative_centered(p, u.geom, a)
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


def gradient_boundary(u, padded=None) -> list:
    """Per face: (face_shape, real_dims) first derivatives; the normal
    derivative uses the second-order one-sided stencil."""
    geom = u.geom
    p = _padded(u.values, geom) if padded is None else padded
    out = []
    for face in (0, 1):
        layers, sgn = _face_layers(geom, face, 3)
        values = [np.take(u.values, k, axis=geom.dirichlet_axis) for k in layers]
        grads = np.zeros(values[0].shape + (geom.real_dims,))
        for a in geom.periodic_axes:
            grads[..., a] = first_derivative_centered(p, geom, a, layers[0])
        grads[..., geom.dirichlet_axis] = _one_sided(values, sgn, geom.h)
        out.append(grads)
    return out


def _boundary_real_second(u_full, p, geom, face):
    """Real second partials on one boundary face from the field and its
    padded copy ``p``; derivatives along the Dirichlet axis use
    second-order one-sided stencils."""
    h = geom.h
    da = geom.dirichlet_axis
    layers, sgn = _face_layers(geom, face, 4)
    values = [np.take(u_full, k, axis=da) for k in layers]
    second = _second_partials(p, geom, layers[0])
    r = geom.real_dims
    D = np.empty((r, r) + values[0].shape)
    for i, a in enumerate(geom.periodic_axes):
        for b in geom.periodic_axes[i:]:
            D[a, b] = D[b, a] = second(a, b)
        # mixed normal-tangential: one-sided normal difference of the
        # centered tangential derivative, taken on three layers at once
        tang = np.moveaxis(first_derivative_centered(p, geom, a, layers[:3]), da, 0)
        D[a, da] = D[da, a] = _one_sided(tang, sgn, h)
    D[da, da] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2]
                 - values[3]) / (h * h)
    return _form(D)


def boundary_complex_hessian(u, padded=None) -> list:
    """Complex Hessian of u on each boundary face (no chi added)."""
    return [_complex_form(lambda a, b: D[..., a, b], u.geom, D.shape[:-2])
            for D in boundary_real_hessian(u, padded)]


def boundary_real_hessian(u, padded=None) -> list:
    """Real Hessian of u on each boundary face."""
    p = _padded(u.values, u.geom) if padded is None else padded
    return [_boundary_real_second(u.values, p, u.geom, face) for face in (0, 1)]
