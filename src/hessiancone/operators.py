"""Discrete Hessian operators on flat model grids.

Second derivatives are centered and second order.  Every centered
stencil, at the interior nodes or along a Dirichlet face, reads windows
of one copy of the field padded by a wrapped ghost layer on each periodic
axis; interior stencils may read the Dirichlet faces, which hold the
boundary data.  Derivatives along the Dirichlet axis at a face are
one-sided.  The mixed partials of a field share their first pass: one
centred first difference D_b = u_+b - u_-b per axis b that has a mixed
pair, of which u_ab is one subtraction of two windows,
(D_b at +a - D_b at -a) / 4h^2.  Each caller (the Krylov operator, the
Hessians) scales its sums once.  The values agree with the four-window
form (u_++ - u_+- - u_-+ + u_--) / 4h^2 up to rounding, but not bit for
bit: the operations run in another order.  A per-node form (the Hessian
g, the Newton tensors, the linearization F) is stored node-major: an
(r, r, *nodes) buffer with each entry plane contiguous, handed out as its
(..., r, r) view, and the sigmas likewise as an (m+1, *nodes) buffer
behind a (..., m+1) view.  The per-node algebra loops over the r^2 entry
planes rather than over a trailing axis of length 2 or 3.  The real
coefficients C of the linearized operator keep only their distinct
planes, keyed by axis pair (coefficient_tensor): n^2 on the complex
model, where the dense form has 4 n^2, and each plane is multiplied
once per mixed partial that reads it.  With
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
    "form_field",
    "eigen_field",
    "newton_tensors",
    "exit_polynomial",
    "cone_exit",
    "newton_state",
    "linearize",
    "coefficient_tensor",
    "apply_second_order",
    "gradient_interior",
    "gradient_boundary",
    "boundary_complex_hessian",
    "boundary_real_hessian",
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
    """The unscaled second differences of u on the interior, or on the
    Dirichlet-axis ``layer`` index (every axis periodic there), as two
    callables:

        diagonal(*axes, out=None) = -2k u_0 + (u_+a + u_-a) + ...,
            over the k axes in turn: h^2 times the sum of their u_aa;
        mixed(a, b) = (D_b at +1 along a, D_b at -1 along a),
            two windows whose difference is 4 h^2 u_ab.

    D_b = u_+b - u_-b is the centred first difference along b.  It is
    formed on the first request of a mixed partial along b, in one pass
    over the padded array (over a copy of the layer alone on a face), and
    the mixed partials along b that follow read two windows of it.  Only
    the latest D_b is kept, so a caller that groups its mixed partials by
    b pays one pass per such axis and one subtraction per mixed partial,
    and holds one padded-size buffer.  The callers scale once, with 1/h^2
    and the 1/4 in one factor.  The corners pair as
    (u_++ - u_+-) - (u_-+ - u_--), where the four-window form summed
    u_++ - u_+- - u_-+ + u_-- and divided by 4h^2, so mixed partials differ
    from it by rounding.  ``u`` is a full-shape field or a padded one
    (``_padded``), which is read as it is."""
    p = _padded(u, geom) if u.shape == geom.shape else u
    diffs = {}
    centre = _window(geom, {}, layer)
    source, source_centre = p, centre
    if layer is not None:
        da = geom.dirichlet_axis
        source = p[(slice(None),) * da + ([layer],)]  # a copy, one layer thick
        source_centre = centre[:da] + (0,) + centre[da + 1:]

    def window(base, a, s):
        win = list(base)
        win[a] = slice(win[a].start + s, win[a].stop + s)
        return tuple(win)

    def diagonal(*axes, out=None):
        d = np.multiply(p[centre], -2.0 * len(axes), out=out)
        for a in axes:
            d += p[window(centre, a, 1)]
            d += p[window(centre, a, -1)]
        return d

    def mixed(a, b):
        if b not in diffs:
            diffs.clear()
            # one contiguous pass over the flattened source: node k takes u
            # at k +- the stride of b; the entries it leaves unset, or fills
            # across the ends of axis b, are outside every window
            D = diffs[b] = np.empty(source.shape)
            s = int(np.prod(source.shape[b + 1:]))
            flat = source.reshape(-1)
            np.subtract(flat[2 * s:], flat[:-2 * s], out=D.reshape(-1)[s:-s])
        return tuple(diffs[b][window(source_centre, a, s)] for s in (1, -1))

    return diagonal, mixed


def _real_partials(stencils, axes, h, out):
    """out[a, b] = out[b, a] = u_ab for a, b in ``axes`` from the stencils
    of _second_partials, each entry written and then scaled in place, the
    mixed partials grouped by their first difference."""
    diagonal, mixed = stencils
    scale = 1.0 / (h * h)
    for i, b in enumerate(axes):
        diagonal(b, out=out[b, b])
        out[b, b] *= scale
        for a in axes[:i]:
            plus, minus = mixed(a, b)
            np.subtract(plus, minus, out=out[a, b])
            out[a, b] *= 0.25 * scale
            out[b, a] = out[a, b]
    return out


def _planes(form: np.ndarray) -> np.ndarray:
    """The (r, r, ...) entry planes of a (..., r, r) form: a view of the
    buffer behind a form built here, a contiguous copy of any other."""
    return np.ascontiguousarray(np.moveaxis(form, (-2, -1), (0, 1)))


def _form(planes: np.ndarray) -> np.ndarray:
    """The (..., r, r) view of an (r, r, ...) buffer of entry planes."""
    return np.moveaxis(planes, (0, 1), (-2, -1))


def _complex_form(D, geom) -> np.ndarray:
    """u_{i jbar} from the real second partials D (..., r, r) of a face;
    the x_i y_i partials are never read."""
    n = geom.n
    g = np.zeros((n, n) + D.shape[:-2], dtype=complex)
    re, im = g.real, g.imag
    for i in range(n):
        xi, yi = geom.complex_axes(i)
        np.multiply(D[..., xi, xi] + D[..., yi, yi], 0.25, out=re[i, i])
        for j in range(i + 1, n):
            xj, yj = geom.complex_axes(j)
            np.multiply(D[..., xi, xj] + D[..., yi, yj], 0.25, out=re[i, j])
            re[j, i] = re[i, j]
            np.multiply(D[..., xi, yj] - D[..., yi, xj], 0.25, out=im[i, j])
            np.negative(im[i, j], out=im[j, i])
    return _form(g)


def _chi_interior(chi, dim, dtype):
    """chi, one (dim, dim) form for every node; zero when None."""
    chi = np.zeros((dim, dim)) if chi is None else np.asarray(chi)
    if chi.shape != (dim, dim):
        raise ValueError(f"chi shape {chi.shape} not understood")
    return chi.astype(dtype)


def complex_hessian(u, chi=None) -> np.ndarray:
    """g = chi + complex Hessian of u at the interior nodes, each entry of
    the Hessian in one scaled write of _second_partials' stencils: the
    diagonal from the five windows of diagonal(x_i, y_i), an off-diagonal
    from the first differences along x_j and y_j."""
    geom = u.geom
    if not geom.is_complex:
        raise ValueError("complex_hessian needs a complex geometry")
    n = geom.n
    diagonal, mixed = _second_partials(u.values, geom)
    scale = 0.25 / (geom.h * geom.h)
    g = np.zeros((n, n) + geom.interior_shape, dtype=complex)
    re, im = g.real, g.imag
    d, e = np.empty((2,) + geom.interior_shape)
    for i in range(n):
        xi, yi = geom.complex_axes(i)
        np.multiply(diagonal(xi, yi, out=d), scale, out=re[i, i])
        for j in range(i + 1, n):
            xj, yj = geom.complex_axes(j)
            # Re: u_{x_i x_j} + u_{y_i y_j} in d, Im: u_{x_i y_j} - u_{y_i x_j}
            # in e, the partials grouped by their first difference
            np.subtract(*mixed(xi, xj), out=d)
            np.subtract(*mixed(yi, xj), out=e)
            plus, minus = mixed(yi, yj)
            d += plus
            d -= minus
            plus, minus = mixed(xi, yj)
            np.subtract(plus, e, out=e)
            e -= minus
            np.multiply(d, 0.25 * scale, out=re[i, j])
            np.multiply(e, 0.25 * scale, out=im[i, j])
            re[j, i] = re[i, j]
            np.negative(im[i, j], out=im[j, i])
    g = _form(g)
    g += _chi_interior(chi, n, complex)
    return g


def real_hessian(u, chi=None) -> np.ndarray:
    """chi + real Hessian (flat Christoffel symbols) at interior nodes."""
    geom = u.geom
    d = geom.real_dims
    g = _real_partials(_second_partials(u.values, geom), range(d), geom.h,
                       np.empty((d, d) + geom.interior_shape))
    g = _form(g)
    g += _chi_interior(chi, d, float)
    return g


def form_field(u, chi=None) -> np.ndarray:
    return complex_hessian(u, chi) if u.geom.is_complex else real_hessian(u, chi)


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
            if j == 1:
                T = np.negative(G)
            else:  # negated in place: one allocation for -(g T)
                T = _plane_product(G, T)
                np.negative(T, out=T)
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
    scratch = np.empty(F.shape[2:], F.dtype)
    for j, c in dfds.items():
        c = c.reshape(-1)
        if j == 1:
            for a in range(r):
                F.real[a, a] += c
        else:
            T = _planes(tensors[j - 1]).reshape(F.shape)
            for a in range(r):
                for b in range(r):
                    F[a, b] += np.multiply(c, T[a, b], out=scratch)
    # F <- (F + F^*) / 2, each pair of planes once
    for a in range(r):
        for b in range(a, r):
            np.conjugate(F[b, a], out=scratch)
            scratch += F[a, b]
            np.multiply(scratch, 0.5, out=F[a, b])
            if b > a:
                np.conjugate(F[a, b], out=F[b, a])
    return _form(F.reshape((r, r) + nodes))


def coefficient_tensor(F: np.ndarray, geom) -> dict:
    """The real coefficients C_ab of the linearized operator
    sum_ab C_ab d^2 / dx_a dx_b, stored as their distinct planes: a dict
    from the axis pairs a <= b to (sign, plane) with
    C_ab = C_ba = sign * plane, each plane contiguous and of interior
    shape, each diagonal sign +1.

    For complex geometry the linearized operator is the trace pairing
    trace(F H[v]) with H the complex Hessian (the adjoint of the map in
    _complex_form); in real coordinates its quarter blocks are
    [[S, T], [-T, S]] (S = Re F, T = Im F) in interleaved (x_i, y_i)
    order.  So C[x_i, x_j] and C[y_i, y_j] are one plane, S_ij / 4;
    C[y_i, x_j] is C[x_i, y_j] = T_ij / 4 with sign -1; and the (x_i, y_i)
    entries, T_ii / 4 = 0 as F is Hermitian, are not stored: n^2 planes in
    all, where the dense form has 4 n^2.  On real geometry the d (d + 1) / 2
    planes a <= b are copied out of F, so that F can be freed (views would
    keep all d^2 of its planes).  Only these keys are applied, so no
    plane is scanned for zeros.
    """
    if not geom.is_complex:
        d = geom.real_dims
        return {(a, b): (1, F[..., a, b].copy())
                for a in range(d) for b in range(a, d)}
    S, T = F.real, F.imag
    C = {}
    for i in range(geom.n):
        xi, yi = geom.complex_axes(i)
        for j in range(i, geom.n):
            xj, yj = geom.complex_axes(j)
            C[xi, xj] = C[yi, yj] = (1, np.multiply(S[..., i, j], 0.25))
            if j > i:
                plane = np.multiply(T[..., i, j], 0.25)
                C[xi, yj], C[yi, xj] = (1, plane), (-1, plane)
    return C


def apply_second_order(C: dict, u_full: np.ndarray, geom) -> np.ndarray:
    """sum_ab C_ab d^2 u / dx_a dx_b on the interior, C as coefficient_tensor
    stores it (planes, or scalars for a constant operator), as

        (2 sum_a C_aa L_a + sum_{a<b} C_ab M_ab) / (2 h^2)

    with L_a = h^2 u_aa and M_ab = 4 h^2 u_ab the unscaled stencils of
    _second_partials: one first difference per axis b of a pair, the pairs
    of C's keys taken in order of b so that one is held at a time, one
    subtraction and one product with the plane per mixed partial, added
    or subtracted by its sign, and one scaling at the end.  Planes are
    shared in storage, not in arithmetic: a form that added the paired
    differences before multiplying was slower.

    ``u_full`` is the full-shape field, or the field already padded as
    ``_padded`` pads it; a caller applying C to many vectors keeps one
    padded buffer and refreshes its ghosts with ``_wrap_ghosts``.
    """
    diagonal, mixed = _second_partials(u_full, geom)
    out = diagonal(0)
    out *= C[0, 0][1]
    d = np.empty_like(out)
    for a in range(1, geom.real_dims):
        diagonal(a, out=d)
        d *= C[a, a][1]
        out += d
    scale = 1.0 / (geom.h * geom.h)
    pairs = sorted((b, a) for a, b in C if a < b)
    if pairs:
        out *= 2.0
        for b, a in pairs:
            sign, plane = C[a, b]
            np.subtract(*mixed(a, b), out=d)
            d *= plane
            if sign > 0:
                out += d
            else:
                out -= d
        scale *= 0.5
    out *= scale
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
    r = geom.real_dims
    D = _real_partials(_second_partials(p, geom, layers[0]), geom.periodic_axes,
                       h, np.empty((r, r) + values[0].shape))
    for a in geom.periodic_axes:
        # mixed normal-tangential: one-sided normal difference of the
        # centered tangential derivative, taken on three layers at once
        tang = np.moveaxis(first_derivative_centered(p, geom, a, layers[:3]), da, 0)
        D[a, da] = D[da, a] = _one_sided(tang, sgn, h)
    D[da, da] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2]
                 - values[3]) / (h * h)
    return _form(D)


def boundary_complex_hessian(u, padded=None) -> list:
    """Complex Hessian of u on each boundary face (no chi added)."""
    return [_complex_form(D, u.geom) for D in boundary_real_hessian(u, padded)]


def boundary_real_hessian(u, padded=None) -> list:
    """Real Hessian of u on each boundary face."""
    p = _padded(u.values, u.geom) if padded is None else padded
    return [_boundary_real_second(u.values, p, u.geom, face) for face in (0, 1)]
