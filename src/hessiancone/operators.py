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
bit: the operations run in another order.

A per-node form (the Hessian g, the Newton tensors T_j, the
linearization F, a face Hessian) is Hermitian on the complex model and
real symmetric on the cylinder, and is stored as the node-major real
planes of its distinct entries: a (P, *nodes) buffer, each plane
contiguous.  The r diagonal entries come first, then Re of the entries
a < b in row order, then, on the complex model only, Im of those
entries: P = r^2 planes on the complex model and r (r + 1) / 2 on the
cylinder, where a dense form holds 2 r^2 and r^2 floats (_index).  A
lower entry is read as the conjugate of its upper one, so no pass
symmetrizes anything.  A buffer may stop after its diagonal planes: a
diagonal form, as T_0 = I (np.ones(r)) and the F of sigma_1 are.  The
sigmas are an (m, *nodes) buffer behind a (..., m) view, sigma_j at
index j - 1 beside T_{j-1}: sigma_0 = 1 is never stored.  Dense
(..., r, r) forms are assembled only for LAPACK (_dense), for the nodes
it solves.  The sums of the recurrence keep the order of the dense
algebra they replace, so sigma_1, sigma_2, T_1 and F are bit for bit
the dense ones wherever m <= 2; T_2 on, g T is summed on its upper
triangle alone and differs from the dense product by rounding.  The
real coefficients C of the linearized operator are F's own planes,
keyed by axis pair (coefficient_tensor): n^2 on the complex model, where
the dense form has 4 n^2, and each plane is multiplied once per mixed
partial that reads it.  With
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

import math

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
    """The planes u_ab of out, a real form's planes (_index), for a <= b
    in ``axes`` from the stencils of _second_partials, each written and
    then scaled in place, the mixed partials grouped by their first
    difference."""
    diagonal, mixed = stencils
    r = _dim(len(out), False)
    scale = 1.0 / (h * h)
    for i, b in enumerate(axes):
        diagonal(b, out=out[b])
        out[b] *= scale
        for a in axes[:i]:
            plus, minus = mixed(a, b)
            ab = out[_index(r, a, b)]
            np.subtract(plus, minus, out=ab)
            ab *= 0.25 * scale
    return out


def _pairs(r):
    """The entries a < b of an r x r form in row order: the order of its
    off-diagonal planes."""
    return [(a, b) for a in range(r) for b in range(a + 1, r)]


def _index(r, a, b, imag=False):
    """The plane of entry (a, b) or (b, a) of an r x r form: the diagonal
    planes come first, then the pairs a < b in row order, their Re planes
    on the complex model; with ``imag``, the plane of the pair's Im part,
    r (r - 1) / 2 later."""
    a, b = min(a, b), max(a, b)
    if a == b:
        return a
    return (r + a * (2 * r - a - 1) // 2 + b - a - 1
            + (r * (r - 1) // 2 if imag else 0))


def _dim(count, is_complex):
    """r of the r^2 (Hermitian) or r (r + 1) / 2 (real symmetric) planes
    of r x r forms."""
    return (math.isqrt(count) if is_complex
            else (math.isqrt(8 * count + 1) - 1) // 2)


def _dense(planes, is_complex) -> np.ndarray:
    """The dense (..., r, r) forms of a planes buffer, each lower entry the
    conjugate of its upper one, the diagonal real: the input of a LAPACK
    call."""
    r = _dim(len(planes), is_complex)
    half = r * (r - 1) // 2
    out = np.zeros(planes.shape[1:] + (r, r), complex if is_complex else float)
    re = out.real
    for a in range(r):
        re[..., a, a] = planes[a]
    for k, (a, b) in enumerate(_pairs(r)):
        re[..., a, b] = re[..., b, a] = planes[r + k]
        if is_complex:
            out.imag[..., a, b] = planes[r + half + k]
            np.negative(planes[r + half + k], out=out.imag[..., b, a])
    return out


def _complex_terms(geom) -> list:
    """The complex structure: per plane of an n x n Hermitian form, in
    layout order, the real axis pairs (a, b), (c, d) and the sign s with
    g = (u_ab + s u_cd) / 4.  Re g_ij is (x_i, x_j) + (y_i, y_j), the
    diagonal planes being i = j; Im g_ij is (x_i, y_j) - (y_i, x_j).
    _complex_form reads it, and so does coefficient_tensor, its adjoint."""
    n = geom.n
    x, y = zip(*(geom.complex_axes(i) for i in range(n)))
    return ([((x[i], x[j]), (y[i], y[j]), 1)
             for i, j in [(i, i) for i in range(n)] + _pairs(n)]
            + [((x[i], y[j]), (y[i], x[j]), -1) for i, j in _pairs(n)])


def _complex_form(D, geom) -> np.ndarray:
    """The planes of u_{i jbar} from the planes of the real second partials
    D of a face (or of any real form on the 2n real axes); the x_i y_i
    partials are never read."""
    r = geom.real_dims
    g = np.empty((geom.n ** 2,) + D.shape[1:])
    for p, (first, second, sign) in enumerate(_complex_terms(geom)):
        a, b = D[_index(r, *first)], D[_index(r, *second)]
        np.multiply(a + b if sign > 0 else a - b, 0.25, out=g[p])
    return g


def _chi_planes(g, chi, is_complex) -> np.ndarray:
    """g, the planes of r x r forms, with the (r, r) form chi added in
    place, each nonzero plane of chi once; g as it is when chi is None."""
    if chi is None:
        return g
    r = _dim(len(g), is_complex)
    chi = np.asarray(chi)
    if chi.shape != (r, r):
        raise ValueError(f"chi shape {chi.shape} not understood")
    pairs = _pairs(r)
    values = ([chi[a, a].real for a in range(r)]
              + [chi[a, b].real for a, b in pairs]
              + ([chi[a, b].imag for a, b in pairs] if is_complex else []))
    for p, value in enumerate(values):
        if value != 0.0:
            g[p] += float(value)
    return g


def complex_hessian(u, chi=None) -> np.ndarray:
    """The planes of g = chi + complex Hessian of u at the interior nodes,
    each in one scaled write of _second_partials' stencils over the axes
    _complex_terms gives it: a diagonal plane from the five windows of
    diagonal(x_i, y_i), a Re or Im plane of an entry i < j from the first
    differences along x_j and y_j."""
    geom = u.geom
    if not geom.is_complex:
        raise ValueError("complex_hessian needs a complex geometry")
    n = geom.n
    diagonal, mixed = _second_partials(u.values, geom)
    scale = 0.25 / (geom.h * geom.h)
    g = np.empty((n * n,) + geom.interior_shape)
    d = np.empty(geom.interior_shape)
    for p, (first, second, sign) in enumerate(_complex_terms(geom)):
        if p < n:  # first = (x_i, x_i), second = (y_i, y_i)
            np.multiply(diagonal(first[0], second[0], out=d), scale, out=g[p])
            continue
        # ((P1 - M1) + P2) - M2 for sign 1, (P1 - (P2 - M2)) - M1 for -1,
        # the windows (P, M) of the first and second term's mixed partials
        np.subtract(*mixed(*(first if sign > 0 else second)), out=d)
        plus, minus = mixed(*(second if sign > 0 else first))
        if sign > 0:
            d += plus
        else:
            np.subtract(plus, d, out=d)
        d -= minus
        np.multiply(d, 0.25 * scale, out=g[p])
    return _chi_planes(g, chi, True)


def real_hessian(u, chi=None) -> np.ndarray:
    """The planes of chi + real Hessian (flat Christoffel symbols) at the
    interior nodes."""
    geom = u.geom
    d = geom.real_dims
    g = _real_partials(_second_partials(u.values, geom), range(d), geom.h,
                       np.empty((d * (d + 1) // 2,) + geom.interior_shape))
    return _chi_planes(g, chi, False)


def form_field(u, chi=None) -> np.ndarray:
    return complex_hessian(u, chi) if u.geom.is_complex else real_hessian(u, chi)


def eigen_field(g: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues per node of dense (..., r, r) forms (dense
    Hermitian solver)."""
    return np.linalg.eigvalsh(g)


def _negated_product(G, T, is_complex):
    """The planes of -(g T) from those of g and T, Hermitian (real
    symmetric) forms that commute: each entry a <= b summed over k in
    order, a lower entry of g or T read as the conjugate of its upper
    one.  The diagonal entries are real; their Im parts are not kept."""
    r = _dim(len(G), is_complex)
    half = r * (r - 1) // 2

    def entry(X, a, b):
        p = _index(r, a, b)
        if not is_complex or a == b:
            return X[p]
        return X[p] + (1j if a < b else -1j) * X[p + half]

    out = np.empty_like(G)
    for a, b in [(a, a) for a in range(r)] + _pairs(r):
        total = entry(G, a, 0) * entry(T, 0, b)
        for k in range(1, r):
            total = total + entry(G, a, k) * entry(T, k, b)
        p = _index(r, a, b)
        np.negative(total.real, out=out[p])
        if is_complex and a != b:
            np.negative(total.imag, out=out[p + half])
    return out


def _trace_product(G, T, is_complex, out):
    """out = Re tr(g T) = sum_ab Re(g_ba T_ab) per node from the planes of
    two Hermitian (real symmetric) forms, summed over b within each row
    a, then over the rows, as np.einsum sums it.  A pair a < b adds the
    same Re g_ab Re T_ab + Im g_ab Im T_ab to rows a and b, formed once;
    row 0 is summed in ``out``, and each later row a in the buffer of the
    pair (0, a), whose use in row 0 is over."""
    r = _dim(len(G), is_complex)
    half = r * (r - 1) // 2
    scratch = np.empty(out.shape)
    terms = {}
    for k, (a, b) in enumerate(_pairs(r)):
        term = np.multiply(G[r + k], T[r + k])
        if is_complex:
            term += np.multiply(G[r + half + k], T[r + half + k], out=scratch)
        terms[a, b] = terms[b, a] = term
    for a in range(r):
        row = np.multiply(G[0], T[0], out=out) if a == 0 else terms[0, a]
        for b in range(1, r):
            row += (terms[a, b] if a != b
                    else np.multiply(G[a], T[a], out=scratch))
        if a:
            out += row
    return out


def newton_tensors(g: np.ndarray, m: int, is_complex: bool):
    """sigma_1..sigma_m (real, last axis, sigma_j at index j - 1) and
    Newton tensors T_0..T_{m-1} of the forms whose planes g holds,
    Hermitian forms when ``is_complex``.

    sigma_1 is the sum of the diagonal planes, and sigma_j =
    sum_ab Re(g_ba T_ab) / j is summed over b within each row a, then
    over the rows, a lower entry read as the conjugate of its upper one:
    the order np.einsum sums it in, so that sigma_1, sigma_2 and T_1 are
    the dense recurrence's to the bit.  T_0 = I is its r diagonal planes
    of ones, np.ones(r), never a field; T_j = sigma_j I - g T_{j-1} is
    built plane by plane, the product g T only for j >= 2 and only on
    its upper triangle (_negated_product).  sigma and each T_j are views
    of node-major buffers.
    """
    count, nodes = len(g), g.shape[1:]
    r = _dim(count, is_complex)
    G = g.reshape(count, -1)
    sigma = np.empty((m,) + G.shape[1:])
    sigma[0] = G[0]
    for a in range(1, r):
        sigma[0] += G[a]
    tensors = [np.ones(r)]
    for j in range(1, m + 1):
        if j > 1:
            _trace_product(G, T, is_complex, sigma[j - 1])
            sigma[j - 1] /= j
        if j < m:
            T = np.negative(G) if j == 1 else _negated_product(G, T, is_complex)
            T[:r] += sigma[j - 1]
            tensors.append(T.reshape((count,) + nodes))
    return np.moveaxis(sigma.reshape((m,) + nodes), 0, -1), tensors


def exit_polynomial(g: np.ndarray, H: np.ndarray, m: int,
                    is_complex: bool) -> np.ndarray:
    """Coefficients c_0..c_m (last axis) of p(theta) = sigma_m(g + theta H)
    per node, g and H planes buffers, for m <= 3, by polarization of
    newton_tensors:

        c_0 = sigma_m(g),  c_1 = Re tr(T_{m-1}(g) H),
        c_{m-1} = Re tr(T_{m-1}(H) g),  c_m = sigma_m(H),

    since d sigma_m = tr(T_{m-1} dg) at g, and at H for the reversed
    polynomial theta^m sigma_m(H + g / theta).  These are all of them for
    m <= 3, in a buffer of their own; the traces come from the planes
    (_trace_product).  H's tensors are dropped before g's are formed."""
    if not 1 <= m <= 3:
        raise ValueError(f"exit_polynomial needs 1 <= m <= 3, not {m}")
    sigma, tensors = newton_tensors(H, m, is_complex)
    c = np.empty(sigma.shape[:-1] + (m + 1,))
    c[..., m] = sigma[..., -1]
    if m > 2:
        _trace_product(tensors[m - 1], g, is_complex, c[..., m - 1])
    del sigma, tensors
    sigma, tensors = newton_tensors(g, m, is_complex)
    c[..., 0] = sigma[..., -1]
    if m > 1:
        _trace_product(tensors[m - 1], H, is_complex, c[..., 1])
    return c


def cone_exit(g: np.ndarray, H: np.ndarray, m: int,
              is_complex: bool) -> np.ndarray:
    """theta* per node, the smallest positive root of sigma_m(g + theta H)
    for g inside Gamma_m (m <= 3), or inf where there is none: where the
    ray from g along H leaves the cone.  g and H are planes buffers.

    sigma_m is hyperbolic with respect to every point of Gamma_m (Garding,
    J. Math. Mech. 8, 1959), so sigma_m(H + s g) has real roots only.  The
    closed forms work in s = 1 / theta, on the monic polynomial
    s^m + (c_1 s^(m-1) + ... + c_m) / c_0 (exit_polynomial), whose leading
    coefficient c_0 > 0 never vanishes: theta* is 1 / s for its largest
    root s, where that is positive.  That root is linear for m = 1, the
    cancellation-free form of the quadratic formula for m = 2, and the
    trigonometric (Viete) root of the depressed cubic, with all roots real,
    for m = 3."""
    c = exit_polynomial(g, H, m, is_complex)
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
    sigma, tensors = newton_tensors(form_field(u, chi), fun.cone_order,
                                    u.geom.is_complex)
    _require_admissible(sigma, u.geom)
    return sigma, tensors


def linearize(u, fun, chi=None, state=None) -> np.ndarray:
    """The planes of the coefficient forms F^{i jbar} = sum_j
    (df/dsigma_j) T_{j-1} of the linearized operator per node: positive
    definite wherever the iterate is admissible (rejected otherwise), and
    Hermitian by the layout itself, so no symmetrization pass.  ``state``
    is newton_state(u, fun, chi) when the caller has it already.  The
    terms are summed plane by plane, in the order of df_dsigmas, into one
    node-major buffer.  A df/dsigma_1 term (T_0 = I) adds to the diagonal
    planes only, and a linearization with no other term holds those r
    planes alone: a diagonal form, whose off-diagonal planes are not
    filled."""
    sigma, tensors = newton_state(u, fun, chi) if state is None else state
    dfds = cones.df_dsigmas(fun, sigma)
    r, nodes = len(tensors[0]), sigma.shape[:-1]
    F = np.zeros((max(len(tensors[j - 1]) for j in dfds), sigma[..., 0].size))
    scratch = np.empty(F.shape[1:])
    for j, c in dfds.items():
        c = c.reshape(-1)
        if j == 1:
            F[:r] += c
        else:
            T = tensors[j - 1].reshape(F.shape)
            for p in range(len(F)):
                F[p] += np.multiply(c, T[p], out=scratch)
    return F.reshape((len(F),) + nodes)


def coefficient_tensor(F: np.ndarray, geom) -> dict:
    """The real coefficients C_ab of the linearized operator
    sum_ab C_ab d^2 / dx_a dx_b, stored as their distinct planes: a dict
    from the axis pairs a <= b to (sign, plane) with
    C_ab = C_ba = sign * plane, each plane contiguous and of interior
    shape (a scalar for a constant F of shape (P,)), each diagonal sign
    +1.  The planes are F's own, which this takes over: on the complex
    model they are scaled in place by the exact 1/4, with no copy, so F
    must not be read afterwards.

    For complex geometry the linearized operator is the trace pairing
    trace(F H[v]) with H the complex Hessian, the adjoint of the map in
    _complex_form: each plane of F, over 4, is the coefficient of both
    axis pairs _complex_terms gives its entry, the second with its sign.
    In real coordinates its quarter blocks are [[S, T], [-T, S]]
    (S = Re F, T = Im F) in interleaved (x_i, y_i) order.  So C[x_i, x_j]
    and C[y_i, y_j] are one plane, S_ij / 4;
    C[y_i, x_j] is C[x_i, y_j] = T_ij / 4 with sign -1; and the (x_i, y_i)
    entries, T_ii / 4 = 0 as F is Hermitian, are not stored: the n^2
    planes of F, where the dense form has 4 n^2.  On real geometry C is
    F's d (d + 1) / 2 planes.  A diagonal F (linearize) gives the
    diagonal pairs alone.  Only these keys are applied, so no plane is
    scanned for zeros.
    """
    if not geom.is_complex:
        d = geom.real_dims
        return {(a, b): (1, F[_index(d, a, b)])
                for a in range(d) for b in range(a, d)
                if a == b or len(F) > d}
    F *= 0.25
    C = {}
    for plane, (first, second, sign) in zip(F, _complex_terms(geom)):
        C[first] = (1, plane)
        C[second] = C[first] if sign > 0 else (sign, plane)
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
    """The planes of the real second partials on one boundary face from the field and its
    padded copy ``p``; derivatives along the Dirichlet axis use
    second-order one-sided stencils."""
    h = geom.h
    da = geom.dirichlet_axis
    layers, sgn = _face_layers(geom, face, 4)
    values = [np.take(u_full, k, axis=da) for k in layers]
    r = geom.real_dims
    D = _real_partials(_second_partials(p, geom, layers[0]), geom.periodic_axes,
                       h, np.empty((r * (r + 1) // 2,) + values[0].shape))
    for a in geom.periodic_axes:
        # mixed normal-tangential: one-sided normal difference of the
        # centered tangential derivative, taken on three layers at once
        tang = np.moveaxis(first_derivative_centered(p, geom, a, layers[:3]), da, 0)
        D[_index(r, a, da)] = _one_sided(tang, sgn, h)
    D[da] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2]
             - values[3]) / (h * h)
    return D


def boundary_complex_hessian(u, padded=None) -> list:
    """The planes of the complex Hessian of u on each boundary face (no
    chi added)."""
    return [_complex_form(D, u.geom) for D in boundary_real_hessian(u, padded)]


def boundary_real_hessian(u, padded=None) -> list:
    """The planes of the real Hessian of u on each boundary face."""
    p = _padded(u.values, u.geom) if padded is None else padded
    return [_boundary_real_second(u.values, p, u.geom, face) for face in (0, 1)]
