"""Dense per-node forms, kept by the tests as a reference.

The package stores each per-node Hermitian or real symmetric form as the
planes of its distinct entries (see the ``operators`` docstring): the r
diagonal entries, then Re of the entries a < b in row order, then, on
the complex model, Im of those entries.  The tests move between that
layout and dense (..., r, r) forms with ``planes_of`` and ``dense_form``.
``dense_newton_tensors``, ``dense_linearize`` and
``dense_exit_polynomial`` are the per-node algebra on all r^2 entries of
dense forms, as the package ran it before it stored the distinct planes
alone.
"""

import math

import numpy as np


def pairs(r):
    return [(a, b) for a in range(r) for b in range(a + 1, r)]


def planes_of(forms, is_complex):
    """The planes of dense (..., r, r) forms, read from the diagonal and
    the upper triangle, as one contiguous (P, ...) buffer."""
    r = forms.shape[-1]
    planes = ([forms[..., a, a].real for a in range(r)]
              + [forms[..., a, b].real for a, b in pairs(r)])
    if is_complex:
        planes += [forms[..., a, b].imag for a, b in pairs(r)]
    return np.ascontiguousarray(np.stack(planes))


def dense_form(planes, is_complex, r=None):
    """The dense (..., r, r) forms of a planes buffer, each lower entry
    the conjugate of its upper one.  With ``r`` given, a buffer of r
    planes is a diagonal form (linearize's F for sigma_1)."""
    count = len(planes)
    if r is None:
        r = (math.isqrt(count) if is_complex
             else (math.isqrt(8 * count + 1) - 1) // 2)
    out = np.zeros(planes.shape[1:] + (r, r), complex if is_complex else float)
    for a in range(r):
        out.real[..., a, a] = planes[a]
    if count > r:
        half = r * (r - 1) // 2
        for k, (a, b) in enumerate(pairs(r)):
            out.real[..., a, b] = out.real[..., b, a] = planes[r + k]
            if is_complex:
                out.imag[..., a, b] = planes[r + half + k]
                out.imag[..., b, a] = -planes[r + half + k]
    return out


def _entries(form):
    """The (r, r, nodes) entry planes of a (..., r, r) stack."""
    r = form.shape[-1]
    return np.ascontiguousarray(np.moveaxis(form, (-2, -1), (0, 1))).reshape(r, r, -1)


def _real_product(x, y):
    """Re(x y) of two entry planes, formed as the complex product forms it."""
    if np.iscomplexobj(x):
        return x.real * y.real - x.imag * y.imag
    return x * y


def dense_newton_tensors(g, m):
    """sigma_1..sigma_m (last axis, sigma_j at index j - 1, as
    newton_tensors holds them) and the dense T_0..T_{m-1} of a stack
    of (r, r) forms: every entry of g T_{j-1} summed over k in order, and
    sigma_j = sum_ab Re(g_ba T_ab) / j over b within each row a, then over
    the rows."""
    r, nodes = g.shape[-1], g.shape[:-2]
    G = _entries(g)
    sigma = np.empty((m,) + G.shape[2:])
    sigma[0] = G[0, 0].real
    for a in range(1, r):
        sigma[0] += G[a, a].real
    tensors = [np.eye(r)]
    for j in range(1, m + 1):
        if j > 1:
            for a in range(r):
                row = _real_product(G[0, a], T[a, 0])
                for b in range(1, r):
                    row += _real_product(G[b, a], T[a, b])
                if a:
                    sigma[j - 1] += row
                else:
                    sigma[j - 1] = row
            sigma[j - 1] /= j
        if j < m:
            if j == 1:
                T = np.negative(G)
            else:
                P = np.empty_like(T)
                for a in range(r):
                    for b in range(r):
                        P[a, b] = G[a, 0] * T[0, b]
                        for k in range(1, r):
                            P[a, b] += G[a, k] * T[k, b]
                T = np.negative(P)
            for a in range(r):
                T.real[a, a] += sigma[j - 1]
            tensors.append(np.moveaxis(T.reshape((r, r) + nodes), (0, 1), (-2, -1)))
    return np.moveaxis(sigma.reshape((m,) + nodes), 0, -1), tensors


def dense_linearize(fun, sigma, tensors):
    """F = sum_j (df/dsigma_j) T_{j-1} on dense tensors, summed in the
    order of df_dsigmas and then symmetrized, (F + F^*) / 2."""
    from hessiancone import cones

    r = tensors[0].shape[-1]
    F = 0.0
    for j, c in cones.df_dsigmas(fun, sigma).items():
        if j == 1:
            term = np.zeros(sigma.shape[:-1] + (r, r), np.result_type(*tensors[1:], float))
            for a in range(r):
                term.real[..., a, a] = c
            F = F + term
        else:
            F = F + c[..., None, None] * tensors[j - 1]
    return 0.5 * (F + np.conj(np.swapaxes(F, -1, -2)))


def dense_exit_polynomial(g, H, m):
    """c_0..c_m of sigma_m(g + theta H) from the dense recurrence and
    einsum traces."""
    def trace(A, B):
        return np.einsum("...ab,...ba->...", A, B).real

    sigma_h, tensors_h = dense_newton_tensors(H, m)
    sigma_g, tensors_g = dense_newton_tensors(g, m)
    c = np.empty(sigma_g.shape[:-1] + (m + 1,))
    c[..., 0], c[..., m] = sigma_g[..., -1], sigma_h[..., -1]
    if m > 1:
        c[..., 1] = trace(tensors_g[m - 1], H)
    if m > 2:
        c[..., m - 1] = trace(tensors_h[m - 1], g)
    return c
