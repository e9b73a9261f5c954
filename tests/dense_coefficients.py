"""The dense coefficient form, kept by the tests as a reference.

``operators.coefficient_tensor`` stores C as its distinct planes: a dict
from the axis pairs a <= b to (sign, plane).  The tests build C densely,
as one (..., r, r) form, and convert it through ``distinct_planes``.
``dense_coefficient_tensor`` and ``dense_apply`` are the dense C with all
r^2 planes and the operator applied to it, as the package computed them
before it stored the distinct planes alone.
"""

import numpy as np

from hessiancone import operators


def distinct_planes(C, keep_zero=False):
    """The dict form of a dense symmetric (..., r, r) C: each diagonal
    entry and each pair a < b as (1, contiguous copy of C[..., a, b]).
    An off-diagonal plane of zeros is dropped unless ``keep_zero``."""
    r = C.shape[-1]
    return {(a, b): (1, np.ascontiguousarray(C[..., a, b]))
            for a in range(r) for b in range(a, r)
            if a == b or keep_zero or np.any(C[..., a, b])}


def dense_of(C, geom):
    """The dense (..., r, r) form of C in dict form; a missing pair is
    zero."""
    r = geom.real_dims
    out = np.zeros(geom.interior_shape + (r, r))
    for (a, b), (sign, plane) in C.items():
        out[..., a, b] = out[..., b, a] = sign * plane
    return out


def dense_coefficient_tensor(F, geom):
    """All (2n)^2 planes of C on the complex model, Re F on the cylinder:
    C[x_i, x_j] = C[y_i, y_j] = S_ij / 4, C[x_i, y_j] = T_ij / 4 and
    C[y_i, x_j] = -T_ij / 4 (S = Re F, T = Im F)."""
    if not geom.is_complex:
        return np.ascontiguousarray(F.real)
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
    return np.moveaxis(C, (0, 1), (-2, -1))


def dense_apply(C, u_full, geom):
    """sum_ab C_ab u_ab on the interior from a dense C, every nonzero pair
    a < b with its own plane, in the operation order of
    operators.apply_second_order."""
    r = geom.real_dims
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)
             if np.any(C[..., a, b])]
    diagonal, mixed = operators._second_partials(u_full, geom)
    out = diagonal(0)
    out *= C[..., 0, 0]
    d = np.empty_like(out)
    for a in range(1, r):
        diagonal(a, out=d)
        d *= C[..., a, a]
        out += d
    scale = 1.0 / (geom.h * geom.h)
    if pairs:
        out *= 2.0
        for b, a in sorted((b, a) for a, b in pairs):
            np.subtract(*mixed(a, b), out=d)
            d *= C[..., a, b]
            out += d
        scale *= 0.5
    out *= scale
    return out
