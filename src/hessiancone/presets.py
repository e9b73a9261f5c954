"""Named analytic data families for the solver.

Manufactured-solution testing needs exact derivatives, so right-hand
sides built from a reference solution use its analytic Hessian (not a
discrete one).  All presets are smooth, respect the periodic
identifications, and vanish appropriately on the Dirichlet faces.

Complex-model presets (dimension n >= 2):

* ``trig_star``:  A cos(2 pi x_1) cos(2 pi y_1) sin(pi x_n); the default
  amplitude 0.02 keeps chi = identity + its Hessian inside Gamma_n with a
  comfortable margin.
* ``bump``:       x_n (1 - x_n), whose complex Hessian is exactly
  diag(0, ..., -1/2) (also under centered differences); subtracting a
  multiple from a reference solution produces an admissible subsolution
  below it with a uniform margin in the equation.
* ``cosine_phi``: a cos(2 pi x_1) cos(2 pi y_1), constant in z_n; with the
  convex correction K x_n (x_n - 1) it yields admissible boundary-scaling
  subsolutions.
* ``degenerate_cos``: c (1 - cos(2 pi x_1)) / 2, minimum exactly 0.

Cylinder presets (real dimension d) mirror these with real Hessians;
``bump`` is x_d (1 - x_d) there, the same function of the Dirichlet
coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones
from .geometry import ScalarField
from .operators import newton_tensors

__all__ = [
    "Problem",
    "chi_identity",
    "trig_star_values",
    "trig_star_hessian",
    "bump_values",
    "cosine_phi_values",
    "degenerate_cos_values",
    "real_star_values",
    "real_star_hessian",
    "manufactured_psi",
    "build_problem",
]

STAR_AMPLITUDE = 0.02
STAR_BUMP = 0.5
REAL_STAR_AMPLITUDE = 0.005
COS_PHI_AMPLITUDE = 0.002
COS_SUB_CURVATURE = 10.0
DEGENERATE_LEVEL = 0.4


def chi_identity(geom) -> np.ndarray:
    return np.eye(geom.form_dim, dtype=complex if geom.is_complex else float)


def _complex_coords(geom):
    g = geom.grids()
    x1, y1 = g[0], g[1]
    xn = g[geom.dirichlet_axis]
    return x1, y1, xn


def trig_star_values(geom, amplitude=STAR_AMPLITUDE) -> np.ndarray:
    x1, y1, xn = _complex_coords(geom)
    v = amplitude * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y1) * np.sin(np.pi * xn)
    return np.broadcast_to(v, geom.shape).copy()


def trig_star_hessian(geom, amplitude=STAR_AMPLITUDE) -> np.ndarray:
    """Exact complex Hessian of trig_star on the full grid: (..., n, n)."""
    x1, y1, xn = _complex_coords(geom)
    n = geom.n
    cx, sx = np.cos(2 * np.pi * x1), np.sin(2 * np.pi * x1)
    cy, sy = np.cos(2 * np.pi * y1), np.sin(2 * np.pi * y1)
    s, c = np.sin(np.pi * xn), np.cos(np.pi * xn)
    H = np.zeros(geom.shape + (n, n), dtype=complex)
    H[..., 0, 0] = -2 * np.pi**2 * amplitude * cx * cy * s
    H[..., n - 1, n - 1] = -(np.pi**2 / 4) * amplitude * cx * cy * s
    cross = (np.pi**2 * amplitude / 2) * c * (-sx * cy + 1j * cx * sy)
    H[..., 0, n - 1] = cross
    H[..., n - 1, 0] = np.conj(cross)
    return H


def bump_values(geom) -> np.ndarray:
    xn = geom.grids()[geom.dirichlet_axis]
    return np.broadcast_to(xn * (1.0 - xn), geom.shape).copy()


def cosine_phi_values(geom, scale=1.0, amplitude=COS_PHI_AMPLITUDE) -> np.ndarray:
    x1, y1, _ = _complex_coords(geom)
    v = scale * amplitude * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y1)
    return np.broadcast_to(v, geom.shape).copy()


def convex_correction_values(geom, curvature=COS_SUB_CURVATURE) -> np.ndarray:
    g = geom.grids()
    xn = g[geom.dirichlet_axis]
    return np.broadcast_to(curvature * xn * (xn - 1.0), geom.shape).copy()


def degenerate_cos_values(geom, level=DEGENERATE_LEVEL) -> np.ndarray:
    x1 = geom.grids()[0]
    v = level * 0.5 * (1.0 - np.cos(2 * np.pi * x1))
    return np.broadcast_to(v, geom.shape).copy()


def real_star_values(geom, amplitude=REAL_STAR_AMPLITUDE) -> np.ndarray:
    g = geom.grids()
    d = geom.real_dims
    v = amplitude * np.sin(np.pi * g[d - 1])
    for a in range(d - 1):
        v = v * np.cos(2 * np.pi * g[a])
    return np.broadcast_to(v, geom.shape).copy()


def real_star_hessian(geom, amplitude=REAL_STAR_AMPLITUDE) -> np.ndarray:
    """Exact real Hessian of real_star on the full grid: (..., d, d)."""
    g = geom.grids()
    d = geom.real_dims
    cos = [np.cos(2 * np.pi * g[a]) for a in range(d - 1)]
    sin = [np.sin(2 * np.pi * g[a]) for a in range(d - 1)]
    s, c = np.sin(np.pi * g[d - 1]), np.cos(np.pi * g[d - 1])

    def prod_except(skip):
        out = amplitude
        for a in range(d - 1):
            out = out * (sin[a] if a in skip else cos[a])
        return out

    H = np.zeros(geom.shape + (d, d))
    for a in range(d - 1):
        H[..., a, a] = -4 * np.pi**2 * prod_except(()) * s
        for b in range(a + 1, d - 1):
            v = 4 * np.pi**2 * prod_except((a, b)) * s
            H[..., a, b] = v
            H[..., b, a] = v
        v = -2 * np.pi**2 * prod_except((a,)) * c
        H[..., a, d - 1] = v
        H[..., d - 1, a] = v
    H[..., d - 1, d - 1] = -(np.pi**2) * prod_except(()) * s
    return H


def manufactured_psi(fun, chi, star_hessian) -> np.ndarray:
    """f(lambda(chi + analytic Hessian)) on the full grid."""
    sigma, _ = newton_tensors(np.asarray(chi) + star_hessian, fun.cone_order)
    if not np.all(cones.sigmas_in_cone(sigma)):
        raise ValueError(
            "manufactured reference not admissible; lower the amplitude"
        )
    return cones.f_from_sigmas(fun, sigma)


@dataclass
class Problem:
    """Assembled solver data: chi plus the psi/phi/subsolution fields and,
    when a manufactured reference exists, the reference field itself."""

    chi: np.ndarray
    psi: ScalarField
    phi: ScalarField
    u_sub: ScalarField
    u_star: ScalarField | None = None


def build_problem(geom, fun, psi_name: str, phi_name: str, sub_name: str,
                  scale: float = 1.0) -> Problem:
    """Assemble a named problem on the geometry for the given function.

    psi: one | manufactured | degenerate-cos
    phi: zero | scaled-cos
    sub: zero | star-bump | scaled-cos
    ``scale`` multiplies the scaled-cos boundary family.
    """
    chi = chi_identity(geom)
    star = None

    if phi_name == "zero":
        phi = ScalarField.zeros(geom)
    elif phi_name == "scaled-cos":
        if not geom.is_complex:
            raise ValueError("scaled-cos is a complex-model preset")
        phi = ScalarField(geom=geom, values=cosine_phi_values(geom, scale))
    else:
        raise ValueError(f"unknown phi preset {phi_name!r}")

    if psi_name == "one":
        psi = ScalarField(geom=geom, values=np.ones(geom.shape))
    elif psi_name == "manufactured":
        if geom.is_complex:
            hess = trig_star_hessian(geom)
            star = ScalarField(geom=geom, values=trig_star_values(geom))
        else:
            hess = real_star_hessian(geom)
            star = ScalarField(geom=geom, values=real_star_values(geom))
        psi = ScalarField(geom=geom, values=manufactured_psi(fun, chi, hess))
    elif psi_name == "degenerate-cos":
        psi = ScalarField(geom=geom, values=degenerate_cos_values(geom))
    else:
        raise ValueError(f"unknown psi preset {psi_name!r}")

    if sub_name == "zero":
        u_sub = ScalarField.zeros(geom)
    elif sub_name == "star-bump":
        star_values = trig_star_values if geom.is_complex else real_star_values
        vals = star_values(geom) - STAR_BUMP * bump_values(geom)
        u_sub = ScalarField(geom=geom, values=vals)
    elif sub_name == "scaled-cos":
        vals = cosine_phi_values(geom, scale) + convex_correction_values(geom)
        u_sub = ScalarField(geom=geom, values=vals)
    else:
        raise ValueError(f"unknown subsolution preset {sub_name!r}")

    return Problem(chi=chi, psi=psi, phi=phi, u_sub=u_sub, u_star=star)

