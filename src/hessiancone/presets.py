"""Named analytic data families for the solver.

Manufactured-solution testing needs exact derivatives, so right-hand
sides built from a reference solution use its analytic Hessian (not a
discrete one).  All presets are smooth, respect the periodic
identifications, and vanish appropriately on the Dirichlet faces.

* ``star``: A sin(pi x_D) prod_a cos(2 pi x_a), x_D the Dirichlet
  coordinate, over x_1 and y_1 on the complex model (A = 0.02) and over
  every periodic axis on the cylinder (A = 0.005); these amplitudes keep
  chi = identity + its Hessian inside Gamma_n with a comfortable margin.
  Its one analytic real Hessian becomes the complex one through
  operators._complex_form, the map the face Hessians use.
* ``bump``: x_D (1 - x_D), whose complex Hessian is exactly
  diag(0, ..., -1/2) (also under centered differences); subtracting a
  multiple from a reference solution produces an admissible subsolution
  below it with a uniform margin in the equation.

Complex-model presets (dimension n >= 2):

* ``cosine_phi``: a cos(2 pi x_1) cos(2 pi y_1), constant in z_n; with the
  convex correction K x_n (x_n - 1) it yields admissible boundary-scaling
  subsolutions.
* ``degenerate_cos``: c (1 - cos(2 pi x_1)) / 2, minimum exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones
from .geometry import ScalarField
from .operators import _chi_planes, _complex_form, _index, newton_tensors

__all__ = [
    "Problem",
    "chi_identity",
    "star_values",
    "star_hessian",
    "bump_values",
    "cosine_phi_values",
    "degenerate_cos_values",
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


def _star(geom, amplitude):
    """The star's periodic axes, amplitude and coordinate grids."""
    if amplitude is None:
        amplitude = STAR_AMPLITUDE if geom.is_complex else REAL_STAR_AMPLITUDE
    axes = (0, 1) if geom.is_complex else geom.periodic_axes
    return axes, amplitude, geom.grids()


def star_values(geom) -> np.ndarray:
    axes, amplitude, g = _star(geom, None)
    v = amplitude * np.sin(np.pi * g[geom.dirichlet_axis])
    for a in axes:
        v = v * np.cos(2 * np.pi * g[a])
    return np.broadcast_to(v, geom.shape).copy()


def star_hessian(geom, amplitude=None) -> np.ndarray:
    """Exact Hessian form of the star on the full grid, as form_field
    forms it: the planes of the real Hessian, turned into those of the
    complex one by _complex_form on the complex model."""
    axes, amplitude, g = _star(geom, amplitude)
    da = geom.dirichlet_axis
    cos = {a: np.cos(2 * np.pi * g[a]) for a in axes}
    sin = {a: np.sin(2 * np.pi * g[a]) for a in axes}
    s, c = np.sin(np.pi * g[da]), np.cos(np.pi * g[da])

    def prod_except(skip):
        out = amplitude
        for a in axes:
            out = out * (sin[a] if a in skip else cos[a])
        return out

    r = geom.real_dims
    H = np.zeros((r * (r + 1) // 2,) + geom.shape)
    for i, a in enumerate(axes):
        H[a] = -4 * np.pi**2 * prod_except(()) * s
        for b in axes[i + 1:]:
            H[_index(r, a, b)] = 4 * np.pi**2 * prod_except((a, b)) * s
        H[_index(r, a, da)] = -2 * np.pi**2 * prod_except((a,)) * c
    H[da] = -(np.pi**2) * prod_except(()) * s
    return _complex_form(H, geom) if geom.is_complex else H


def bump_values(geom) -> np.ndarray:
    xn = geom.grids()[geom.dirichlet_axis]
    return np.broadcast_to(xn * (1.0 - xn), geom.shape).copy()


def cosine_phi_values(geom, scale=1.0) -> np.ndarray:
    x1, y1 = geom.grids()[:2]
    v = scale * COS_PHI_AMPLITUDE * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y1)
    return np.broadcast_to(v, geom.shape).copy()


def _convex_correction_values(geom) -> np.ndarray:
    xn = geom.grids()[geom.dirichlet_axis]
    return np.broadcast_to(COS_SUB_CURVATURE * xn * (xn - 1.0), geom.shape).copy()


def degenerate_cos_values(geom) -> np.ndarray:
    x1 = geom.grids()[0]
    v = DEGENERATE_LEVEL * 0.5 * (1.0 - np.cos(2 * np.pi * x1))
    return np.broadcast_to(v, geom.shape).copy()


def manufactured_psi(fun, chi, hessian) -> np.ndarray:
    """f(lambda(chi + analytic Hessian)) on the full grid, the Hessian
    given by its planes (star_hessian) and chi as a dense (r, r) form: a
    Hermitian one where there are r^2 planes."""
    r = np.shape(chi)[-1]
    is_complex = len(hessian) != r * (r + 1) // 2
    g = _chi_planes(np.array(hessian, dtype=float), chi, is_complex)
    sigma, _ = newton_tensors(g, fun.cone_order, is_complex)
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
        star = ScalarField(geom=geom, values=star_values(geom))
        psi = ScalarField(geom=geom,
                          values=manufactured_psi(fun, chi, star_hessian(geom)))
    elif psi_name == "degenerate-cos":
        psi = ScalarField(geom=geom, values=degenerate_cos_values(geom))
    else:
        raise ValueError(f"unknown psi preset {psi_name!r}")

    if sub_name == "zero":
        u_sub = ScalarField.zeros(geom)
    elif sub_name == "star-bump":
        vals = star_values(geom) - STAR_BUMP * bump_values(geom)
        u_sub = ScalarField(geom=geom, values=vals)
    elif sub_name == "scaled-cos":
        vals = cosine_phi_values(geom, scale) + _convex_correction_values(geom)
        u_sub = ScalarField(geom=geom, values=vals)
    else:
        raise ValueError(f"unknown subsolution preset {sub_name!r}")

    return Problem(chi=chi, psi=psi, phi=phi, u_sub=u_sub, u_star=star)

