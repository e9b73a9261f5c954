"""Concave symmetric eigenvalue functions on Garding cones.

Three families are shipped, all homogeneous of degree one, positive and
concave on their cone, with positive partial derivatives:

* ``sigma_k_root``:   f = sigma_k(lambda)^(1/k)       on Gamma_k,
* ``monge_ampere``:   f = sigma_n(lambda)^(1/n)       on Gamma_n,
* ``hessian_quotient``: f = (sigma_l/sigma_k)^(1/(l-k)), k < l, on Gamma_l,

where sigma_j is the j-th elementary symmetric polynomial and
Gamma_k = {lambda : sigma_j(lambda) > 0 for j = 1..k}; ``in_cone`` is the
one admissibility test.  The limit of f at the cone boundary is 0 for each
family, so the degeneracy gap of a right-hand side psi is simply
``min(psi)``.  Homogeneity of degree one gives closed forms: the ray
t * lambda meets the level set {f = sigma} at t = sigma / f(lambda).

Each family is written once on sigma_0..sigma_m (m = cone_order):
``f_from_sigmas``, its nonzero partials ``df_dsigmas`` and the cone test
``sigmas_in_cone``.  Most functions accept stacked inputs with the
eigenvalue (or sigma) axis last.

The structure conditions behind the boundary estimates are checked once
over stacked samples ``(samples, n)``.  Each check returns per-sample masks
(and the values it is judged on, where those are reported); a sample that
fails is marked in its mask, never raised:

* ``check_gradient``: f_i > 0;
* ``check_concavity``: the midpoint and gradient-form inequalities over
  (lambda, mu) pairs;
* ``check_euler``: sum_i f_i lambda_i = f > 0 (degree one);
* ``check_fd_grad``: the gradient against the complex-step ``fd_grad``;
* ``subsolution_gap``: the normal-near / normal-far dichotomy and its eps';
* ``check_ray``: the ray t lambda meets {f = sigma} exactly once;
* ``fi_sum_margins``: sum f_i > (f(t*1) - sigma) / t on the level sets.

A 1-D call of a stacked check runs through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymmetricFunction",
    "sigma_k_root",
    "monge_ampere",
    "hessian_quotient",
    "parse_kind",
    "LevelSetPoint",
    "SubsolutionGapSpec",
    "GapResult",
    "elem_sym",
    "elem_sym_grad",
    "f_from_sigmas",
    "df_dsigmas",
    "sigmas_in_cone",
    "in_cone",
    "f_eval",
    "f_grad",
    "fd_grad",
    "check_gradient",
    "check_concavity",
    "check_euler",
    "check_fd_grad",
    "ray_intersect",
    "check_ray",
    "make_level_set_point",
    "fi_sum_margins",
    "check_fi_sum_bound",
    "subsolution_gap",
    "default_beta",
    "delta_nondegeneracy",
    "kappa_lower_bound",
]

CONCAVITY_MARGIN = 1e-10
EULER_RTOL = 1e-9
FD_RTOL = 1e-5
RAY_RTOL = 1e-10
LEVEL_RTOL = 1e-9
NORMAL_ATOL = 1e-12

# Step of the complex-step derivative in fd_grad (no difference is taken,
# so a step far below rounding costs no accuracy).
COMPLEX_STEP = 1e-20

# f_eval rejects quotient points whose sigma_k is this close to zero
# (relative to |lambda|^k): outside the numerically safe cone.
_QUOTIENT_FLOOR = 1e-12


class ConeError(ValueError):
    """Input lies outside the admissible cone of the function."""


@dataclass(frozen=True)
class SymmetricFunction:
    """A shipped symmetric function: ``kind`` selects the family, ``n`` the
    dimension, ``k``/``l`` the family parameters (quotient uses both)."""

    kind: str
    n: int
    k: int = 0
    l: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if self.kind == "sigma_k_root":
            if not 1 <= self.k <= self.n:
                raise ValueError("need 1 <= k <= n")
        elif self.kind == "monge_ampere":
            object.__setattr__(self, "k", self.n)
        elif self.kind == "hessian_quotient":
            if not 0 < self.k < self.l <= self.n:
                raise ValueError("need 0 < k < l <= n")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @property
    def cone_order(self) -> int:
        """Gamma_m with m = cone_order is the domain of the function."""
        if self.kind == "hessian_quotient":
            return self.l
        return self.k

    @property
    def label(self) -> str:
        if self.kind == "monge_ampere":
            return "ma"
        if self.kind == "sigma_k_root":
            return "sigma1" if self.k == 1 else f"sigmaK:{self.k}"
        return f"quotient:{self.k}:{self.l}"


def sigma_k_root(n: int, k: int) -> SymmetricFunction:
    return SymmetricFunction(kind="sigma_k_root", n=n, k=k)


def monge_ampere(n: int) -> SymmetricFunction:
    return SymmetricFunction(kind="monge_ampere", n=n, k=n)


def hessian_quotient(n: int, k: int, l: int) -> SymmetricFunction:
    return SymmetricFunction(kind="hessian_quotient", n=n, k=k, l=l)


def parse_kind(name: str, n: int) -> SymmetricFunction:
    """Parse a CLI kind name: sigma1 | sigmaK:k | ma | quotient:k:l."""
    name = name.strip()
    if name == "sigma1":
        return sigma_k_root(n, 1)
    if name == "ma":
        return monge_ampere(n)
    if name.startswith("sigmaK:"):
        return sigma_k_root(n, int(name.split(":")[1]))
    if name.startswith("quotient:"):
        _, k, l = name.split(":")
        return hessian_quotient(n, int(k), int(l))
    raise ValueError(f"unknown function kind {name!r}")


def elem_sym(vals: np.ndarray, kmax: int) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_kmax along the last axis,
    in float64, or in complex128 for complex input (used by fd_grad)."""
    vals = np.asarray(vals)
    vals = vals.astype(np.result_type(vals.dtype, np.float64), copy=False)
    n = vals.shape[-1]
    e = np.zeros(vals.shape[:-1] + (kmax + 1,), dtype=vals.dtype)
    e[..., 0] = 1.0
    for i in range(n):
        x = vals[..., i]
        for j in range(min(kmax, i + 1), 0, -1):
            e[..., j] += x * e[..., j - 1]
    return e


def elem_sym_grad(vals: np.ndarray, k: int) -> np.ndarray:
    """d e_k / d lambda_i = e_{k-1} of the other entries, per entry."""
    vals = np.asarray(vals, dtype=float)
    n = vals.shape[-1]
    out = np.zeros_like(vals)
    for i in range(n):
        rest = np.delete(vals, i, axis=-1)
        out[..., i] = elem_sym(rest, k - 1)[..., k - 1]
    return out


def f_from_sigmas(fun: SymmetricFunction, e: np.ndarray) -> np.ndarray:
    """f from sigma_0..sigma_m (last axis); no cone validation."""
    if fun.kind == "hessian_quotient":
        return (e[..., fun.l] / e[..., fun.k]) ** (1.0 / (fun.l - fun.k))
    return e[..., fun.k] ** (1.0 / fun.k)


def df_dsigmas(fun: SymmetricFunction, e: np.ndarray) -> dict:
    """The nonzero partials {j: df/dsigma_j} on stacked sigmas."""
    f = f_from_sigmas(fun, e)
    if fun.kind == "hessian_quotient":
        c = f / (fun.l - fun.k)
        return {fun.l: c / e[..., fun.l], fun.k: -c / e[..., fun.k]}
    return {fun.k: f / (fun.k * e[..., fun.k])}


def sigmas_in_cone(e: np.ndarray) -> np.ndarray:
    """True where sigma_1..sigma_m (last axis) are all positive: Gamma_m."""
    return np.all(e[..., 1:] > 0.0, axis=-1)


def in_cone(fun: SymmetricFunction, lam) -> np.ndarray | bool:
    """True where lambda lies in the open cone Gamma_{cone_order}."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1] != fun.n:
        raise ValueError(f"expected dimension {fun.n}, got {lam.shape[-1]}")
    ok = sigmas_in_cone(elem_sym(lam, fun.cone_order))
    return bool(ok) if lam.ndim == 1 else ok


def _require_in_cone(fun, lam):
    ok = in_cone(fun, lam)
    if not np.all(ok):
        raise ConeError(f"point outside Gamma_{fun.cone_order}")


def f_many(fun: SymmetricFunction, lam: np.ndarray) -> np.ndarray:
    """Function values on stacked points (no cone validation); complex
    input is evaluated in complex arithmetic."""
    return f_from_sigmas(fun, elem_sym(lam, fun.cone_order))


def grad_many(fun: SymmetricFunction, lam: np.ndarray) -> np.ndarray:
    """Gradients on stacked points (no cone validation): df/dsigma_j times
    the exact leave-one-out d sigma_j / d lambda."""
    dfde = df_dsigmas(fun, elem_sym(lam, fun.cone_order))
    return sum(c[..., None] * elem_sym_grad(lam, j) for j, c in dfde.items())


def f_eval(fun: SymmetricFunction, lam) -> float:
    """Value at one cone point; rejects points outside the cone."""
    lam = np.asarray(lam, dtype=float)
    _require_in_cone(fun, lam)
    if fun.kind == "hessian_quotient":
        e = elem_sym(lam, fun.l)
        if e[..., fun.k] < _QUOTIENT_FLOOR * (1.0 + np.abs(lam).max() ** fun.k):
            raise ConeError("sigma_k too close to zero for a stable quotient")
    return float(f_many(fun, lam))


def f_grad(fun: SymmetricFunction, lam) -> np.ndarray:
    """Gradient at one cone point, strictly positive componentwise."""
    lam = np.asarray(lam, dtype=float)
    _require_in_cone(fun, lam)
    if not check_gradient(fun, lam):
        raise ArithmeticError("gradient not positive inside the cone")
    return grad_many(fun, lam)


def _unit(g: np.ndarray) -> np.ndarray:
    """g over its Euclidean norm along the last axis (formed as 1-D
    np.linalg.norm forms it, so stacked and single points round alike)."""
    return g / np.sqrt(np.vecdot(g, g))[..., None]


def fd_grad(fun: SymmetricFunction, lam) -> np.ndarray:
    """Complex-step gradient Im f(lambda + i h e_j) / h on stacked points,
    evaluated on a (..., n, n) complex stack (independent check; Squire &
    Trapp, SIAM Rev. 40, 1998).  The real part of every evaluation point is
    lambda itself, so none leaves the cone, and no difference is taken, so
    the result is accurate to rounding."""
    lam = np.asarray(lam, dtype=float)
    points = lam[..., None, :] + 1j * COMPLEX_STEP * np.eye(lam.shape[-1])
    return f_many(fun, points).imag / COMPLEX_STEP


def check_gradient(fun: SymmetricFunction, lam) -> np.ndarray:
    """True where every f_i > 0 (stacked points, no cone validation)."""
    return np.all(grad_many(fun, lam) > 0.0, axis=-1)


def check_concavity(fun: SymmetricFunction, lam, mu) -> tuple:
    """Midpoint and gradient-form concavity inequalities with margin, per
    stacked (lambda, mu) pair: the two masks (midpoint_ok, gradient_ok)."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    f_lam, f_mu = f_many(fun, lam), f_many(fun, mu)
    mid = f_many(fun, 0.5 * (lam + mu))
    midpoint_ok = mid >= 0.5 * (f_lam + f_mu) - CONCAVITY_MARGIN
    slope = np.vecdot(grad_many(fun, lam), mu - lam)
    return midpoint_ok, slope >= f_mu - f_lam - CONCAVITY_MARGIN


def check_euler(fun: SymmetricFunction, lam) -> np.ndarray:
    """True where sum_i f_i(lambda) lambda_i is positive and equals
    f(lambda), as degree-one homogeneity demands (stacked points)."""
    lam = np.asarray(lam, dtype=float)
    s = np.vecdot(grad_many(fun, lam), lam)
    f = f_many(fun, lam)
    return (s > 0.0) & (np.abs(s - f) <= EULER_RTOL * (1.0 + np.abs(f)))


def check_fd_grad(fun: SymmetricFunction, lam) -> tuple:
    """The gradient against ``fd_grad`` on stacked points: (ok, err) with
    err = max_i |fd_i - f_i| / max_i |f_i|; a NaN err is not ok."""
    g = grad_many(fun, lam)
    err = np.abs(fd_grad(fun, lam) - g).max(axis=-1) / np.abs(g).max(axis=-1)
    return err <= FD_RTOL, err


def _ray(fun, lam, sigma):
    """t = sigma / f(lambda) on stacked rays (degree one), and whether
    f(t lambda) = sigma holds to RAY_RTOL (1 + |sigma|)."""
    t = sigma / f_many(fun, lam)
    resid = f_many(fun, t[..., None] * lam) - sigma
    return t, np.abs(resid) <= RAY_RTOL * (1.0 + np.abs(sigma))


def ray_intersect(fun: SymmetricFunction, lam, sigma):
    """Unique t > 0 with f(t * lambda) = sigma (sigma may be stacked).

    Every shipped family is homogeneous of degree one, so f(t lambda) =
    t f(lambda) and t = sigma / f(lambda).  The level equation is still
    checked at the returned t; a residual above RAY_RTOL (1 + sigma) is
    raised loudly.
    """
    lam = np.asarray(lam, dtype=float)
    _require_in_cone(fun, lam)
    if not np.all(np.asarray(sigma) > 0.0):
        raise ValueError(f"sigma={sigma!r} not above the boundary sup 0")
    t, ok = _ray(fun, lam, sigma)
    if not np.all(ok):
        raise ArithmeticError("ray solve residual above tolerance")
    return float(t) if np.ndim(t) == 0 else t


def _sign_changes(signs: np.ndarray) -> np.ndarray:
    """Sign changes along the last axis, zeros skipped: each entry is
    replaced by the last nonzero sign up to it (0 before the first)."""
    idx = np.where(signs != 0, np.arange(signs.shape[-1]), 0)
    last = np.take_along_axis(signs, np.maximum.accumulate(idx, axis=-1), -1)
    return np.count_nonzero((np.diff(last) != 0) & (last[..., :-1] != 0), -1)


def check_ray(fun: SymmetricFunction, lam, sigma) -> tuple:
    """Ray uniqueness per stacked (lambda, sigma): (ok, t) with t from the
    closed form.  ok when f(t lambda) = sigma holds to RAY_RTOL and
    f(s lambda) - sigma changes sign exactly once on 41 log-spaced s in
    [t / 64, 64 t]."""
    lam = np.asarray(lam, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    t, ok = _ray(fun, lam, sigma)
    s = np.geomspace(t / 64.0, t * 64.0, 41, axis=-1)
    vals = f_many(fun, s[..., None] * lam[..., None, :]) - sigma[..., None]
    return ok & (_sign_changes(np.sign(vals)) == 1), t


@dataclass(frozen=True)
class LevelSetPoint:
    """A point on the level set {f = sigma} with its unit normal."""

    lam: np.ndarray
    sigma: float
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        if abs(np.linalg.norm(self.normal) - 1.0) > NORMAL_ATOL:
            raise ValueError("normal must be a unit vector")


def make_level_set_point(
    fun: SymmetricFunction, direction, sigma: float
) -> LevelSetPoint:
    """Scale a cone direction onto the level set {f = sigma}."""
    direction = np.asarray(direction, dtype=float)
    t = ray_intersect(fun, direction, sigma)
    lam = t * direction
    f = f_eval(fun, lam)
    if abs(f - sigma) > LEVEL_RTOL * (1.0 + abs(sigma)):
        raise ArithmeticError("level-set point off its level")
    return LevelSetPoint(lam=lam, sigma=sigma, normal=_unit(f_grad(fun, lam)))


def fi_sum_margins(fun: SymmetricFunction, lam, sigma, t) -> tuple:
    """Level-set gradient-sum bound sum f_i(lambda) > (f(t*1) - sigma)/t
    at stacked points lambda on {f = sigma}, for each t along the last
    axis of ``t``: (ok, margin) with margin = sum f_i - (f(t*1) - sigma)/t."""
    sigma = np.asarray(sigma, dtype=float)[..., None]
    t = np.asarray(t, dtype=float)
    gsum = grad_many(fun, lam).sum(axis=-1)[..., None]
    rhs = (f_many(fun, t[..., None] * np.ones(fun.n)) - sigma) / t
    return gsum > rhs - CONCAVITY_MARGIN, gsum - rhs


def check_fi_sum_bound(fun: SymmetricFunction, point: LevelSetPoint, t: float) -> bool:
    """Level-set gradient-sum bound at one point: sum f_i > (f(t*1) - sigma)/t."""
    if t <= 0:
        raise ValueError("t must be positive")
    return bool(fi_sum_margins(fun, point.lam, point.sigma, t)[0])


@dataclass(frozen=True)
class SubsolutionGapSpec:
    """Normal-separation constant ``beta`` and the reference gap ``epsilon``
    against which measured gaps are compared."""

    beta: float
    epsilon: float = 0.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


def default_beta(fun: SymmetricFunction, reference_points) -> float:
    """Half the minimal distance of the reference unit normals to the
    boundary of the positive orthant (= half the smallest component)."""
    lam = np.asarray(reference_points, dtype=float)
    _require_in_cone(fun, lam)
    best = float(_unit(grad_many(fun, lam)).min())
    if not best > 0:
        raise ArithmeticError("reference normal touches the orthant boundary")
    return 0.5 * best


@dataclass(frozen=True)
class GapResult:
    """Outcome of the two-branch subsolution gap test; for stacked points
    every field is an array, with NaN for a value off a point's branch."""

    branch: str  # "normal-near" | "normal-far"
    normal_distance: float
    eps_prime: float | None  # far branch: largest valid gap constant
    min_component_ratio: float | None  # near branch: min_i f_i / sum_j f_j
    passed: bool


def subsolution_gap(
    fun: SymmetricFunction, lam_sub, lam, spec: SubsolutionGapSpec
) -> GapResult:
    """Dichotomy at ``lam`` (one point or stacked) relative to ``lam_sub``.

    If the level-set normals differ by at least ``beta``, the concavity
    gap inequality
        sum f_i(lam) (lam_sub_i - lam_i) >= f(lam_sub) - f(lam)
                                            + eps (1 + sum f_i(lam))
    holds for some eps > 0; the largest such eps is returned (the bound is
    linear in eps, so the maximiser is explicit).  Otherwise every
    component satisfies f_i >= (beta/sqrt(n)) sum_j f_j.
    """
    lam_sub = np.asarray(lam_sub, dtype=float)
    lam = np.asarray(lam, dtype=float)
    _require_in_cone(fun, lam_sub)
    _require_in_cone(fun, lam)
    g = grad_many(fun, lam)
    d = _unit(g) - _unit(grad_many(fun, lam_sub))
    dist = np.sqrt(np.vecdot(d, d))
    gsum = g.sum(axis=-1)
    far = ~(dist < spec.beta)
    ratio = g.min(axis=-1) / gsum
    gap = np.vecdot(g, lam_sub - lam) - (f_many(fun, lam_sub) - f_many(fun, lam))
    eps = gap / (1.0 + gsum)
    passed = np.where(far, (eps > 0.0) & (eps >= spec.epsilon),
                      ratio >= spec.beta / np.sqrt(fun.n) - CONCAVITY_MARGIN)
    if lam.ndim == 1:
        return GapResult(
            branch="normal-far" if far else "normal-near",
            normal_distance=float(dist),
            eps_prime=float(eps) if far else None,
            min_component_ratio=None if far else float(ratio),
            passed=bool(passed),
        )
    return GapResult(
        branch=np.where(far, "normal-far", "normal-near"),
        normal_distance=dist,
        eps_prime=np.where(far, eps, np.nan),
        min_component_ratio=np.where(far, np.nan, ratio),
        passed=passed,
    )


def delta_nondegeneracy(fun: SymmetricFunction, psi_values) -> float:
    """min(psi), the distance of psi above the boundary value 0 of f; zero
    marks the degenerate regime."""
    psi_values = np.asarray(psi_values, dtype=float)
    if psi_values.size == 0:
        raise ValueError("psi_values must be nonempty")
    return float(psi_values.min())


def kappa_lower_bound(fun: SymmetricFunction, sup_psi: float) -> float:
    """Uniform positive lower bound for sum f_i along {f = psi} levels:
    kappa = (f((1+c0)*1) - sup_psi)/(1+c0) with f(c0*1) = sup_psi, which
    degree-one homogeneity reduces to f(1)^2 / (f(1) + sup_psi)."""
    if not sup_psi > 0.0:
        raise ValueError(f"sup_psi={sup_psi!r} not above the boundary sup 0")
    f1 = f_eval(fun, np.ones(fun.n))
    return f1 * f1 / (f1 + sup_psi)
