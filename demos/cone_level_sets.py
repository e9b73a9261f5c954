"""Concave symmetric functions on Garding cones and their level sets.

The shipped families (sigma_k roots, Monge-Ampere, Hessian quotients) are
degree-one homogeneous, positive, and concave on their cones, so every
cone ray crosses every positive level set exactly once and the gradient
sum admits a level-dependent positive lower bound.
"""

import numpy as np

from hessiancone import cones as cn

n = 3
for name in ("sigma1", "sigmaK:2", "ma", "quotient:1:2"):
    fun = cn.parse_kind(name, n)
    lam = np.array([1.0, 2.0, 3.0])
    print(f"{fun.label:14s} f(1,2,3) = {cn.f_eval(fun, lam):.6f}   "
          f"grad = {np.round(cn.f_grad(fun, lam), 4)}")

fun = cn.monge_ampere(2)
lam = np.array([1.0, 4.0])
print(f"\nMonge-Ampere n=2 at (1,4): f = {cn.f_eval(fun, lam)}, "
      f"grad = {cn.f_grad(fun, lam)} (hand: 1, 1/4)")
print(f"Euler identity sum f_i lambda_i = {cn.f_grad(fun, lam) @ lam} "
      f"(= f, checked: {cn.check_euler(fun, lam)})")

# The ray through (1,4) meets the level {f = 4} at t = 2.
t = cn.ray_intersect(fun, lam, 4.0)
print(f"ray through (1,4) crosses level 4 at t = {t:.12f}")

# Level-set point with its unit normal and the gradient-sum bound.
point = cn.make_level_set_point(fun, lam, 2.0)
print(f"\nlevel point {point.lam} on level {point.sigma}, "
      f"normal {np.round(point.normal, 4)}")
for tt in (0.5, 1.0, 2.0):
    ok = cn.check_fi_sum_bound(fun, point, tt)
    print(f"  gradient-sum bound at t = {tt}: {ok}")

# Two-branch dichotomy against a reference point: either the level-set
# normals are far apart and a positive concavity gap appears, or every
# partial derivative is a definite fraction of their sum.
ref = np.array([1.0, 1.0])
beta = cn.default_beta(fun, [ref])
spec = cn.SubsolutionGapSpec(beta=beta)
for lam in ([3.0, 1.0 / 3.0], [1.1, 0.9]):
    res = cn.subsolution_gap(fun, ref, np.asarray(lam), spec)
    extra = (f"eps' = {res.eps_prime:.4f}" if res.branch == "normal-far"
             else f"min f_i / sum f_j = {res.min_component_ratio:.4f}")
    print(f"lambda = {lam}: {res.branch}, {extra}")

# Degeneracy gap and the uniform gradient-sum constant.
print(f"\ndegeneracy gap of psi in {{0.5, 2, 0.1}}: "
      f"{cn.delta_nondegeneracy(fun, [0.5, 2.0, 0.1])}")
print(f"kappa lower bound at sup psi = 1: {cn.kappa_lower_bound(fun, 1.0)}")
