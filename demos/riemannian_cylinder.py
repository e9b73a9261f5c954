"""Real-Hessian variant on the flat cylinder with totally geodesic boundary.

The same continuity-method machinery solves f(lambda(chi + Hess u)) = psi
on T^(d-1) x [0,1].  The flat boundary has vanishing second fundamental
form, so the tangential part of g - g_sub on the boundary must be
nonnegative.  Every cylinder solve checks it node by node among its input
checks, before any Newton work: u equals phi on the faces, so the
tangential block is read from phi - u_sub.
"""

import numpy as np

from hessiancone import cones as cn
from hessiancone import presets as pr
from hessiancone.geometry import CylinderGeometry
from hessiancone.solve import solve_riemannian

fun = cn.monge_ampere(3)

errors = {}
for m in (8, 16):
    geom = CylinderGeometry(d=3, resolution=m)
    prob = pr.build_problem(geom, fun, "manufactured", "zero", "star-bump")
    u, rep = solve_riemannian(fun, prob.chi, prob.psi, prob.phi, prob.u_sub)
    errors[m] = np.abs(u.values - prob.u_star.values).max()
    print(f"grid {m}^3: residual {rep.final_residual:.2e}, sup error "
          f"{errors[m]:.3e}, tangential boundary minimum "
          f"{rep.boundary_tangential_min:.2e} (allowed >= {-10 * geom.h**2:.2e})")

print(f"convergence order: {np.log2(errors[8] / errors[16]):.3f}")

# sigma_1 reduces to the Poisson problem on the cylinder.
fun1 = cn.sigma_k_root(2, 1)
geom = CylinderGeometry(d=2, resolution=16)
prob = pr.build_problem(geom, fun1, "manufactured", "zero", "star-bump")
u, rep = solve_riemannian(fun1, prob.chi, prob.psi, prob.phi, prob.u_sub)
print(f"\nsigma_1 on T^1 x [0,1]: newton iterations "
      f"{rep.newton_iterations} (linear problem), residual "
      f"{rep.final_residual:.2e}")
