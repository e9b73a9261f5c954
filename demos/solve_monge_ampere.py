"""Dirichlet problem for the complex Monge-Ampere root on the flat model.

The model manifold is the torus times a periodic strip, with Dirichlet
data on the two flat faces Re(z_n) in {0, 1}.  The solver takes one
Newton stage from the subsolution, its faces set to the boundary data,
straight to the target: the t = 1 end of the continuity path, reached by
cone-respecting damped Newton steps.
"""

import numpy as np

from hessiancone import cones as cn
from hessiancone import presets as pr
from hessiancone.geometry import GridGeometry
from hessiancone.solve import continuity_solve, harmonic_majorant

fun = cn.monge_ampere(2)

# Trivial data first: chi = identity, psi = 1 is solved exactly by u = 0.
geom = GridGeometry(n=2, resolution=8)
prob = pr.build_problem(geom, fun, "one", "zero", "zero")
u, rep = continuity_solve(fun, prob.chi, prob.psi, prob.phi, prob.u_sub)
print(f"trivial problem: sup|u| = {rep.sup_u:.2e}, residual = "
      f"{rep.final_residual:.2e}, comparison violations = "
      f"{rep.comparison_violations}")

# The harmonic majorant of the sandwich u_sub <= u <= w solves the
# trace-Laplace problem; for identity chi it is 4 x_n (1 - x_n).
w = harmonic_majorant(prob.chi, prob.phi, geom)
print(f"majorant peak {w.values.max():.6f} (exact 1.0 at x_n = 1/2)")

# Manufactured reference: the trigonometric preset induces its own
# right-hand side through the exact complex Hessian, so the discrete
# solution must recover it at second order.
errors = {}
for m in (8, 16):
    geom = GridGeometry(n=2, resolution=m)
    prob = pr.build_problem(geom, fun, "manufactured", "zero", "star-bump")
    u, rep = continuity_solve(fun, prob.chi, prob.psi, prob.phi, prob.u_sub)
    errors[m] = np.abs(u.values - prob.u_star.values).max()
    print(f"grid {m}^4: newton {rep.newton_iterations}, "
          f"sup error {errors[m]:.3e}, "
          f"boundary ratio {rep.boundary_ratio:.4f}")
print(f"observed convergence order: {np.log2(errors[8] / errors[16]):.3f}")
