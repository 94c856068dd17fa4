"""Collapse of the tube semigroup onto the base heat flow.

Propagates phi0 * (1 + cos(theta)/2) under the renormalized induced-metric
operator for a shrinking tube radius and measures the distance to the
projected circle heat flow.  The sup-over-time L2 error should shrink at
second order in the radius.
"""

import numpy as np

from tubelab import discretize, fiber, semigroup
from tubelab.geometry import CircleInPlane

grid = discretize.build_grid(CircleInPlane(1.0), 64, 31)
spectrum = fiber.fiber_spectrum(grid.fiber)
eps_list = [0.2, 0.1, 0.05, 0.025]
res = semigroup.convergence_sweep(grid, spectrum, eps_list)

print("circle R=1, grid 64 x 31, t in [0.1, 1.0]")
print(f"{'eps':>8} {'sup L2':>10} {'sup H1':>10} {'sup H2':>10}")
for i, eps in enumerate(eps_list):
    print(
        f"{eps:>8.3f} {res.sup_errors['L2'][i]:>10.2e} "
        f"{res.sup_errors['H1'][i]:>10.2e} {res.sup_errors['H2'][i]:>10.2e}"
    )
print(f"\nfitted L2 order: {res.fitted_order:.3f}  (R^2 = {res.r_squared:.6f})")
ratios = res.sup_errors["L2"][:-1] / res.sup_errors["L2"][1:]
print(f"successive L2 ratios: {np.array2string(ratios, precision=2)}")
print("(a ratio of ~4 per halving of eps is second-order collapse)")
