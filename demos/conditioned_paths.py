"""Conditioned Brownian motion versus the operator route and the exact limit.

Planar Brownian paths started on the circle are killed on leaving the tube
and reweighted by the Feynman-Kac potential; the surviving ensemble's angular
marginal is compared against the two-sided heat-flow ratio at the same tube
radius and against the free circle heat value it approaches as the tube
shrinks.  The horizon is kept short so a usable fraction of paths survives.
"""

import math

import numpy as np

from tubelab import discretize, fiber, semigroup, stochastic
from tubelab.geometry import CircleInPlane

model = CircleInPlane(1.0)
grid = discretize.build_grid(model, 64, 31)
spectrum = fiber.fiber_spectrum(grid.fiber, n_modes=6)

T, t, n_paths = 0.1, 0.05, 30000
exact = stochastic.circle_heat_oracle(1.0, 0.0, t, [0.0, 1.0])

print(f"E[cos(theta_t) | inside for [0, T]], T={T}, t={t}, {n_paths} paths")
print(f"{'eps':>7} {'survive':>8} {'mc est':>10} {'std err':>9} {'operator':>10}")
for eps in (0.3, 0.2):
    # round the step so the horizon is a whole number of steps
    dt = T / math.ceil(T / (eps**2 / 20))
    ens = stochastic.sample_conditioned(
        model, eps, 0.0, T, dt, n_paths, 12345, t_record=[t], guided=False
    )
    tq = float(ens.t_record[0])  # requested time snapped to the step grid
    est = stochastic.marginal_estimate(ens, np.cos, tq)
    (op,), _ = semigroup.conditional_flow_operator(
        grid, spectrum, eps, T, [tq], np.cos(grid.base_x)
    )
    print(
        f"{eps:>7.2f} {ens.survival_fraction():>8.3f} {est.value:>10.5f} "
        f"{est.std_error:>9.1e} {op[0]:>10.5f}"
    )
print(f"{'limit':>7} {'':>8} {exact:>10.5f}   free circle heat value")
print("\nthe mc and operator columns agree within a few standard errors;")
print("both drift toward the free value as the tube shrinks")
