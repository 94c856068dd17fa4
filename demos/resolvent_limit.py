"""Resolvent route to the collapse limit.

Solves (H0(eps) + alpha) f = w on the tube for a shrinking radius and
compares against the ground-band resolvent of the base circle.  The solution
is also certified as the strict minimizer of its quadratic functional.
"""

import numpy as np

from tubelab import CircleInPlane, discretize, fiber, semigroup

model = CircleInPlane(1.0)
grid = discretize.build_grid(model, 64, 31)
spectrum = fiber.fiber_spectrum(grid.fiber, n_modes=6)
alpha = spectrum.lambda0 + 1.5
w = semigroup.default_sweep_field(grid, spectrum)
limit = semigroup.resolvent_limit(grid, spectrum, alpha, w)

rng = np.random.Generator(np.random.Philox(key=7))
print(f"alpha = lambda0 + 1.5 = {alpha:.4f}")
print(f"{'eps':>8} {'L2 err':>10} {'min eig':>10} {'variational':>12}")
for eps in (0.2, 0.1, 0.05, 0.025):
    op0 = discretize.renormalize(
        discretize.assemble_operator(grid, "H", eps), spectrum.lambda0
    )
    f, info = semigroup.resolvent_minimizer(op0, alpha, w)
    base = semigroup.phi_functional(op0, alpha, w, f)
    strict = all(
        semigroup.phi_functional(op0, alpha, w, f + d) > base
        for d in (
            1e-3 * rng.standard_normal(grid.n) for _ in range(10)
        )
    )
    print(
        f"{eps:>8.3f} {grid.norm(f - limit):>10.2e} "
        f"{info['min_eigenvalue']:>10.4f} {'strict' if strict else 'VIOLATED':>12}"
    )
