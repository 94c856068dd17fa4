"""Fiber Dirichlet spectra against their analytic references.

The interval fiber has eigenvalues ((k+1) pi / 2)^2; the disc fiber's are
the squared Bessel zeros j_{m,k}^2, twice for m >= 1, with the ground energy
the squared first zero of J0 (FiberSpectrum.references, which computes them
with fiber.bessel_zeros).
"""

import math

from tubelab import fiber

print("interval fiber (-1, 1), Dirichlet walls")
print(f"{'n':>6} {'lambda0':>12} {'error':>10}")
exact = (math.pi / 2) ** 2
for n in (31, 63, 127, 255):
    sp = fiber.fiber_spectrum(fiber.IntervalFiberGrid(n), n_modes=2)
    print(f"{n:>6} {sp.lambda0:>12.8f} {abs(sp.lambda0 - exact):>10.2e}")
print(f"{'exact':>6} {exact:>12.8f}   (pi/2)^2\n")

print("unit disc fiber, Dirichlet boundary")
print(f"{'n_r':>6} {'lambda0':>12} {'error':>10}")
for n in (24, 48, 96):
    sp = fiber.fiber_spectrum(fiber.PolarFiberGrid(n), n_modes=4)
    exact = sp.references()["analytic"][0]
    print(f"{n:>6} {sp.lambda0:>12.8f} {abs(sp.lambda0 - exact):>10.2e}")
print(f"{'exact':>6} {exact:>12.8f}   first J0 zero squared")

sp = fiber.fiber_spectrum(fiber.PolarFiberGrid(48), n_modes=6)
analytic = sp.references()["analytic"]
print("\ndisc multiplet structure (indices of coincident levels):")
for k, idx in enumerate(sp.multiplets):
    print(f"  level {k}: eigenvalue {sp.eigenvalues[idx[0]]:.6f}, multiplicity {len(idx)}, "
          f"Bessel zero squared {analytic[idx[0]]:.6f}")
