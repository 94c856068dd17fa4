"""Numerical laboratory for Dirichlet heat semigroups on collapsing tubes.

The package builds the rescaled tube geometry around a closed submanifold,
assembles the weighted Laplacians of the product and induced metrics on
tensor grids, renormalizes by the fiber ground energy, and studies the
collapse limit through semigroup sweeps, resolvents, and conditioned
Brownian motion.
"""

import os

# One BLAS thread unless the user chose otherwise; set before numpy loads.
# The dense blocks here are too small for BLAS threads to speed up, and idle
# OpenBLAS workers busy-wait on the cores the interpreter needs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
