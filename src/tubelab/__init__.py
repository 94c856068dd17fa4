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

from .errors import (
    CoercivityViolation,
    ConfigError,
    DegenerateConditioning,
    EmptyEnsemble,
    FocalRadiusExceeded,
    LowEffectiveSampleSize,
    ResolutionError,
    StepSizeError,
    TubelabError,
)
from .geometry import (
    CircleInPlane,
    CometricAt,
    CurveInSpace,
    SyntheticFiberModel,
    TubePoint,
    cometric,
    constant_curve,
    density_rho,
    ellipse_curve,
    jacobi_endomorphism,
    weingarten,
)
from .fiber import (
    FiberSpectrum,
    Projection,
    extract_fb,
    fiber_spectrum,
    make_fiber_grid,
    project_E0,
)
from .discretize import (
    DiscreteOperator,
    ProductGrid,
    assemble_form,
    build_grid,
    random_fields,
    renormalize,
    residual_h1_bound,
    sobolev_norm,
)
from .semigroup import (
    Propagator,
    SweepResult,
    conditional_flow_operator,
    convergence_sweep,
    limit_propagate,
    phi_functional,
    resolvent_minimizer,
)
from .stochastic import (
    MarginalEstimate,
    PathEnsemble,
    circle_heat_oracle,
    marginal_estimate,
    sample_conditioned,
)
