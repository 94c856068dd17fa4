# The first import: `import tubelab` makes one BLAS thread the default
# unless OPENBLAS_NUM_THREADS is set, and that holds only before numpy loads.
# pytest loads no numpy before this file, so the tests run the BLAS setting
# the CLI runs.
import tubelab  # noqa: F401

import math

import numpy as np
import pytest

from tubelab import discretize, fiber as fiber_mod
from tubelab.geometry import CircleInPlane, SyntheticFiberModel, constant_curve


@pytest.fixture(scope="session")
def circle_model():
    return CircleInPlane(1.0)


@pytest.fixture(scope="session")
def circle_grid(circle_model):
    return discretize.build_grid(circle_model, 64, 31)


@pytest.fixture(scope="session")
def circle_spectrum(circle_grid):
    return fiber_mod.fiber_spectrum(circle_grid.fiber, n_modes=6)


@pytest.fixture(scope="session")
def synthetic_model():
    return SyntheticFiberModel(1.5)


@pytest.fixture(scope="session")
def synthetic_grid(synthetic_model):
    return discretize.build_grid(synthetic_model, 1, 48, 32)


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.Philox(key=2024))


# semigroup.FourierBlocks has one field layout, one complex row per field
# and block; one grid per block kind: real blocks (the README circle),
# complex blocks (a twisted curve, over an even and an odd base count; an
# odd count has no mode n_base / 2) and the one block of a pencil without
# base structure (the synthetic model).  A name is its block kind, with
# "-odd" for the odd base count
LAYOUT_GRIDS = {
    "real": (CircleInPlane(1.0), 64, 31, 16),
    "complex": (constant_curve(1.0, 1.0, 2.0 * math.pi), 32, 12, 16),
    "complex-odd": (constant_curve(1.0, 1.0, 2.0 * math.pi), 17, 8, 8),
    "one-block": (SyntheticFiberModel(1.5), 1, 31, 16),
}


@pytest.fixture(scope="session", params=sorted(LAYOUT_GRIDS))
def layout_grid(request):
    """(layout name, grid) for each entry of LAYOUT_GRIDS."""
    return request.param, discretize.build_grid(*LAYOUT_GRIDS[request.param])
