"""Tensor-product grids on the unit tube and weighted operator assembly.

The grid is base x fiber with the reference product measure as quadrature
weight; all quadratic forms are assembled by quadrature of cometric
contractions of one-sided differences, so every operator is symmetric and
(semi)definite in the weighted inner product by construction, not by
post-hoc symmetrization.  Fields are flat arrays of length
n_base * n_fiber, base-major.  Every fiber block is the fiber grid's own
vertical_form, so nothing here branches on the fiber type.

The horizontal forms H and InducedEps differentiate along the horizontal
lift X = d_s - tau d_theta of the co-rotating normal frame (geometry), so
Sasaki and induced forms share one frame, and a constant curve's forms are
block-circulant with or without torsion (semigroup.fourier_blocks).

Form names (FORM_NAMES), the one operator vocabulary: the operator of a
form is DiscreteOperator(grid, form).  The tube forms (TUBE_FORMS) take eps.
  V           flat fiber Dirichlet energy (no epsilon)
  H           horizontal energy with unit coefficient (no epsilon)
  SasakiEps   eps^-2 V + H, exact at the matrix level
  InducedEps  exact induced cometric of the model at radius eps
  Omega       curvature coupling term, -c/3 times the fiber rotation energy
              by one-sided differences; residual_h1_bound subtracts it
  P           the coupling operator c/3 Z^2 as a form, Z the centred fiber
              rotation generator: it commutes with the fiber Laplacian and
              kills the ground band exactly (suites.curvature_coupling_suite)
Both coupling forms are zero except on the curved synthetic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fiber as fiber_mod
from . import geometry
from .forms import Form, kron

FORM_NAMES = ("V", "H", "SasakiEps", "InducedEps", "Omega", "P")
# the forms that take eps: the Sasaki and induced tube forms
TUBE_FORMS = ("SasakiEps", "InducedEps")
# refinement of the grid-error pre-check (refined_grid)
REFINE_FACTOR = 1.5


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def _float_or_stack(value):
    """A value of one field as a float, the values of a stack as an array."""
    return float(value) if np.ndim(value) == 0 else value


@dataclass
class ProductGrid:
    model: object
    n_base: int
    base_x: np.ndarray
    base_h: float
    base_w: np.ndarray
    fiber: object
    weights: np.ndarray
    cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_fiber(self):
        return self.fiber.n_nodes

    @property
    def n(self):
        return self.n_base * self.n_fiber

    @property
    def base_angle(self):
        """The base nodes as angles in [0, 2 pi) around the closed base curve."""
        return self.base_x / (self.model.base_length / (2.0 * math.pi))

    def reshape(self, f):
        return np.asarray(f).reshape(self.n_base, self.n_fiber)

    def inner(self, f, g):
        """The weighted inner product, a float, or one per row of stacks (m, n)."""
        return _float_or_stack(np.sum(self.weights * np.asarray(f) * np.asarray(g), axis=-1))

    def norm(self, f):
        return _float_or_stack(np.sqrt(np.maximum(self.inner(f, f), 0.0)))


def build_grid(model, n_base, n_fiber, n_theta=16):
    """Build the tensor grid for a model; the base is periodic arc length.
    A point base (the synthetic model) is one node of cell h = 1, on which
    the periodic difference is exactly zero."""
    if isinstance(model, geometry.SyntheticFiberModel):
        if n_base != 1:
            raise ValueError("the synthetic fiber model has a point base: n_base = 1")
        h = 1.0
    elif n_base < 8:
        raise ValueError("need at least 8 base nodes")
    else:
        h = model.base_length / n_base
    fib = fiber_mod.make_fiber_grid(model.codim, n_fiber, n_theta)
    base_w = np.full(n_base, h)
    return ProductGrid(
        model, n_base, h * np.arange(n_base), h, base_w, fib, np.kron(base_w, fib.weights)
    )


def refined_grid(grid):
    """The grid of the same model, REFINE_FACTOR times finer along the base
    and in the fiber (fiber.refined_size), each count rounded."""
    n_base = int(round(grid.n_base * REFINE_FACTOR))
    return build_grid(grid.model, n_base, *grid.fiber.refined_size(REFINE_FACTOR))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass
class DiscreteOperator:
    """Operator represented by its quadratic-form matrix.

    q(f) = f @ form @ f, and the operator action is weights^-1 (form @ f),
    which is symmetric in the weighted inner product by construction."""

    grid: ProductGrid
    form: Form

    @property
    def weights(self):
        return self.grid.weights

    def apply(self, f):
        """The operator on a field, or on each row of a stack (m, n)."""
        return (self.form @ f) / self.weights

    def form_value(self, f):
        """q(f), a float; a stack (m, n) of fields gives its m values."""
        f = np.asarray(f)
        return _float_or_stack(np.vecdot(f, self.form @ f))

    def eig(self):
        """All eigenvalues of the weighted pencil, ascending; a block-circulant
        form is found and solved block by block (semigroup.pencil_eigenvalues)."""
        from . import semigroup  # semigroup imports this module

        return semigroup.pencil_eigenvalues(self.form, self.weights)


def _base_difference(grid):
    """Periodic forward-difference matrix on the base, divided by h."""
    h = grid.base_h
    return Form(grid.n_base, {0: -1.0 / h, 1: 1.0 / h})


def _edge_twist(grid):
    """The torsion at each base edge's midpoint times the average of the
    edge's two ends, (n_base, n_base); None without torsion."""
    if not isinstance(grid.model, geometry.CurveInSpace):
        return None
    n = grid.n_base
    tau = np.broadcast_to(grid.model.tau(grid.base_x + 0.5 * grid.base_h), n).astype(float)
    if not np.any(tau):
        return None
    return Form(n, {0: 0.5 * tau, 1: 0.5 * tau})


def _horizontal_form(grid, coeff):
    """Horizontal energy with coefficient g(x_edge_mid, fiber node): g times
    (X f)^2 summed over base edges and fiber nodes, X = d_s - tau d_theta
    with d_s the forward difference along the edge and d_theta the fiber's
    centered angular difference, averaged over the edge's two ends.

    coeff is an (n_base, n_fiber) array evaluated at base-edge midpoints."""
    X = kron(_base_difference(grid), Form.identity(grid.n_fiber))
    twist = _edge_twist(grid)
    if twist is not None:
        # -tau d_theta = tau Z, the rotation generator Z being -d_theta
        X = X + kron(twist, grid.fiber.rotation_generator())
    return X.gram((grid.base_h * grid.fiber.weights[None, :] * coeff).ravel())


def base_form(grid, zeta):
    """Form of the Laplacian on the base curve alone, twisted by tau * zeta:
    the sum over base edges of h |(d_s - i zeta tau) g|^2, which is what the
    horizontal form is on a fiber sector where d_theta acts as i zeta
    (angular_sectors of the fiber grids).  A point base gives a zero 1 x 1."""
    X, twist = _base_difference(grid), _edge_twist(grid)
    if zeta and twist is not None:
        X = X - 1j * zeta * twist
    return X.gram(np.full(grid.n_base, grid.base_h))


def assemble_form(grid, which, eps=None):
    """Assemble one of the named quadratic forms; results are cached on the
    grid, a tube form by (name, eps) and any other by name alone: an eps
    passed with an eps-free form is ignored."""
    if which not in FORM_NAMES:
        raise ValueError(f"unknown form {which!r}")
    if which not in TUBE_FORMS:
        eps = None
    elif eps is None or not 0 < eps <= 1:
        raise ValueError("these forms need epsilon in (0, 1]")
    key = (which, eps)
    if key in grid.cache:
        return grid.cache[key]
    model = grid.model
    synthetic = isinstance(model, geometry.SyntheticFiberModel)
    if which == "V":
        Q = kron(Form.diagonal(grid.base_w), grid.fiber.vertical_form())
    elif which == "H":
        Q = _horizontal_form(grid, np.ones((grid.n_base, grid.n_fiber)))
    elif which == "SasakiEps":
        Q = assemble_form(grid, "V") / eps**2 + assemble_form(grid, "H")
    elif which == "InducedEps":
        # one cometric call per block; the vertical block is base-independent
        # for every shipped model
        vert = grid.fiber.vertical_form(
            lambda w: geometry.cometric(model, geometry.TubePoint(0.0, w, eps)).vertical
        )
        Q = kron(Form.diagonal(grid.base_w), vert)
        if grid.n_base > 1:
            xmid = grid.base_x + 0.5 * grid.base_h
            points = geometry.TubePoint(xmid[:, None], grid.fiber.node_w()[None], eps)
            hor = geometry.cometric(model, points).horizontal[..., 0, 0]
            Q = Q + _horizontal_form(grid, hor)
    elif which == "Omega" and synthetic and model.curvature != 0.0:
        rot = grid.fiber.vertical_form(geometry.rotation_cometric)
        Q = (-model.curvature / 3.0) * kron(Form.diagonal(grid.base_w), rot)
    elif which == "P" and synthetic:
        # c/3 diag(W) Z^2 with Z^2 = -Z^T Z, bit for bit (Z is antisymmetric).
        # Symmetric bit for bit too: Z^T Z is, and W is constant on the rings
        # that Z acts on
        Z = kron(Form.identity(grid.n_base), grid.fiber.rotation_generator())
        ZZ = -1.0 * Z.gram(np.ones(grid.n))
        Q = ((model.curvature / 3.0) * ZZ).scale_rows(grid.weights)
    else:
        # Omega and P: flat-ambient models have no curvature coupling
        Q = Form(grid.n, {}, grid.n_fiber)
    grid.cache[key] = Q
    return Q


def renormalize(grid, which, eps, lam0):
    """The renormalized operator of the tube form `which` (TUBE_FORMS) at
    radius eps: form - (lam0/eps^2) * weights."""
    if which not in TUBE_FORMS:
        raise ValueError(f"renormalize takes a tube form {TUBE_FORMS}, not {which!r}")
    Q = assemble_form(grid, which, eps)
    return DiscreteOperator(grid, Q - Form.diagonal((lam0 / eps**2) * grid.weights))


def h1_form(grid):
    """Sasaki energy at eps = 1, the fixed reference H1 seminorm: the
    ("SasakiEps", 1.0) form of the form cache."""
    return assemble_form(grid, "SasakiEps", 1.0)


def residual_h1_bound(grid, eps):
    """Largest |r_eps(f)| over the discrete H1 unit ball (dense pencil), r_eps
    = (Induced - Sasaki - Omega) / eps the first-order metric residual form.
    Its metric B is not diagonal: the pencil (Q, B) is reduced by the
    Cholesky factor B = L L^T to the matrix L^-1 Q L^-T of the same
    eigenvalues (Golub & Van Loan 2013, Sec. 8.7).  No subcommand calls it."""
    Q = ((assemble_form(grid, "InducedEps", eps) - assemble_form(grid, "SasakiEps", eps)
          - assemble_form(grid, "Omega")) / eps).toarray()
    L = np.linalg.cholesky(np.diag(grid.weights) + h1_form(grid).toarray())
    # Q is symmetrized first: L^-1 (L^-1 Q)^T = L^-1 Q L^-T
    C = np.linalg.solve(L, np.linalg.solve(L, 0.5 * (Q + Q.T)).T)
    return float(np.max(np.abs(np.linalg.eigvalsh(C))))


def sobolev_norm(grid, f, order):
    """Discrete Sobolev norm of a field, of any order k >= 0, a float; a
    stack (m, n) of fields gives its m norms, each with the bits of its
    field alone:
    |f|_k^2 = sum_{j <= k} <f, L^j f>_W with L = W^-1 Q1 the reference tube
    Laplacian (Q1 = h1_form): j = 2i + 1 adds L^i f . Q1 L^i f and
    j = 2i + 2 adds |L^(i+1) f|_W^2."""
    if order < 0:
        raise ValueError("order must be at least 0")
    g = np.ascontiguousarray(f)
    total = grid.inner(g, g)
    for j in range(1, order + 1):
        if j % 2:
            Qg = h1_form(grid) @ g
            total = total + np.vecdot(g, Qg)
        else:
            g = Qg / grid.weights
            total = total + grid.inner(g, g)
    return _float_or_stack(np.sqrt(total))


def random_fields(grid, n_fields, seed):
    """Seeded smoothed random fields for the inequality suites, a stack
    (n_fields, grid.n) whose first k rows are random_fields(grid, k, seed).

    White noise per node, then one smoothing solve (I + DeltaSa/s) f = noise
    with s a Gershgorin bound on the reference Laplacian, which tames the
    grid-scale oscillation without killing high modes entirely.  The pencil
    (Q1 / s, diag(w)) is solved for the whole stack on its Fourier blocks
    (semigroup.FourierBlocks.solve)."""
    from . import semigroup  # semigroup imports this module

    Q1 = h1_form(grid)
    w = grid.weights
    s = float(np.max(Q1.abs_row_sums() / w))
    blocks = semigroup.fourier_blocks(Q1 / s, w)
    rng = np.random.Generator(np.random.Philox(key=seed))
    # allocated first, filled last, each transient stack freed once the next
    # is made: measured, about 1 MB less peak memory in the README validate
    fields = np.empty((n_fields, grid.n))
    fields[:] = blocks.from_modes(blocks.solve(
        1.0, blocks.to_modes(w * rng.standard_normal(fields.shape)))).reshape(fields.shape)
    return fields
