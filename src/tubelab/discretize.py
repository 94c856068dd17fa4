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

Form names:
  V           flat fiber Dirichlet energy (no epsilon)
  H           horizontal energy with unit coefficient (no epsilon)
  SasakiEps   eps^-2 V + H, exact at the matrix level
  InducedEps  exact induced cometric of the model at radius eps
  Omega       curvature coupling term, -c/3 times the fiber rotation energy
              (nonzero only for the curved synthetic model)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fiber as fiber_mod
from . import geometry

FORM_NAMES = ("V", "H", "SasakiEps", "InducedEps", "Omega")
# refinement of the grid-error pre-check (refined_grid)
REFINE_FACTOR = 1.5


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


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
        return float(np.sum(self.weights * np.asarray(f) * np.asarray(g)))

    def norm(self, f):
        return math.sqrt(max(self.inner(f, f), 0.0))


def build_grid(model, n_base, n_fiber, n_theta=16):
    """Build the tensor grid for a model; the base is periodic arc length."""
    if isinstance(model, geometry.SyntheticFiberModel):
        if n_base != 1:
            raise ValueError("the synthetic fiber model has a point base: n_base = 1")
        fib = fiber_mod.make_fiber_grid(model.codim, n_fiber, n_theta)
        return ProductGrid(
            model, 1, np.zeros(1), 0.0, np.ones(1), fib, fib.weights.copy()
        )
    if n_base < 8:
        raise ValueError("need at least 8 base nodes")
    length = model.base_length
    h = length / n_base
    base_x = h * np.arange(n_base)
    fib = fiber_mod.make_fiber_grid(model.codim, n_fiber, n_theta)
    weights = np.kron(np.full(n_base, h), fib.weights)
    return ProductGrid(model, n_base, base_x, h, np.full(n_base, h), fib, weights)


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
    form: sp.csr_matrix

    @property
    def weights(self):
        return self.grid.weights

    def apply(self, f):
        return (self.form @ np.asarray(f)) / self.weights

    def form_value(self, f):
        f = np.asarray(f)
        return float(f @ (self.form @ f))

    def eig(self):
        """All eigenvalues of the weighted pencil, ascending; a block-circulant
        form is found and solved block by block (semigroup.pencil_eigenvalues)."""
        from . import semigroup  # semigroup imports this module

        return semigroup.pencil_eigenvalues(self.form, self.weights)


def _base_difference(grid):
    """Periodic forward-difference matrix on the base, divided by h."""
    n, h = grid.n_base, grid.base_h
    rows = np.repeat(np.arange(n), 2)
    cols = np.stack([np.arange(n), (np.arange(n) + 1) % n], 1).ravel()
    vals = np.tile([-1.0 / h, 1.0 / h], n)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _edge_twist(grid):
    """The torsion at each base edge's midpoint times the average of the
    edge's two ends, sparse (n_base, n_base); None without torsion."""
    if not isinstance(grid.model, geometry.CurveInSpace):
        return None
    n = grid.n_base
    tau = np.broadcast_to(grid.model.tau(grid.base_x + 0.5 * grid.base_h), n).astype(float)
    if not np.any(tau):
        return None
    return sp.diags(0.5 * tau) @ (sp.identity(n) + sp.eye(n, k=1) + sp.eye(n, k=1 - n))


def _horizontal_form(grid, coeff):
    """Horizontal energy with coefficient g(x_edge_mid, fiber node): g times
    (X f)^2 summed over base edges and fiber nodes, X = d_s - tau d_theta
    with d_s the forward difference along the edge and d_theta the fiber's
    centered angular difference, averaged over the edge's two ends.

    coeff is an (n_base, n_fiber) array evaluated at base-edge midpoints."""
    if grid.n_base == 1:
        return sp.csr_matrix((grid.n, grid.n))
    Db = _base_difference(grid)
    D = sp.kron(Db, sp.identity(grid.n_fiber, format="csr"), format="csr")
    C = sp.diags((grid.base_h * grid.fiber.weights[None, :] * coeff).ravel())
    Q = D.T @ C @ D
    twist = _edge_twist(grid)
    if twist is not None:
        # (D - A)^T C (D - A) expanded: with D - A as one matrix the products
        # sum the wrap-around blocks in another order, and a form with
        # base-independent coefficients misses the exact block-circulant check
        A = sp.kron(twist, -grid.fiber.rotation_generator())
        DCA = D.T @ C @ A
        Q = Q - (DCA + DCA.T) + A.T @ C @ A
    return Q.tocsr()


def base_form(grid, zeta):
    """Form of the Laplacian on the base curve alone, twisted by tau * zeta:
    the sum over base edges of h |(d_s - i zeta tau) g|^2, which is what the
    horizontal form is on a fiber sector where d_theta acts as i zeta
    (angular_sectors of the fiber grids).  A point base gives a zero 1 x 1."""
    if grid.n_base == 1:
        return sp.csr_matrix((1, 1))
    X, twist = _base_difference(grid), _edge_twist(grid)
    if zeta and twist is not None:
        X = X - 1j * zeta * twist
    return (X.conj().T @ sp.diags(np.full(grid.n_base, grid.base_h)) @ X).tocsr()


def _rotation_cometric(w):
    """Z Z^T for the rotation field Z = (-w2, w1) of a disc fiber: its
    vertical form is the angular energy integral (d_theta f)^2."""
    z = np.stack([-w[..., 1], w[..., 0]], axis=-1)
    return z[..., :, None] * z[..., None, :]


def assemble_form(grid, which, eps=None):
    """Assemble one of the named quadratic forms; results are cached."""
    if which not in FORM_NAMES:
        raise ValueError(f"unknown form {which!r}")
    if which in ("SasakiEps", "InducedEps") and (eps is None or not 0 < eps <= 1):
        raise ValueError("these forms need epsilon in (0, 1]")
    key = (which, eps)
    if key in grid.cache:
        return grid.cache[key]
    if which == "V":
        Q = sp.kron(sp.diags(grid.base_w), grid.fiber.vertical_form(), format="csr")
    elif which == "H":
        Q = _horizontal_form(grid, np.ones((grid.n_base, grid.n_fiber)))
    elif which == "SasakiEps":
        Q = (assemble_form(grid, "V") / eps**2 + assemble_form(grid, "H")).tocsr()
    elif which == "InducedEps":
        # one cometric call per block; the vertical block is base-independent
        # for every shipped model
        model = grid.model
        vert = grid.fiber.vertical_form(
            lambda w: geometry.cometric(model, geometry.TubePoint(0.0, w, eps)).vertical
        )
        Q = sp.kron(sp.diags(grid.base_w), vert, format="csr")
        if grid.n_base > 1:
            xmid = grid.base_x + 0.5 * grid.base_h
            points = geometry.TubePoint(xmid[:, None], grid.fiber.node_w()[None], eps)
            hor = geometry.cometric(model, points).horizontal[..., 0, 0]
            Q = (Q + _horizontal_form(grid, hor)).tocsr()
    elif which == "Omega":
        model = grid.model
        if (
            isinstance(model, geometry.SyntheticFiberModel)
            and np.any(model.curvature != 0.0)
        ):
            rot = grid.fiber.vertical_form(_rotation_cometric)
            c = model.pair_component
            Q = (-c / 3.0) * sp.kron(sp.diags(grid.base_w), rot, format="csr")
        else:
            # flat-ambient models have no curvature coupling
            Q = sp.csr_matrix((grid.n, grid.n))
    grid.cache[key] = Q.tocsr()
    return grid.cache[key]


def assemble_operator(grid, which, eps=None):
    """Named operators over the grid.

    DeltaV, DeltaH: flat fiber and horizontal Laplacians (commute exactly);
    HSa(eps), H(eps): Sasaki and induced tube operators; P: curvature
    coupling operator built from the fiber rotation generator."""
    if which == "DeltaV":
        return DiscreteOperator(grid, assemble_form(grid, "V"))
    if which == "DeltaH":
        return DiscreteOperator(grid, assemble_form(grid, "H"))
    if which == "HSa":
        return DiscreteOperator(grid, assemble_form(grid, "SasakiEps", eps))
    if which == "H":
        return DiscreteOperator(grid, assemble_form(grid, "InducedEps", eps))
    if which == "P":
        model = grid.model
        if not isinstance(model, geometry.SyntheticFiberModel):
            return DiscreteOperator(grid, sp.csr_matrix((grid.n, grid.n)))
        c = model.pair_component
        Z = grid.fiber.rotation_generator()
        Zfull = sp.kron(sp.identity(grid.n_base, format="csr"), Z, format="csr")
        Pmat = (c / 3.0) * (Zfull @ Zfull)
        Q = (sp.diags(grid.weights) @ Pmat).tocsr()
        Q = ((Q + Q.T) * 0.5).tocsr()  # symmetric up to roundoff already
        return DiscreteOperator(grid, Q)
    raise ValueError(f"unknown operator {which!r}")


def renormalize(grid, which, eps, lam0):
    """The renormalized tube operator "HSa" or "H" at radius eps: its form
    minus the fiber ground energy, form - (lam0/eps^2) * weights."""
    op = assemble_operator(grid, which, eps)
    return DiscreteOperator(grid, (op.form - (lam0 / eps**2) * sp.diags(op.weights)).tocsr())


def residual_r_eps(grid, eps):
    """First-order metric residual (Induced - Sasaki - Omega) / eps as a form."""
    Q = (
        assemble_form(grid, "InducedEps", eps)
        - assemble_form(grid, "SasakiEps", eps)
        - assemble_form(grid, "Omega")
    ) / eps
    return DiscreteOperator(grid, Q.tocsr())


def h1_form(grid):
    """Sasaki energy at eps = 1 (the fixed reference H1 seminorm)."""
    return (assemble_form(grid, "V") + assemble_form(grid, "H")).tocsr()


def residual_h1_bound(grid, eps):
    """Largest |r_eps(f)| over the discrete H1 unit ball (dense pencil)."""
    Q = residual_r_eps(grid, eps).form.toarray()
    B = np.diag(grid.weights) + h1_form(grid).toarray()
    vals = scipy.linalg.eigh(0.5 * (Q + Q.T), B, eigvals_only=True)
    return float(np.max(np.abs(vals)))


def sobolev_norm(grid, f, order):
    """Discrete Sobolev norm of a field: order 0, 1 or 2.

    Order 1 adds the reference tube energy; order 2 adds the squared weighted
    norm of the reference tube Laplacian applied to the field."""
    f = np.asarray(f)
    n0sq = grid.inner(f, f)
    if order == 0:
        return math.sqrt(n0sq)
    Q1 = h1_form(grid)
    n1sq = n0sq + float(f @ (Q1 @ f))
    if order == 1:
        return math.sqrt(n1sq)
    if order == 2:
        lap = (Q1 @ f) / grid.weights
        return math.sqrt(n1sq + grid.inner(lap, lap))
    raise ValueError("order must be 0, 1 or 2")


def random_fields(grid, n_fields, seed):
    """Seeded smoothed random fields for the inequality suites.

    White noise per node, then one smoothing solve (I + DeltaSa/s) f = noise
    with s a Gershgorin bound on the reference Laplacian, which tames the
    grid-scale oscillation without killing high modes entirely."""
    Q1 = h1_form(grid)
    w = grid.weights
    s = float(np.max(np.asarray(abs(Q1).sum(axis=1)).ravel() / w))
    A = (sp.diags(w) + Q1 / s).tocsc()
    solve = spla.factorized(A)
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = np.empty((n_fields, grid.n))
    for i in range(n_fields):
        noise = rng.standard_normal(grid.n)
        out[i] = solve(w * noise)
    return out
