"""Dirichlet spectra and ground-state projections on the unit fiber.

Codimension 1 fibers are the interval (-1, 1) on a uniform interior grid;
codimension 2 fibers are the unit disc on a tensor polar grid whose radial
nodes are cell-centered, so the axis r = 0 needs no special stencil: the
conservative flux form simply has no flux through the origin.

Both grids share one interface: vertical_form(vertical) is the Dirichlet
form of a vertical cometric (flat without one), node_w the normal-frame
coordinates of the nodes, center_index the node on the submanifold,
refined_size a finer grid's constructor arguments, symmetrize_ground the
ground state's symmetrization and angular_sectors the subspaces on which
the angular derivative acts as a number.  Outside this module nothing
branches on the fiber type.  A form is assembled from 1-D difference
matrices (sp.diags, sp.kron) as coefficient times squared one-sided
difference summed over the edges, which makes every operator symmetric and
positive semidefinite in the grid's weighted inner product by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import ResolutionError

MULTIPLET_REL_TOL = 1e-8
# modes fiber_spectrum computes unless asked for others; every subcommand
# but `fiber` uses this many
DEFAULT_MODES = 6


# ---------------------------------------------------------------------------
# fiber grids
# ---------------------------------------------------------------------------


def _flat(w):
    """The flat vertical cometric: the identity at every fiber point."""
    q = w.shape[-1]
    return np.broadcast_to(np.eye(q), w.shape + (q,))


def _edge_form(D, weight):
    """Form matrix of sum over edges e of weight_e * (D f)_e^2."""
    return (D.T @ sp.diags(weight) @ D).tocsr()


class IntervalFiberGrid:
    """Uniform cell-centered grid on (-1, 1) with Dirichlet walls.

    Nodes sit at cell centers, so every node has weight h and the total
    weight is exactly the interval length; the walls lie half a cell past
    the extreme nodes.  An odd node count puts a node exactly at s = 0.
    """

    q = 1

    def __init__(self, n):
        if n < 8:
            raise ValueError("need at least 8 fiber nodes")
        self.n = int(n)
        self.h = 2.0 / n
        self.s = -1.0 + self.h * (np.arange(1, n + 1) - 0.5)
        self.weights = np.full(n, self.h)

    @property
    def n_nodes(self):
        return self.n

    @property
    def mode_capacity(self):
        """How many Dirichlet modes the grid resolves."""
        return self.n // 2

    def node_w(self):
        """Normal-frame coordinates per node, shape (n, 1)."""
        return self.s[:, None]

    def center_index(self):
        """Index of the node at s = 0, on the submanifold itself."""
        j = int(np.argmin(np.abs(self.s)))
        if abs(self.s[j]) > 1e-12:
            raise ResolutionError("no fiber node at s = 0; use an odd node count")
        return j

    def refined_size(self, factor):
        """Constructor arguments of the grid factor times finer; the node
        count stays odd, so a node stays at s = 0."""
        n = int(round(self.n * factor))
        return (n if n % 2 else n + 1,)

    def symmetrize_ground(self, ground):
        """The interval has no symmetry to impose."""
        return ground

    def angular_sectors(self):
        """The interval has no angle: one sector, the whole grid, zeta = 0."""
        return [(np.eye(self.n), 0.0)]

    def vertical_form(self, vertical=None):
        """Form matrix of integral g(s) (f')^2 ds, with g the vertical
        cometric (fiber points (..., 1) -> (..., 1, 1)) at the edge
        midpoints; flat (g = 1) without one.

        The edges join neighbouring nodes, plus a half-length edge from each
        extreme node to its wall; differences are divided by edge length."""
        n, h = self.n, self.h
        lens = np.full(n + 1, h)
        lens[0] = lens[-1] = 0.5 * h
        D = sp.diags([-1.0 / lens[1:], 1.0 / lens[:-1]], [-1, 0], shape=(n + 1, n))
        mids = np.concatenate([[-1.0 + 0.25 * h], self.s[:-1] + 0.5 * h, [1.0 - 0.25 * h]])
        g = (vertical or _flat)(mids[:, None])[:, 0, 0]
        return _edge_form(D, g * lens)


class PolarFiberGrid:
    """Tensor polar grid on the unit disc, Dirichlet at r = 1.

    Radial nodes r_i = (i - 1/2) h are cell-centered; the outer half-cell
    between the last ring and the boundary is folded into the last ring's
    weight so the total weight is exactly pi.  Node ordering is radial-major:
    flat index = i * n_theta + j.
    """

    q = 2

    def __init__(self, n_r, n_theta=16):
        if n_r < 8:
            raise ValueError("need at least 8 radial nodes")
        if n_theta < 8 or n_theta % 2:
            raise ValueError("n_theta must be even and at least 8")
        self.n_r = int(n_r)
        self.n_theta = int(n_theta)
        self.h_r = 2.0 / (2 * n_r + 1)
        self.r = (np.arange(1, n_r + 1) - 0.5) * self.h_r
        self.dtheta = 2.0 * math.pi / n_theta
        self.theta = self.dtheta * np.arange(n_theta)
        w = np.outer(self.dtheta * self.h_r * self.r, np.ones(n_theta))
        # outer strip between the last cell edge and the boundary circle
        r_edge = n_r * self.h_r
        w[-1, :] += self.dtheta * 0.5 * (1.0 - r_edge**2)
        self.weights = w.ravel()

    @property
    def n_nodes(self):
        return self.n_r * self.n_theta

    @property
    def mode_capacity(self):
        """How many Dirichlet modes the grid resolves."""
        return self.n_nodes // 4

    def node_rt(self):
        """(r, theta) per flat node."""
        r = np.repeat(self.r, self.n_theta)
        t = np.tile(self.theta, self.n_r)
        return r, t

    def node_w(self):
        """Cartesian fiber coordinates per flat node, shape (n_nodes, 2)."""
        r, t = self.node_rt()
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)

    def center_index(self):
        raise NotImplementedError("the disc grid's radial nodes are cell-centered: no center node")

    def refined_size(self, factor):
        """Constructor arguments of the grid factor times finer in its rings;
        the angles are kept."""
        return int(round(self.n_r * factor)), self.n_theta

    def symmetrize_ground(self, ground):
        """The ground state averaged over the angular index and renormalized:
        an exactly radial profile makes the rotation generator annihilate it
        exactly."""
        prof = ground.reshape(self.n_r, self.n_theta).mean(axis=1)
        ground = np.repeat(prof, self.n_theta)
        return ground / math.sqrt(np.sum(self.weights * ground**2))

    def angular_sectors(self):
        """(U_m, zeta_m) for m = 0 .. n_theta - 1: U_m the orthonormal basis
        kron(I, e^{i m theta} / sqrt(n_theta)) of the fields g(r) e^{i m theta},
        on which the centered d_theta (-rotation_generator) acts as i zeta_m,
        zeta_m = sin(m dtheta) / dtheta; the flat vertical form keeps them."""
        e = np.exp(1j * np.outer(np.arange(self.n_theta), self.theta)) / math.sqrt(self.n_theta)
        zeta = np.sin(np.arange(self.n_theta) * self.dtheta) / self.dtheta
        return [(np.kron(np.eye(self.n_r), e_m[:, None]), z) for e_m, z in zip(e, zeta)]

    def vertical_form(self, vertical=None):
        """Form matrix of integral g_rr (d_r f)^2 + g_tt r^-2 (d_theta f)^2
        r dr dtheta, with g the vertical cometric (fiber points (..., 2) ->
        (..., 2, 2)) on the axis theta = 0: g_rr at the radial edges, g_tt at
        the rings; flat (g = identity) without one.

        Radial edges join consecutive rings, plus the Dirichlet edge from the
        last ring to r = 1 (gap h_r each); there is no flux through r = 0.
        Angular edges join angular neighbours on each ring, periodically.
        Sampling on the axis stands for every angle, which needs a cometric
        diagonal in polar coordinates there (rotationally symmetric)."""
        nr, nt, h, dt = self.n_r, self.n_theta, self.h_r, self.dtheta
        vertical = vertical or _flat
        r_edge = np.append(np.arange(1, nr) * h, 1.0 - 0.5 * h)
        g_edge, g_ring = (
            vertical(np.stack([r, np.zeros_like(r)], axis=-1)) for r in (r_edge, self.r)
        )
        for g in (g_edge, g_ring):
            if np.any(np.abs(g[:, 0, 1]) > 1e-10 * np.abs(g[:, 0, 0])):
                raise NotImplementedError(
                    "the disc grid needs a rotationally symmetric vertical cometric"
                )
        D_r = sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(nr, nr))
        D_t = sp.diags([-1.0 / dt, 1.0 / dt, 1.0 / dt], [0, 1, 1 - nt], shape=(nt, nt))
        # edge weight g * (h * r * dt), grouped so: the tests' edge-by-edge
        # reference, and every result file, rest on these bits
        radial = _edge_form(
            sp.kron(D_r, sp.identity(nt)), np.repeat(g_edge[:, 0, 0] * (h * r_edge * dt), nt)
        )
        angular = _edge_form(
            sp.kron(sp.identity(nr), D_t),
            np.repeat(g_ring[:, 1, 1] / self.r**2 * (h * self.r * dt), nt),
        )
        return (radial + angular).tocsr()

    def rotation_generator(self):
        """Centered-difference matrix of the rotation derivation -d_theta.

        Circulant in the angular index, hence it commutes exactly with every
        other angular-difference operator on the same grid, and the sign is
        fixed so that applying it to w1 gives (a discretization of) w2."""
        nt = self.n_theta
        rows = np.repeat(np.arange(nt), 2)
        cols = np.stack([(np.arange(nt) + 1) % nt, (np.arange(nt) - 1) % nt], 1).ravel()
        # entry -1/(2h) at j+1 and +1/(2h) at j-1 is the centered -d_theta
        vals = np.tile([-1.0 / (2 * self.dtheta), 1.0 / (2 * self.dtheta)], nt)
        Dt = sp.csr_matrix((vals, (rows, cols)), shape=(nt, nt))
        return sp.kron(sp.identity(self.n_r, format="csr"), Dt, format="csr")


def make_fiber_grid(q, n_fiber, n_theta=16):
    if q == 1:
        return IntervalFiberGrid(n_fiber)
    if q == 2:
        return PolarFiberGrid(n_fiber, n_theta)
    raise NotImplementedError("fiber grids ship for codimension 1 and 2 only")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


@dataclass
class FiberSpectrum:
    """Leading Dirichlet eigenpairs of the flat unit fiber.

    eigenvalues are ascending with multiplicity; eigenfunctions are columns,
    orthonormal in the grid's weighted inner product; multiplets groups
    indices of numerically coincident eigenvalues; ground_state is the
    nonnegative first eigenfunction (exactly angular-symmetric on the disc).
    """

    q: int
    grid: object
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    multiplets: list
    ground_state: np.ndarray

    @property
    def lambda0(self):
        return float(self.eigenvalues[0])

    @property
    def lambda1(self):
        """Bottom of the second multiplet."""
        return float(self.eigenvalues[self.multiplets[1][0]])

    def analytic_eigenvalue(self, k):
        """Continuum reference, available for the interval fiber."""
        if self.q != 1:
            raise NotImplementedError("closed-form spectrum only for codim 1")
        return ((k + 1) * math.pi / 2.0) ** 2

    def references(self):
        """Continuum references: every eigenvalue on the interval, the ground
        energy (the first zero of J0, squared) on the disc."""
        if self.q == 1:
            n = len(self.eigenvalues)
            return {"analytic": [self.analytic_eigenvalue(k) for k in range(n)]}
        return {"bessel_oracle_lambda0": bessel_j0_first_zero() ** 2}


def fiber_spectrum(grid, n_modes=DEFAULT_MODES):
    """Dense generalized eigensolve of the flat Dirichlet form on a fiber grid."""
    n = grid.n_nodes
    if n_modes > grid.mode_capacity:
        raise ResolutionError(
            f"{n_modes} modes requested but the grid resolves only {grid.mode_capacity}"
        )
    W = np.diag(grid.weights)
    vals, vecs = scipy.linalg.eigh(grid.vertical_form().toarray(), W)
    # extend the cut so multiplets are never split
    k = n_modes
    while k < n and vals[k] - vals[k - 1] <= MULTIPLET_REL_TOL * abs(vals[k]):
        k += 1
    vals, vecs = vals[:k], vecs[:, :k]
    multiplets, start = [], 0
    for i in range(1, k + 1):
        if i == k or vals[i] - vals[start] > MULTIPLET_REL_TOL * abs(vals[i]):
            multiplets.append(list(range(start, i)))
            start = i
    ground = vecs[:, 0].copy()
    if np.sum(grid.weights * ground) < 0:
        ground = -ground
    ground = grid.symmetrize_ground(ground)
    vecs[:, 0] = ground
    return FiberSpectrum(grid.q, grid, vals, vecs, multiplets, ground)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


@dataclass
class Projection:
    """Fiberwise orthogonal projection onto a span of fiber eigenfunctions."""

    modes: np.ndarray  # (n_fiber, m), weighted-orthonormal columns
    fiber_weights: np.ndarray

    def coefficients(self, field, n_base):
        f2 = np.asarray(field).reshape(n_base, -1)
        return f2 @ (self.fiber_weights[:, None] * self.modes)


def extract_fb(grid, spectrum, field):
    """Fiberwise ground-state coefficient: a scalar field on the base."""
    proj = Projection(spectrum.ground_state[:, None], spectrum.grid.weights)
    return proj.coefficients(field, grid.n_base)[:, 0]


def project_E0(grid, spectrum, field):
    """Fiberwise rank-one projection onto the ground state."""
    fb = extract_fb(grid, spectrum, field)
    return np.outer(fb, spectrum.ground_state).ravel()


# ---------------------------------------------------------------------------
# independent Bessel oracle
# ---------------------------------------------------------------------------


def bessel_j0(x):
    """Power series for J0, accurate to well below 1e-12 for |x| < 10."""
    term = 1.0
    total = 1.0
    k = 0
    while abs(term) > 1e-18 and k < 200:
        k += 1
        term *= -(x * x) / (4.0 * k * k)
        total += term
    return total


def bessel_j0_first_zero():
    """First positive zero of J0 by bisection on the power series, to an
    interval of width 1e-10."""
    lo, hi = 2.0, 3.0
    assert bessel_j0(lo) > 0 > bessel_j0(hi)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
