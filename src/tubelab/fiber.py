"""Dirichlet spectra and ground-state projections on the unit fiber.

Codimension 1 fibers are the interval (-1, 1) on a uniform interior grid;
codimension 2 fibers are the unit disc on a tensor polar grid whose radial
nodes are cell-centered, so the axis r = 0 needs no special stencil: the
conservative flux form simply has no flux through the origin.

Quadratic forms are assembled edge-wise (coefficient times squared one-sided
difference), which makes every operator symmetric and positive semidefinite
in the grid's weighted inner product by construction.
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

    def edges(self):
        """(difference matrix, edge lengths, edge midpoints).

        Rows are oriented differences already divided by the edge length;
        the first and last rows are the half-length Dirichlet wall edges."""
        n, h = self.n, self.h
        rows, cols, vals = [], [], []
        mids = np.empty(n + 1)
        lens = np.full(n + 1, h)
        lens[0] = lens[-1] = 0.5 * h
        # left wall edge: (f_0 - 0)/(h/2)
        rows.append(0), cols.append(0), vals.append(2.0 / h)
        mids[0] = -1.0 + 0.25 * h
        for j in range(n - 1):
            rows += [j + 1, j + 1]
            cols += [j, j + 1]
            vals += [-1.0 / h, 1.0 / h]
            mids[j + 1] = self.s[j] + 0.5 * h
        rows.append(n), cols.append(n - 1), vals.append(-2.0 / h)
        mids[n] = 1.0 - 0.25 * h
        D = sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, n))
        return D, lens, mids

    def dirichlet_form(self, coeff=None):
        """Form matrix of integral coeff(s) * (f')^2 ds; coeff defaults to 1."""
        D, lengths, mids = self.edges()
        c = np.ones(self.n + 1) if coeff is None else np.asarray(coeff(mids), dtype=float)
        return (D.T @ sp.diags(c * lengths) @ D).tocsr()


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
        """Cartesian fiber coordinates per flat node."""
        r, t = self.node_rt()
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)

    def radial_form(self, coeff=None):
        """Form matrix of integral coeff(r) * (d_r f)^2 r dr dtheta.

        Edges join consecutive rings plus the Dirichlet edge to r = 1;
        there is no flux through r = 0."""
        nr, nt, h = self.n_r, self.n_theta, self.h_r
        idx = np.arange(nr * nt).reshape(nr, nt)
        rows, cols, vals, emid, elen = [], [], [], [], []
        edge = 0
        for i in range(nr - 1):
            rm = (i + 1) * h  # midpoint radius between rings i and i+1
            for j in range(nt):
                rows += [edge, edge]
                cols += [idx[i, j], idx[i + 1, j]]
                vals += [-1.0 / h, 1.0 / h]
                emid.append(rm)
                elen.append(h * rm * self.dtheta)
                edge += 1
        # boundary edge: last ring to r = 1, gap h
        rb = 1.0 - 0.5 * h
        for j in range(nt):
            rows.append(edge)
            cols.append(idx[nr - 1, j])
            vals.append(-1.0 / h)
            emid.append(rb)
            elen.append(h * rb * self.dtheta)
            edge += 1
        D = sp.csr_matrix((vals, (rows, cols)), shape=(edge, nr * nt))
        emid = np.array(emid)
        c = np.ones(edge) if coeff is None else np.asarray(coeff(emid), dtype=float)
        return (D.T @ sp.diags(c * np.array(elen)) @ D).tocsr()

    def angular_form(self, coeff):
        """Form matrix of integral coeff(r) * (d_theta f)^2 r dr dtheta."""
        nr, nt = self.n_r, self.n_theta
        idx = np.arange(nr * nt).reshape(nr, nt)
        rows, cols, vals, cvals = [], [], [], []
        edge = 0
        cr = np.asarray(coeff(self.r), dtype=float)
        for i in range(nr):
            cell = self.h_r * self.r[i] * self.dtheta
            for j in range(nt):
                jp = (j + 1) % nt
                rows += [edge, edge]
                cols += [idx[i, j], idx[i, jp]]
                vals += [-1.0 / self.dtheta, 1.0 / self.dtheta]
                cvals.append(cell * cr[i])
                edge += 1
        D = sp.csr_matrix((vals, (rows, cols)), shape=(edge, nr * nt))
        return (D.T @ sp.diags(np.array(cvals)) @ D).tocsr()

    def flat_dirichlet_form(self):
        """Flat Laplacian energy: (d_r f)^2 + r^-2 (d_theta f)^2."""
        return (self.radial_form() + self.angular_form(lambda r: 1.0 / r**2)).tocsr()

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


def fiber_spectrum(grid, n_modes=DEFAULT_MODES):
    """Dense generalized eigensolve of the flat Dirichlet form on a fiber grid."""
    n = grid.n_nodes
    if n_modes > grid.mode_capacity:
        raise ResolutionError(
            f"{n_modes} modes requested but the grid resolves only {grid.mode_capacity}"
        )
    if grid.q == 1:
        Q = grid.dirichlet_form()
    else:
        Q = grid.flat_dirichlet_form()
    W = np.diag(grid.weights)
    vals, vecs = scipy.linalg.eigh(Q.toarray(), W)
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
    if grid.q == 2:
        # symmetrize over the angular index: the ground state is radial, and an
        # exactly radial profile makes the rotation fields annihilate it exactly
        prof = ground.reshape(grid.n_r, grid.n_theta).mean(axis=1)
        ground = np.repeat(prof, grid.n_theta)
        ground /= math.sqrt(np.sum(grid.weights * ground**2))
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


def rotation_fields(grid_fiber):
    """Discrete rotation derivations of the fiber, one per frame pair.

    Empty in codimension 1 (no rotations of a 1-dimensional fiber)."""
    if grid_fiber.q == 1:
        return []
    return [grid_fiber.rotation_generator()]


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


def bessel_j0_first_zero(tol=1e-10):
    """First positive zero of J0 by bisection on the power series."""
    lo, hi = 2.0, 3.0
    assert bessel_j0(lo) > 0 > bessel_j0(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
