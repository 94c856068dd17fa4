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
branches on the fiber type.  A form is the Gram matrix of 1-D difference
stencils (forms.Form.gram, forms.kron): coefficient times squared one-sided
difference summed over the edges, which makes every operator symmetric and
positive semidefinite in the grid's weighted inner product by construction.

The continuum references of the spectra (FiberSpectrum.references) are
closed forms on the interval and squared zeros of the Bessel functions J_m
on the disc, computed here in numpy alone (bessel_zeros).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .forms import Form, kron

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
        extreme node to its wall; differences are divided by edge length.
        Edge e < n ends at node e (edge 0 comes from the left wall); the
        right wall's edge n touches node n - 1 alone."""
        n, h = self.n, self.h
        lens = np.full(n + 1, h)
        lens[0] = lens[-1] = 0.5 * h
        mids = np.concatenate([[-1.0 + 0.25 * h], self.s[:-1] + 0.5 * h, [1.0 - 0.25 * h]])
        weight = (vertical or _flat)(mids[:, None])[:, 0, 0] * lens
        D = Form(n, {0: 1.0 / lens[:-1], -1: np.append(0.0, -1.0 / lens[1:-1])})
        wall = np.zeros(n)
        wall[-1] = -1.0 / lens[-1]
        return D.gram(weight[:-1]) + Form.diagonal(wall).gram(weight[-1])


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
        # the last ring's radial edge ends on the wall; D_t is cyclic
        D_r = Form(nr, {0: -1.0 / h, 1: np.append(np.full(nr - 1, 1.0 / h), 0.0)})
        D_t = Form(nt, {0: -1.0 / dt, 1: 1.0 / dt})
        # edge weight g * (h * r * dt), grouped so: the tests' edge-by-edge
        # reference, and every result file, rest on these bits
        radial = kron(D_r, Form.identity(nt)).gram(
            np.repeat(g_edge[:, 0, 0] * (h * r_edge * dt), nt)
        )
        angular = kron(Form.identity(nr), D_t).gram(
            np.repeat(g_ring[:, 1, 1] / self.r**2 * (h * self.r * dt), nt)
        )
        return radial + angular

    def rotation_generator(self):
        """Centered-difference matrix of the rotation derivation -d_theta.

        Circulant in the angular index, hence it commutes exactly with every
        other angular-difference operator on the same grid, and the sign is
        fixed so that applying it to w1 gives (a discretization of) w2."""
        # entry -1/(2h) at j+1 and +1/(2h) at j-1 is the centered -d_theta
        Dt = Form(self.n_theta, {1: -1.0 / (2 * self.dtheta), -1: 1.0 / (2 * self.dtheta)})
        return kron(Form.identity(self.n_r), Dt)


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
    Within a multiplet of more than one member the columns are an arbitrary
    basis, so nothing outside this class reads one of them: the excited
    band is read through excited_profile.
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

    @property
    def excited_profile(self):
        """The weighted projection of w_1 * ground_state onto the first
        excited eigenspace (the span of multiplets[1]), normalized.

        A projection onto a span does not depend on the basis chosen inside
        it (Kato 1995, ch. II), so neither does the profile.  On a one-member
        multiplet it is that column times +-1.0, bit for bit."""
        V = self.eigenfunctions[:, self.multiplets[1]]
        c = (self.grid.weights * self.grid.node_w()[:, 0] * self.ground_state) @ V
        return V @ (c / np.linalg.norm(c))

    def references(self):
        """Continuum references, one per computed eigenvalue: ((k+1) pi/2)^2
        on the interval; on the disc the squared Bessel zeros j_{m,k}^2
        ascending, twice for m >= 1 (the modes cos and sin m theta).

        Every disc level below x^2 has an order m < x, since j_{m,1} > m;
        so the levels of the orders below x, cut at x, are all of them, and
        x doubles until they number n."""
        n = len(self.eigenvalues)
        if self.q == 1:
            return {"analytic": [((k + 1) * math.pi / 2.0) ** 2 for k in range(n)]}
        x = 4.0
        while True:
            levels = np.sort(np.concatenate([
                np.repeat(bessel_zeros(m, x) ** 2, 2 if m else 1) for m in range(math.ceil(x))
            ]))
            if len(levels) >= n:
                return {"analytic": levels[:n].tolist()}
            x *= 2.0


def _bessel_j(m, x):
    """J_m(x) for an integer order m and an array x >= 0: the mean of
    cos(m tau - x sin tau) over n equispaced tau in [0, 2 pi).

    The mean is J_m(x) plus the aliased orders J_{m + k n}(x), k != 0
    (the Fourier series of exp(-i x sin tau)), the largest J_{n - |m|}(x).
    With n - |m| = nu > 2 x + 30, |J_nu(x)| <= (x/2)^nu / nu! <=
    (e x / (2 nu))^nu (Abramowitz & Stegun 9.1.62, Stirling) is below
    1e-28 for every x, so the rule is exact to roundoff (Trefethen &
    Weideman 2014)."""
    x = np.asarray(x, dtype=float)
    n = int(2.0 * np.max(x, initial=0.0)) + abs(m) + 31
    tau = (2.0 * math.pi / n) * np.arange(n)
    return np.cos(m * tau - x[..., None] * np.sin(tau)).mean(axis=-1)


def bessel_zeros(m, below):
    """The positive zeros of J_m below `below`, ascending, m >= 0.

    They lie past x = m (j_{m,1} > m) and more than 3 apart (Abramowitz &
    Stegun 9.5), so each is alone in a unit interval between integers from
    m on, bracketed by a sign change there; below m, J_m is so small that
    roundoff could fake a sign change, so no bracket starts there.  The
    secant point of the bracket starts Newton with J_m' = (J_{m-1} -
    J_{m+1}) / 2, each step kept in the bracket; three steps reach roundoff
    (measured), five run."""
    ends = np.arange(m, math.ceil(below) + 1.0)
    f = _bessel_j(m, ends)
    i = np.flatnonzero(np.diff(np.signbit(f)))
    a, b = ends[i], ends[i + 1]
    x = a - f[i] * (b - a) / (f[i + 1] - f[i])
    for _ in range(5):
        step = 2.0 * _bessel_j(m, x) / (_bessel_j(m - 1, x) - _bessel_j(m + 1, x))
        x = np.clip(x - step, a, b)
    return x[x < below]


def weighted_eigh(B, w, eigvals_only=False):
    """Generalized eigenpairs of the Hermitian pencil (B, diag(w)), w > 0,
    for one matrix B or a stack of them sharing w: one eigh of B scaled by
    L^-1 on both sides, L = diag(w)^1/2.  Eigenvalues ascend; eigenvectors
    are columns, diag(w)-orthonormal.  The lower triangle is scaled in
    LAPACK's own order (xSYGS2, and xSYGST below its block size), so small
    pencils keep the bits of the generalized driver xSYGVD."""
    root = np.sqrt(w)
    scaled = B * (1.0 / root)
    scaled /= root[:, None]
    diag = np.arange(len(root))
    scaled[..., diag, diag] = B[..., diag, diag] / root**2
    if eigvals_only:
        return np.linalg.eigvalsh(scaled)
    vals, vecs = np.linalg.eigh(scaled)
    return vals, vecs * (1.0 / root)[:, None]


def fiber_spectrum(grid, n_modes=DEFAULT_MODES):
    """Dense generalized eigensolve of the flat Dirichlet form on a fiber grid.

    Adjacent eigenvalues within MULTIPLET_REL_TOL (relative to the upper one)
    share a multiplet; the cut after n_modes is extended to the end of its
    multiplet, so multiplets are never split."""
    n = grid.n_nodes
    if n_modes > grid.mode_capacity:
        raise ResolutionError(
            f"{n_modes} modes requested but the grid resolves only {grid.mode_capacity}"
        )
    vals, vecs = weighted_eigh(grid.vertical_form().toarray(), grid.weights)
    # the index past each multiplet, ascending, n last
    ends = np.append(np.flatnonzero(np.diff(vals) > MULTIPLET_REL_TOL * np.abs(vals[1:])) + 1, n)
    ends = ends[: np.searchsorted(ends, n_modes) + 1]
    k = int(ends[-1])
    vals, vecs = vals[:k], vecs[:, :k]
    multiplets = [list(range(a, b)) for a, b in zip([0, *ends[:-1]], ends)]
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
        """The coefficients (n_base, m) of a field, or (k, n_base, m) of a
        stack (k, n) of fields, one product per field."""
        field = np.asarray(field)
        f3 = field.reshape(-1, n_base, len(self.fiber_weights))
        coef = f3 @ (self.fiber_weights[:, None] * self.modes)
        return coef.reshape(field.shape[:-1] + coef.shape[1:])


def extract_fb(grid, spectrum, field):
    """Fiberwise ground-state coefficient: a scalar field on the base, per field."""
    proj = Projection(spectrum.ground_state[:, None], spectrum.grid.weights)
    return proj.coefficients(field, grid.n_base)[..., 0]


def project_E0(grid, spectrum, field):
    """Fiberwise rank-one projection onto the ground state, per field."""
    fb = extract_fb(grid, spectrum, field)
    return (fb[..., None] * spectrum.ground_state).reshape(np.shape(field))

