"""Fermi-coordinate geometry of unit-radius tubes around a closed submanifold.

A point of the rescaled tube is a base coordinate together with a normal
vector W of length at most one; the physical displacement is eps * W.
All metric data is expressed in the block basis (tangent frame, normal
frame) at the base point, after the fiber rescaling that maps the
shrinking tube onto the fixed unit tube.  Conventions:

* the Laplacian is the geometer's nonnegative one, Delta = -d*d, so the
  flat radial potential of an annulus is U = -1/(4 r^2);
* base coordinates are arc length, so the base cometric block is the
  identity on the submanifold itself;
* the normal frame along a space curve co-rotates with it: it is the
  Frenet frame (N, B), so the curvature vector is (kappa, 0).  With
  N' = -kappa T + tau B and B' = -tau N, the coordinate field d_s of the
  tube has the normal part eps * tau * d_theta, d_theta = w1 d_w2 - w2 d_w1;
  the horizontal lift X = d_s - tau d_theta is orthogonal to the fibers,
  so the metric blocks below carry no cross term and the torsion enters
  only through X (discretize).

Every operation takes arrays of points.  Base coordinates may have any
shape and fiber coordinates have shape (..., q); the two broadcast against
each other, and results are stacked over the broadcast leading axes, so a
whole grid quantity is one call and a single point is the zero-dimensional
case.  Every check applies to every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FocalRadiusExceeded

_DEGENERACY_TOL = 1e-12
# arc-length samples of the ellipse parametrization
ARC_SAMPLES = 4096


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleInPlane:
    """Circle of the given radius in the flat plane (codimension 1)."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def dim_base(self):
        return 1

    @property
    def codim(self):
        return 1

    @property
    def base_length(self):
        return 2.0 * math.pi * self.radius


class CurveInSpace:
    """Closed arc-length curve in flat 3-space (codimension 2).

    kappa and tau are callables of arc length.  The normal frame is the
    co-rotating one of the module docstring, which closes up for any total
    torsion."""

    def __init__(self, kappa, tau, length):
        if length <= 0:
            raise ValueError("length must be positive")
        self.kappa = kappa
        self.tau = tau
        self.length = float(length)

    @property
    def dim_base(self):
        return 1

    @property
    def codim(self):
        return 2

    @property
    def base_length(self):
        return self.length

    def curvature_vector(self, s):
        """Normal-frame components of the curvature vector at arc length s,
        shape s.shape + (2,)."""
        s = np.asarray(s, dtype=float)
        kap = np.broadcast_to(np.asarray(self.kappa(np.mod(s, self.length)), dtype=float), s.shape)
        return np.stack([kap, np.zeros_like(kap)], axis=-1)


def constant_curve(kappa0, tau0, length):
    return CurveInSpace(lambda s: kappa0, lambda s: tau0, length)


def ellipse_curve(a, b):
    """Planar ellipse with semi-axes a, b, re-parametrized by arc length."""
    u = np.linspace(0.0, 2.0 * math.pi, ARC_SAMPLES + 1)
    speed = np.sqrt((a * np.sin(u)) ** 2 + (b * np.cos(u)) ** 2)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(u))])
    length = float(s[-1])
    kappa_u = a * b / ((a * np.sin(u)) ** 2 + (b * np.cos(u)) ** 2) ** 1.5

    def kappa(sv):
        return np.interp(np.mod(sv, length), s, kappa_u)

    return CurveInSpace(kappa, lambda sv: 0.0, length)


class SyntheticFiberModel:
    """Fiber-only model (a point base) with prescribed constant ambient
    curvature components c[mu, alpha, nu, beta] = <R(e_mu, e_alpha) e_nu, e_beta>.

    Exists to exercise the curvature coupling in isolation; the metric is the
    exact inversion of the second-order truncated Jacobi endomorphism.
    """

    def __init__(self, codim=2, curvature=0.0):
        if codim < 2:
            raise ValueError("synthetic fiber model needs codimension >= 2")
        self.codim_value = int(codim)
        q = self.codim_value
        c = np.asarray(curvature, dtype=float)
        if c.ndim == 0:
            if q != 2:
                raise ValueError("scalar curvature shorthand only for codim 2")
            comp = np.zeros((2, 2, 2, 2))
            val = float(c)
            # single independent component <R(e2,e1)e2,e1> = val
            comp[1, 0, 1, 0] = val
            comp[0, 1, 0, 1] = val
            comp[1, 0, 0, 1] = -val
            comp[0, 1, 1, 0] = -val
            c = comp
        if c.shape != (q, q, q, q):
            raise ValueError("curvature tensor has wrong shape")
        if not (
            np.allclose(c, -np.transpose(c, (1, 0, 2, 3)))
            and np.allclose(c, -np.transpose(c, (0, 1, 3, 2)))
            and np.allclose(c, np.transpose(c, (2, 3, 0, 1)))
        ):
            raise ValueError("curvature components violate the symmetries")
        self.curvature = c

    @property
    def dim_base(self):
        return 0

    @property
    def codim(self):
        return self.codim_value

    @property
    def base_length(self):
        return 0.0

    @property
    def pair_component(self):
        """The single independent component for codim 2."""
        if self.codim_value != 2:
            raise NotImplementedError("only defined for codimension 2")
        return float(self.curvature[1, 0, 1, 0])

    def curvature_operator(self, w):
        """Matrix of V -> R(W, V) W in the normal frame, shape w.shape + (q,)."""
        w = np.asarray(w, dtype=float)
        # M[..., beta, alpha] = w_mu w_nu c[mu, alpha, nu, beta]
        return np.einsum("...m,...n,manb->...ba", w, w, self.curvature)


# ---------------------------------------------------------------------------
# points and metric containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TubePoint:
    """Points of the rescaled unit tube.

    base: arc-length coordinates on the submanifold, any shape (ignored for
    fiber-only models).  w: normal-frame components, shape (..., q), each
    with |w| <= 1; base and w broadcast against each other.  epsilon: tube
    radius.
    """

    base: np.ndarray
    w: np.ndarray
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "w", np.atleast_1d(np.asarray(self.w, dtype=float)))
        np.broadcast_shapes(self.base.shape, self.w.shape[:-1])  # ValueError if not
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if np.any(np.linalg.norm(self.w, axis=-1) > 1.0 + 1e-9):
            raise ValueError("fiber coordinate outside the unit ball")


@dataclass(frozen=True)
class CometricAt:
    """Cometric blocks in the (tangent, normal) frame, after the fiber
    rescaling of covectors, stacked over the points: (..., l, l),
    (..., q, q) and (..., l, q)."""

    horizontal: np.ndarray
    vertical: np.ndarray
    cross: np.ndarray

    def full(self):
        l = self.horizontal.shape[-1]
        q = self.vertical.shape[-1]
        g = np.zeros(self.vertical.shape[:-2] + (l + q, l + q))
        g[..., :l, :l] = self.horizontal
        g[..., l:, l:] = self.vertical
        g[..., :l, l:] = self.cross
        g[..., l:, :l] = np.swapaxes(self.cross, -1, -2)
        return g


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def weingarten(model, base, w):
    """Shape operator A_W on the tangent space, W = sum_i w_i n_i.

    Sign convention is frozen against the annulus: for the circle of radius R
    and W the outward unit normal, A_W = [-1/R] (the tube's horizontal metric
    coefficient grows outward as 1 + eps*s/R)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    shape = np.broadcast_shapes(np.shape(base), w.shape[:-1])
    if isinstance(model, CircleInPlane):
        return np.broadcast_to(-w[..., 0] / model.radius, shape)[..., None, None]
    if isinstance(model, CurveInSpace):
        return model.curvature_vector(base)[..., None, :] @ w[..., :, None]
    if isinstance(model, SyntheticFiberModel):
        return np.zeros(shape + (0, 0))
    raise NotImplementedError(f"unsupported model kind: {type(model).__name__}")


def jacobi_endomorphism(model, base, w, eps):
    """Block matrix of the tube-metric endomorphism at displacement eps*W.

    Flat models give the exact closed form; the synthetic model gives the
    second-order truncation with the cubic remainder set to zero.  Raises
    FocalRadiusExceeded when the endomorphism degenerates at any point."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if isinstance(model, (CircleInPlane, CurveInSpace)):
        q = model.codim
        a_w = weingarten(model, base, w)[..., 0, 0]
        A = np.broadcast_to(np.eye(1 + q), a_w.shape + (1 + q, 1 + q)).copy()
        A[..., 0, 0] = 1.0 - eps * a_w
        if np.any(A[..., 0, 0] <= _DEGENERACY_TOL):
            raise FocalRadiusExceeded(
                f"horizontal block {np.min(A[..., 0, 0]):.3e} degenerate at eps={eps}"
            )
        return A
    if isinstance(model, SyntheticFiberModel):
        q = model.codim
        shape = np.broadcast_shapes(np.shape(base), w.shape[:-1])
        A = np.eye(q) + (eps**2 / 6.0) * model.curvature_operator(w)
        A = np.broadcast_to(A, shape + (q, q))
        if np.min(np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))) <= _DEGENERACY_TOL:
            raise FocalRadiusExceeded("truncated endomorphism degenerate")
        return A
    raise NotImplementedError(f"unsupported model kind: {type(model).__name__}")


def cometric(model, point):
    """Induced cometric blocks at tube points, fiber-rescaled: the exact
    inversion of A^T A with the covector rescaling (eta_tan, eps^-1 eta_norm).
    The Sasaki cometric (identity horizontal, eps^-2 identity vertical) needs
    no evaluation; discretize assembles its form as V / eps^2 + H."""
    eps = point.epsilon
    l = model.dim_base
    q = model.codim
    A = jacobi_endomorphism(model, point.base, point.w, eps)
    G = np.swapaxes(A, -1, -2) @ A
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError as exc:
        raise FocalRadiusExceeded("tube metric singular") from exc
    scale = np.concatenate([np.ones(l), np.full(q, 1.0 / eps)])
    full = Ginv * np.outer(scale, scale)
    return CometricAt(full[..., :l, :l], full[..., l:, l:], full[..., :l, l:])


def density_rho(model, point):
    """Radon-Nikodym density of the induced volume against the reference
    product volume; equals 1 on the submanifold itself."""
    A = jacobi_endomorphism(model, point.base, point.w, point.epsilon)
    rho = np.linalg.det(A)
    if not np.all(rho > 0):
        raise FocalRadiusExceeded("volume density not positive")
    return rho
