"""Heat propagators, resolvents, and the epsilon-collapse convergence study.

Every solver here works on a weighted form pencil (Q, diag(w)): the operator
is w^-1 Q, symmetric in the weighted inner product.  One spectral core,
`fourier_blocks`, splits every pencil into blocks, and only the structure
and size of the pencil choose the spectral path.

Block path.  A tube whose geometry does not change along the base (the
circle, a constant curve without torsion, the Sasaki forms of any of them,
the base Laplacian itself) gives a form that is block-circulant in the base
index.  With S the cyclic base shift (S[i, i+1] = 1) the form is

    Q = kron(I, D) + kron(S, N) + kron(S^T, N^T),   N = N^T,

so Q = kron(I, D) + kron(S + S^T, N).  The real orthonormal Fourier vectors
of the base, c_k(i) ~ cos(2 pi k i / n_base) and s_k(i) ~ sin(2 pi k i /
n_base), are eigenvectors of S + S^T with eigenvalue 2 cos(2 pi k / n_base)
(Davis, Circulant Matrices, 1979).  When the weights also repeat per base
node, w = kron(1, w_row), the pencil splits into the n_base // 2 + 1 fiber
pencils

    (B_k, diag(w_row)),   B_k = D + 2 cos(2 pi k / n_base) N,

each of size n_fiber; mode k carries c_k and s_k (one vector for k = 0 and,
for even n_base, for k = n_base / 2).  The block size is read from the form
itself: row 0 ends in the block N^T of the cyclic neighbour, and N is
diagonal for every form assembled here, so the last nonzero of row 0 sits
at column n - n_fiber.  That reading is only a guess; the pencil is split
only when the split is exact: the weights repeat bitwise, N is symmetric
and the form equals the reassembled block matrix entry for entry.  A wrong
guess costs speed, never accuracy.

Dense path.  Any other pencil is the one-block case n_base = 1, whose only
basis vector is c_0 = 1.  Up to DENSE_CUTOFF nodes it gets one dense
generalized eigendecomposition, so semigroup laws hold to solver accuracy.

Truncated path.  Above the cutoff a propagator keeps, as its one block,
only the spectrally relevant bottom of the spectrum: a mode at distance d
above the bottom contributes a factor exp(-t*d/2) <= 1e-18 over times >=
t_min and is dropped.  The propagator refuses earlier times.  eigsh starts
from a fixed vector, so reruns repeat bit for bit.

Resolvent solves are accepted by their normwise backward error against a
small multiple of the unit roundoff (BACKWARD_ERROR_BOUND), which does not
grow with the eps^-2 conditioning of the renormalized operator.

The studies take a built grid and its fiber spectrum and never rebuild them.
Every tube-versus-limit comparison (convergence_sweep, the Sasaki-limit
check of suites, acceptance criterion 3) is one call of collapse_errors:
one renormalized operator and one propagator per eps, the limit flow once
per time.  conditional_flow_operator likewise builds one propagator per eps
for all its times.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import discretize, fiber as fiber_mod, geometry
from .errors import CoercivityViolation, DegenerateConditioning, ResolutionError

DENSE_CUTOFF = 2600

UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Largest accepted normwise backward error of a resolvent solve,
#   eta = |A f - b|_inf / (|A|_inf |f|_inf + |b|_inf)
# (Rigal & Gaches 1967; Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, Thm 7.1).  Cholesky and sparse LU are backward stable,
# so a correct solve leaves eta at a few u however ill-conditioned A is, and
# forming A f - b adds at most (m + 1) u with m <= 7 nonzeros per row of A
# (Higham 2002, Sec. 3.5).  Measured on every spectral path, grids up to
# 512x127 and eps down to 0.00625: eta <= 3 u, while the relative residual
# grows like eps^-2 (to 7.9e-9).  One Fourier block left unsolved gives
# eta >= 7.7e-5.
BACKWARD_ERROR_BOUND = 32 * UNIT_ROUNDOFF


def _start_vector(n):
    """Fixed eigsh start vector: reruns repeat and no mode is left out."""
    return np.random.Generator(np.random.Philox(key=0)).standard_normal(n)


class FourierBlocks:
    """A pencil in the real Fourier basis of its base, one block per mode.

    blocks[k] is B_k of the module docstring.  Fields move between nodes and
    modes as arrays of shape (n_base // 2 + 1, 2, n_fiber): row [k, 0] holds
    the c_k coefficients, row [k, 1] the s_k ones (zero where s_k is absent).
    A pencil without base structure is the one-block case n_base = 1: its
    block is the whole form, kept sparse until `blocks` is first read, and
    its modes have the one row of c_0 = 1."""

    def __init__(self, blocks, w_row, n_base):
        self.n_base = n_base
        self.w_row = w_row
        self._blocks = blocks
        k = np.arange(n_base // 2 + 1)
        # basis[:, k, 0] = c_k, basis[:, k, 1] = s_k, orthonormal columns
        angle = 2.0 * np.pi * np.outer(np.arange(n_base), k) / n_base
        basis = np.sqrt(2.0 / n_base) * np.stack([np.cos(angle), np.sin(angle)], axis=2)
        self.multiplicity = np.full(len(k), 2)
        lone = [0] if n_base % 2 else [0, n_base // 2]
        basis[:, lone, 0] /= math.sqrt(2.0)
        basis[:, lone, 1] = 0.0
        self.multiplicity[lone] = 1
        self.basis = basis[:, :, : min(n_base, 2)].reshape(n_base, -1)

    @property
    def blocks(self):
        if sp.issparse(self._blocks):
            self._blocks = self._blocks.toarray()[None]
        return self._blocks

    @property
    def path(self):
        """The spectral path of the pencil (module docstring)."""
        if self.n_base > 1:
            return "block"
        return "dense" if len(self.w_row) <= DENSE_CUTOFF else "truncated"

    def to_modes(self, f):
        g = self.basis.T @ np.asarray(f).reshape(self.n_base, -1)
        return g.reshape(len(self.multiplicity), -1, len(self.w_row))

    def from_modes(self, g):
        return (self.basis @ g.reshape(self.basis.shape[1], -1)).ravel()

    def eigh(self, eigvals_only=False):
        """Per-block generalized eigenpairs of (B_k, diag(w_row)), stacked;
        eigenvectors are diag(w_row)-orthonormal."""
        W = np.diag(self.w_row)
        pairs = [scipy.linalg.eigh(B, W, eigvals_only=eigvals_only) for B in self.blocks]
        if eigvals_only:
            return np.array(pairs)
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

    def spectrum(self, block_vals):
        """All eigenvalues of the full pencil, ascending, with multiplicity."""
        return np.sort(np.repeat(block_vals, self.multiplicity, axis=0).ravel())


def fourier_blocks(form, weights):
    """FourierBlocks of the pencil (form, diag(weights)): split over the base
    when the form is exactly block-circulant with a symmetric neighbour
    block, the block size read from row 0 (module docstring); else the whole
    pencil as one block."""
    weights = np.asarray(weights, dtype=float)
    Q = sp.csr_matrix(form)
    n = len(weights)
    row0 = Q[0].nonzero()[1]
    nf = n - row0.max() if len(row0) else n
    n_base = n // nf
    if n_base >= 3 and n % nf == 0:
        w = weights.reshape(n_base, nf)
        D = Q[:nf, :nf].toarray()
        N = Q[:nf, nf : 2 * nf].toarray()
        if np.array_equal(w, np.broadcast_to(w[0], w.shape)) and np.array_equal(N, N.T):
            S = sp.eye(n_base, k=1) + sp.eye(n_base, k=1 - n_base)
            rebuilt = sp.kron(sp.identity(n_base), D) + sp.kron(S, N) + sp.kron(S.T, N.T)
            if not (Q != rebuilt).nnz:
                k = np.arange(n_base // 2 + 1)
                blocks = D + 2.0 * np.cos(2.0 * np.pi * k / n_base)[:, None, None] * N
                return FourierBlocks(blocks, w[0].copy(), n_base)
    return FourierBlocks(Q, weights, 1)


def pencil_eigenvalues(form, weights):
    """All eigenvalues of the pencil (form, diag(weights)), ascending."""
    blocks = fourier_blocks(form, weights)
    return blocks.spectrum(blocks.eigh(eigvals_only=True))


class Propagator:
    """exp(-t * A / 2) for the operator of a weighted form pencil.

    The structure is read from the pencil (fourier_blocks); `path` names the
    spectral path it selects (module docstring): "block", "dense" (the one
    block of a pencil without base structure) or "truncated" (one block of
    the bottom eigenpairs).  Eigenvalues and eigenvectors are stacked per
    block (FourierBlocks.eigh)."""

    def __init__(self, form, weights, t_min=0.05):
        self.weights = np.asarray(weights, dtype=float)
        n = len(self.weights)
        self.t_min = t_min
        self.blocks = fourier_blocks(form, self.weights)
        self.path = self.blocks.path
        if not self.truncated:
            self.eigenvalues, self.eigenvectors = self.blocks.eigh()
            return
        # keep the bottom of the spectrum; modes further than `span` above
        # the minimum are invisible at times >= t_min in double precision
        span = 2.0 * 41.0 / t_min
        Qc = form.tocsc()
        M = sp.diags(self.weights).tocsc()
        rowsum = np.asarray(abs(Qc).sum(axis=1)).ravel()
        diag = Qc.diagonal()
        lower = float(np.min((diag - (rowsum - np.abs(diag))) / self.weights))
        k = min(max(64, n // 50), n - 2)
        v0 = _start_vector(n)
        while True:
            vals, vecs = spla.eigsh(Qc, k=k, M=M, sigma=lower - 1.0, which="LM", v0=v0)
            order = np.argsort(vals)
            vals, vecs = vals[order], vecs[:, order]
            if vals[-1] - vals[0] >= span or k >= n - 2:
                break
            k = min(2 * k, n - 2)
        self.eigenvalues, self.eigenvectors = vals[None], vecs[None]

    @property
    def truncated(self):
        return self.path == "truncated"

    def apply(self, t, f):
        if t < 0:
            raise ValueError("time must be nonnegative")
        if self.truncated and t < self.t_min:
            raise ValueError(
                f"time {t} below t_min={self.t_min} of a truncated propagator"
            )
        decay = np.exp(-0.5 * t * self.eigenvalues)
        U = self.eigenvectors
        coef = (self.blocks.to_modes(f) * self.blocks.w_row) @ U
        return self.blocks.from_modes((decay[:, None, :] * coef) @ U.transpose(0, 2, 1))


def base_laplacian(grid):
    """(form, weights) of the Laplacian on the base circle alone."""
    if grid.n_base == 1:
        return sp.csr_matrix((1, 1)), grid.base_w
    Db = discretize._base_difference(grid)
    Q = (Db.T @ sp.diags(np.full(grid.n_base, grid.base_h)) @ Db).tocsr()
    return Q, grid.base_w


def limit_propagate(grid, spectrum, t_grid, f):
    """Limit semigroup at each time of t_grid, shape (len(t_grid), grid.n):
    project f to the ground fiber state once, run the base heat flow."""
    Qb, wb = base_laplacian(grid)
    base_prop = Propagator(Qb, wb)
    fb = fiber_mod.extract_fb(grid, spectrum, f)
    return np.array([np.outer(base_prop.apply(t, fb), spectrum.ground_state).ravel()
                     for t in t_grid])


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


def phi_functional(op_h0, alpha, w_field, f):
    """The quadratic functional whose unique minimizer is the resolvent."""
    f = np.asarray(f)
    g = op_h0.grid
    return 0.5 * (op_h0.form_value(f) + alpha * g.inner(f, f)) - g.inner(w_field, f)


def _coercive(mineig):
    if mineig <= 0:
        raise CoercivityViolation(
            f"shifted operator indefinite (min eigenvalue {mineig:.3e}); "
            "epsilon is outside the coercive range"
        )
    return mineig


def resolvent_minimizer(op_h0, alpha, w_field):
    """Minimize phi, i.e. solve (H0 + alpha) f = w in the weighted sense.

    The structure is read from the pencil (fourier_blocks).  Up to
    DENSE_CUTOFF nodes, or at any size when the base splits it, the minimum
    eigenvalue is the least over the blocks (one block for a dense pencil)
    and each block is solved by its own Cholesky factor; above the cutoff a
    pencil without base structure gets one shift-invert eigsh for the
    minimum eigenvalue and one sparse solve.  The solve is accepted when the
    normwise backward error of A f = b, with A = form + alpha diag(w) the
    assembled sparse matrix and b = w * w_field, is at most
    BACKWARD_ERROR_BOUND; info reports it as "backward_error" (0.0 for a
    zero datum) next to the weighted relative "residual", which is not
    checked.  Raises CoercivityViolation when the shifted
    pencil is not positive definite (epsilon outside the coercive range),
    ResolutionError when the backward error is above the bound or not
    finite."""
    g = op_h0.grid
    W = sp.diags(g.weights)
    A = (op_h0.form + alpha * W).tocsc()
    n = A.shape[0]
    blocks = fourier_blocks(op_h0.form, g.weights)
    rhs = g.weights * np.asarray(w_field)
    if blocks.path == "truncated":
        mineig = _coercive(float(
            spla.eigsh(
                A, k=1, M=W.tocsc(), sigma=-1e3, which="LM",
                return_eigenvectors=False, v0=_start_vector(n),
            )[0]
        ))
        f = spla.spsolve(A, rhs)
    else:
        W_row = np.diag(blocks.w_row)
        shifted = blocks.blocks + alpha * W_row
        mineig = _coercive(min(
            float(scipy.linalg.eigh(B, W_row, eigvals_only=True, subset_by_index=[0, 0])[0])
            for B in shifted
        ))
        modes = blocks.to_modes(rhs)
        for k, block in enumerate(shifted):
            factor = scipy.linalg.cho_factor(block)
            # a non-finite datum propagates to the backward-error check
            modes[k] = scipy.linalg.cho_solve(factor, modes[k].T, check_finite=False).T
        f = blocks.from_modes(modes)
    Af = A @ f
    rel = g.norm(Af / g.weights - np.asarray(w_field)) / max(g.norm(w_field), 1e-300)
    r = np.max(np.abs(Af - rhs))
    scale = spla.norm(A, np.inf) * np.max(np.abs(f)) + np.max(np.abs(rhs))
    if not r <= BACKWARD_ERROR_BOUND * scale:  # NaN fails too; a zero datum passes
        raise ResolutionError(
            f"resolvent backward error {r / scale:.3e} above {BACKWARD_ERROR_BOUND:.3e} "
            f"({BACKWARD_ERROR_BOUND / UNIT_ROUNDOFF:.0f} u)"
        )
    info = {"residual": rel, "min_eigenvalue": mineig, "spectral_path": blocks.path}
    info["backward_error"] = float(r / scale) if scale else 0.0
    return f, info


def resolvent_limit(grid, spectrum, alpha, w_field):
    """Ground-band limit of the resolvent: the base resolvent
    (base Laplacian + alpha)^-1 of the projected datum, lifted by the fiber
    ground state."""
    Qb, wb = base_laplacian(grid)
    fb = fiber_mod.extract_fb(grid, spectrum, w_field)
    gb = spla.spsolve((Qb + alpha * sp.diags(wb)).tocsc(), wb * fb)
    return np.outer(gb, spectrum.ground_state).ravel()


def resolvent_study(grid, spectrum, eps_list, alpha, w_field, rng, n_perturbations, delta):
    """Resolvent collapse study: per eps, the L2 distance from the solution f
    of (H0(eps) + alpha) f = w_field to resolvent_limit, and a test of f as
    the minimizer of phi_functional against n_perturbations random
    perturbations of norm delta drawn from rng.  Returns (errors, infos,
    variational_ok): the errors and resolvent_minimizer infos per eps, and
    whether no perturbation lowered phi."""
    limit = resolvent_limit(grid, spectrum, alpha, w_field)
    errors, infos, variational_ok = [], [], True
    for eps in eps_list:
        h0 = discretize.renormalize(grid, "H", eps, spectrum.lambda0)
        f, info = resolvent_minimizer(h0, alpha, w_field)
        base_phi = phi_functional(h0, alpha, w_field, f)
        for _ in range(n_perturbations):
            d = rng.standard_normal(grid.n)
            d *= delta / grid.norm(d)
            if phi_functional(h0, alpha, w_field, f + d) <= base_phi:
                variational_ok = False
        errors.append(grid.norm(f - limit))
        infos.append(info)
    return errors, infos, variational_ok


# ---------------------------------------------------------------------------
# conditioned flow (operator route)
# ---------------------------------------------------------------------------


def conditional_flow_operator(grid, spectrum, eps, T, times, f_base):
    """Two-sided heat-flow ratio giving the conditioned marginal on the base.

    f_base: values of the observable on the base nodes (lifted fiberwise).
    Returns the ratio field on the submanifold (fiber center) at each time,
    shape (len(times), n_base), from one propagator and one survival flow."""
    if not all(0 <= t <= T for t in times):
        raise ValueError("need 0 <= t <= T")
    h0 = discretize.renormalize(grid, "H", eps, spectrum.lambda0)
    propagator = Propagator(h0.form, h0.weights)

    def flow(s, g):
        # time zero is the identity, exactly
        return g if s == 0 else propagator.apply(s, g)

    nodes = geometry.TubePoint(grid.base_x[:, None], grid.fiber.node_w()[None], eps)
    sqrt_rho = np.sqrt(geometry.density_rho(grid.model, nodes)).ravel()
    f_lift = np.repeat(f_base, grid.n_fiber)
    jc = grid.fiber.center_index()
    den_c = grid.reshape(flow(T, sqrt_rho))[:, jc]
    if np.any(np.abs(den_c) < 1e-12):
        raise DegenerateConditioning("survival factor vanishes on the base")
    # at t = 0 the ratio is f_base itself; f * den / den would round
    return np.array([
        grid.reshape(flow(t, f_lift * flow(T - t, sqrt_rho)))[:, jc] / den_c if t else f_base
        for t in times
    ], dtype=float)


# ---------------------------------------------------------------------------
# convergence sweep
# ---------------------------------------------------------------------------


# norm name -> Sobolev order (discretize.sobolev_norm)
NORMS = {"L2": 0, "H1": 1, "H2": 2}


def collapse_errors(grid, spectrum, which, eps_list, t_grid, f, order=0):
    """errors[i, j, k] = |P_t^eps f - P_t^0 f|_k, the Sobolev norm of order
    k = 0..order (discretize.sobolev_norm) of the distance from the flow of
    the renormalized operator `which` ("HSa" or "H") at eps = eps_list[i] to
    the limit flow, at t = t_grid[j].  Returns (errors, paths, seconds): the
    spectral path and the seconds of each eps."""
    limit = limit_propagate(grid, spectrum, t_grid, f)
    errors = np.empty((len(eps_list), len(t_grid), order + 1))
    paths, seconds = [], []
    for i, eps in enumerate(eps_list):
        t0 = time.perf_counter()
        op = discretize.renormalize(grid, which, eps, spectrum.lambda0)
        prop = Propagator(op.form, op.weights, t_min=float(np.min(t_grid)))
        paths.append(prop.path)
        for j, t in enumerate(t_grid):
            diff = prop.apply(t, f) - limit[j]
            errors[i, j] = [discretize.sobolev_norm(grid, diff, k) for k in range(order + 1)]
        seconds.append(time.perf_counter() - t0)
    return errors, paths, seconds


@dataclass
class SweepResult:
    eps_list: list
    t_grid: np.ndarray
    errors: np.ndarray       # (eps, t, norm) as collapse_errors, norms in NORMS order
    fitted_order: float
    r_squared: float
    runtimes: list           # seconds per eps
    spectral_paths: list     # Propagator.path per eps
    spatial_error_estimate: float | None = None
    pre_check_spectral_path: str | None = None

    @property
    def sup_errors(self):
        """norm -> sup over time of the error, an array over eps."""
        return {nm: self.errors[:, :, k].max(axis=1) for nm, k in NORMS.items()}

    def rows(self):
        """[eps, t, err_L2, err_H1, err_H2] per (eps, t), eps-major."""
        return [[eps, float(t)] + self.errors[i, j].tolist()
                for i, eps in enumerate(self.eps_list) for j, t in enumerate(self.t_grid)]


def default_t_grid(n=10, t_min=0.1, t_max=1.0):
    return np.linspace(t_min, t_max, n)


def default_sweep_field(grid, spectrum):
    """phi0 times (1 + cos(theta)/2) on the base circle."""
    fb = 1.0 + 0.5 * np.cos(grid.base_angle)
    return np.outer(fb, spectrum.ground_state).ravel()


def _loglog_fit(eps, err):
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(err, dtype=float))
    p, b = np.polyfit(x, y, 1)
    yhat = p * x + b
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(p), r2


def convergence_sweep(grid, spectrum, eps_list, t_grid=None, pre_check=False):
    """Collapse study: propagate default_sweep_field under the renormalized
    tube operator and compare against the limit semigroup in the L2, H1 and
    H2 norms, over a decreasing epsilon list.

    With pre_check the coarsest eps is rerun on discretize.refined_grid(grid);
    the change in its sup L2 error is the spatial error estimate, and an
    estimate above a tenth of that error raises ResolutionError."""
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    t_grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    u = default_sweep_field(grid, spectrum)
    errors, paths, runtimes = collapse_errors(
        grid, spectrum, "H", eps_list, t_grid, u, order=max(NORMS.values())
    )
    p, r2 = _loglog_fit(eps_list, errors[:, :, NORMS["L2"]].max(axis=1))
    result = SweepResult(eps_list, t_grid, errors, p, r2, runtimes, paths)
    if pre_check:
        fine = discretize.refined_grid(grid)
        fine_spectrum = fiber_mod.fiber_spectrum(fine.fiber)
        fine_errors, (result.pre_check_spectral_path,), _ = collapse_errors(
            fine, fine_spectrum, "H", eps_list[:1], t_grid,
            default_sweep_field(fine, fine_spectrum),
        )
        coarsest = float(result.sup_errors["L2"][0])
        spatial = abs(coarsest - float(fine_errors[0, :, 0].max()))
        if spatial > coarsest / 10.0:
            raise ResolutionError(
                f"spatial error estimate {spatial:.3e} above a tenth of the "
                f"coarsest model error {coarsest:.3e}; refine the grid"
            )
        result.spatial_error_estimate = spatial
    return result
