"""Heat propagators, resolvents, and the epsilon-collapse convergence study.

Every solver here works on a weighted form pencil (Q, diag(w)): the operator
is w^-1 Q, symmetric in the weighted inner product.  One spectral core,
`fourier_blocks`, splits every pencil into blocks, and only the structure
and size of the pencil choose the spectral path.

Block path.  A tube whose geometry does not change along the base (the
circle, a constant curve with or without torsion, the Sasaki forms of any
of them, the base Laplacian itself) gives a form that is block-circulant in
the base index: with S the cyclic base shift (S[i, i+1] = 1),

    Q = kron(I, D) + kron(S, N) + kron(S^T, N^T),

where torsion makes N non-symmetric (discretize).  Give the field
a c_k + b s_k, with c_k(i) ~ cos(w_k i) and s_k(i) ~ sin(w_k i) the real
orthonormal Fourier vectors of the base, w_k = 2 pi k / n_base (Davis,
Circulant Matrices, 1979), the coefficient z = a + i b.  Q maps it to the
mode-k field of coefficient B_k z, B_k = D + e^{-i w_k} N + e^{i w_k} N^T:
Hermitian, and the real D + 2 cos(w_k) N for a symmetric N and for the
modes k = 0 and, for even n_base, k = n_base / 2, which carry c_k alone.
FourierBlocks.to_modes computes every z_k of a field by numpy's real FFT
along the base, one complex row per field for every kind of block.
When the weights repeat per base node, w = kron(1, w_row), the pencil splits
into the n_base // 2 + 1 fiber pencils (B_k, diag(w_row)).  A form
(forms.Form) is held by its cyclic diagonals and knows its block size, the
fiber size of the product grid it was assembled on.  The pencil is split
only when the split is exact: the weights repeat bitwise per base node, and
so does every diagonal of the form, whose nonzero entries lie in the base
offsets 0, 1 and -1 with N^T at -1 (Form.circulant_blocks), in O(nnz).  The
cyclic layout holds the wrap-around from the last base node to the first
like any other row, so the test covers it.  Any other pencil is one block,
which costs speed, never accuracy.  Work that needs every block is one batched LAPACK
call over the stacked blocks: the spectrum (FourierBlocks.eigh, through
fiber.weighted_eigh), and the Cholesky of every shifted block, the
coercivity certificate of a resolvent (resolvent_minimizer).  A solve
(FourierBlocks.solve) is one stacked LU solve of the shifted blocks it is
asked for; a real block takes the real and imaginary parts of its
right-hand sides as real columns.  Every dense factorization here is
numpy's LAPACK.

Reach.  Q maps each base mode to itself, so a datum f touches only the
blocks it has mass in; FourierBlocks.to_modes computes that mass by the
real FFT, whose normwise error is at most about 7 log2(n_base) u |f|_W
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, Thm 24.2)
and measures about 2 u |f|_W.  A block is reached when the datum's
weighted mass in it is above n_base u |f|_W, or is not finite, so a NaN or infinite datum reaches every
block and stays visible.  Work driven by a datum (Propagator.apply, the
resolvent solve) touches only the blocks it reaches; each unreached block
changes the result by at most its mass times max(1, exp(-t lambda_min / 2))
for a propagator, lambda_min the least eigenvalue of that block, and the
largest such mass relative to |f|_W is reported as dropped_mode_norm_rel
next to the number of blocks decomposed.  Every datum the CLI propagates
lives in base modes 0 and 1, so its propagators decompose two blocks.

Caches.  One per quantity: the forms on the grid, a tube form by
(name, eps) and any other by name (discretize.assemble_form), and a
Propagator's eigenpairs by block.  Blocks are rebuilt
from D and N on demand, at O(n_fiber^2) each, below the cost of any solve
on them.

Dense path.  Any other pencil is the one-block case n_base = 1, whose only
basis vector is c_0 = 1: every synthetic-model pencil, and the library's
ellipse_curve.  It gets one dense generalized eigendecomposition, so
semigroup laws hold to solver accuracy.  Above DENSE_CUTOFF nodes
Propagator and resolvent_minimizer refuse it (ResolutionError); they alone
read the path, and pencil_eigenvalues and FourierBlocks.solve run at any
size.

Accuracy on fine grids.  An eigensolve is accurate to about u |B_k| in
each eigenvalue, and the renormalized pencil's spread grows like eps^-2.
On the 512 x 127 circle at eps = 0.00625, block 0 spans 1.6e-8 to 4.1e8,
so u |B_0| is about 5e-8, and the sweep's sup errors there (L2 about
4.1e-6) are reproducible only to about 1e-3 relative: LAPACK's generalized
drivers xSYGV and xSYGVD on each block give sup L2 errors 2.3e-3 apart,
and the diagonal scaling of fiber.weighted_eigh followed by xSYEVD lies
1.6e-4 from xSYGVD.  At that size two solvers that "agree at solver
precision" agree to about 1e-3, not 1e-9.

Resolvent solves are accepted by their normwise backward error against a
small multiple of the unit roundoff (BACKWARD_ERROR_BOUND), which does not
grow with the eps^-2 conditioning of the renormalized operator.

The studies take a built grid and its fiber spectrum and never rebuild them.
Every tube-versus-limit comparison (convergence_sweep, the Sasaki-limit
check of suites, acceptance criterion 3) is one call of collapse_errors:
one renormalized operator and one propagator per eps, and one apply of
each propagator and of the limit flow for all the times (Propagator.apply
takes a list of times: one transform of the datum each way).
conditional_flow_operator likewise builds one propagator per eps for all
its times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import discretize, fiber as fiber_mod, geometry
from .errors import CoercivityViolation, DegenerateConditioning, ResolutionError
from .forms import Form

DENSE_CUTOFF = 2600

UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Largest accepted normwise backward error of a resolvent solve,
#   eta = |A f - b|_inf / (|A|_inf |f|_inf + |b|_inf)
# (Rigal & Gaches 1967; Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, Thm 7.1).  LU with partial pivoting on the Fourier
# blocks (backward stable up to its growth factor, Higham 2002, Ch. 9,
# small on these positive definite blocks) and the orthonormal change of
# basis by the real FFT (Higham 2002, Thm 24.2) are backward stable, so a
# correct solve leaves eta at a few u however ill-conditioned A is, and
# forming A f - b adds at most (m + 1) u with m nonzeros per row of A
# (Higham 2002, Sec. 3.5): m <= 7 on an untwisted form, 17 on the twisted
# disc-fiber forms.  Measured on every spectral path, grids up to
# 512x127 and eps down to 0.00625: eta <= 4.2 u, while the relative residual
# grows like eps^-2 (to 7.9e-9).  One reached Fourier block left unsolved
# gives eta >= 7.7e-5.
BACKWARD_ERROR_BOUND = 32 * UNIT_ROUNDOFF


class FourierBlocks:
    """A pencil in the Fourier basis of its base, one block per mode.

    blocks(ks) builds the blocks B_k of the module docstring for the modes
    ks from D and N, on demand.  A field's modes are one complex row per
    block, z_k = c_k . f + i s_k . f (module docstring), computed by numpy's
    real FFT along the base: z_k = sqrt(mult_k / n_base) conj(F_k), mult_k
    the multiplicity of block k.  The layout is the same for real blocks,
    complex blocks and the one block of a pencil without base structure
    (n_base = 1, N = None, c_0 = 1), whose block D is the whole form, kept
    as a Form until it is needed.  Modes have shape (n_base // 2 + 1, m,
    n_fiber) for a stack (m, n) of fields, one row per field; from_modes
    reads m from the row count and returns one field flat."""

    def __init__(self, w_row, n_base, D, N=None):
        self.n_base = n_base
        self.w_row = w_row
        self._D, self._N = D, N
        # torsion makes N non-symmetric and the blocks complex (module docstring)
        self.complex = N is not None and not np.array_equal(N, N.T)
        # the mode 0 and, for even n_base, the mode n_base / 2 carry c_k alone
        self.multiplicity = np.where(2 * np.arange(n_base // 2 + 1) % n_base, 2, 1)
        self._scale = np.sqrt(self.multiplicity / n_base)[:, None, None]

    def blocks(self, ks=None):
        """The blocks B_k for k in ks (every block for None), stacked."""
        k = np.arange(len(self.multiplicity)) if ks is None else np.asarray(ks, dtype=int)
        if self._N is None:
            return self._D.toarray()[None][k]
        angle = 2.0 * np.pi * k / self.n_base
        D, N = self._D, self._N
        blocks = D + np.cos(angle)[:, None, None] * (N + N.T)
        if self.complex:
            # zero on the modes that carry no s_k, whose blocks are real
            sine = np.where(2 * k % self.n_base, np.sin(angle), 0.0)
            blocks = blocks - 1j * sine[:, None, None] * (N - N.T)
        return blocks

    @property
    def path(self):
        """The spectral path of the pencil (module docstring)."""
        if self.n_base > 1:
            return "block"
        if len(self.w_row) > DENSE_CUTOFF:
            raise ResolutionError(f"a pencil of {len(self.w_row)} nodes without base "
                                  f"structure is above DENSE_CUTOFF = {DENSE_CUTOFF}")
        return "dense"

    def to_modes(self, f):
        """The modes of a field or of a stack of fields (class docstring)."""
        f = np.asarray(f).reshape(-1, self.n_base, len(self.w_row))
        return self._scale * np.fft.rfft(f, axis=1).swapaxes(0, 1).conj()

    def from_modes(self, g):
        """The field, or the stack of fields, of these modes (to_modes)."""
        f = np.fft.irfft((g / self._scale).conj().swapaxes(0, 1), n=self.n_base, axis=1)
        return f.ravel() if len(f) == 1 else f.reshape(len(f), -1)

    def reach(self, modes):
        """(ks, dropped) of the datum f with these modes (to_modes).  With
        mass[k] the weighted norm of f's part in block k, so that |f|_W =
        |mass| (Parseval), block k is reached when mass[k] is above
        n_base * u * |f|_W or not finite (module docstring); ks lists the
        reached blocks, ascending, and dropped is the largest mass of an
        unreached block relative to |f|_W (0 when none is, or f = 0)."""
        mass = np.sqrt(np.einsum("krj,j->k", np.abs(modes) ** 2, self.w_row))
        norm = np.sqrt(np.sum(mass**2))
        reached = ~(np.isfinite(mass) & (mass <= self.n_base * UNIT_ROUNDOFF * norm))
        left = mass[~reached]
        dropped = float(left.max() / norm) if left.size and norm > 0 else 0.0
        return np.flatnonzero(reached), dropped

    def eigh(self, ks=None, eigvals_only=False):
        """Generalized eigenpairs of (B_k, diag(w_row)) for the blocks ks
        (every block by default), stacked, from one batched
        fiber.weighted_eigh."""
        return fiber_mod.weighted_eigh(self.blocks(ks), self.w_row, eigvals_only)

    def shifted(self, shift, ks=None):
        """The blocks B_k + shift diag(w_row) for k in ks (every block for
        None), stacked."""
        return self.blocks(ks) + shift * np.diag(self.w_row)

    def solve(self, shift, rhs, ks=None):
        """x[i] = (B_k + shift diag(w_row))^-1 rhs[i] for k = ks[i] (every
        block by default), rhs stacked over those blocks in the row layout of
        to_modes, in one stacked LU solve of the shifted blocks asked for.
        Raises LinAlgError only for an exactly singular block; coercivity is
        the caller's to certify (resolvent_minimizer).  A non-finite
        right-hand side passes through to the caller's checks."""
        A = self.shifted(shift, ks)
        b = np.ascontiguousarray(np.swapaxes(rhs, 1, 2), dtype=complex)
        if not np.iscomplexobj(A):
            # real LAPACK: the real and imaginary parts are two real columns
            return np.swapaxes(np.linalg.solve(A, b.view(float)).view(complex), 1, 2)
        # LAPACK takes another kernel for a lone column, which rounds
        # otherwise: a zero column beside it keeps each row's bits whatever
        # the width of the stack
        lone = b.shape[2] == 1
        if lone:
            b = np.concatenate([b, np.zeros_like(b)], axis=2)
        x = np.linalg.solve(A, b)
        return np.swapaxes(x[:, :, :1] if lone else x, 1, 2)

    def spectrum(self, block_vals):
        """All eigenvalues of the full pencil, ascending, with multiplicity."""
        return np.sort(np.repeat(block_vals, self.multiplicity, axis=0).ravel())


def fourier_blocks(form, weights):
    """FourierBlocks of the pencil (form, diag(weights)), form a forms.Form:
    split over the base when the weights repeat bitwise per base node and
    the form is exactly block-circulant (Form.circulant_blocks); else the
    whole pencil as one block."""
    weights = np.asarray(weights, dtype=float)
    split = form.circulant_blocks()
    if split is not None:
        w = weights.reshape(-1, form.block)
        if np.array_equal(w, np.broadcast_to(w[0], w.shape)):
            return FourierBlocks(w[0].copy(), len(w), *split)
    return FourierBlocks(weights, 1, form)


def pencil_eigenvalues(form, weights):
    """All eigenvalues of the pencil (form, diag(weights)), ascending."""
    blocks = fourier_blocks(form, weights)
    return blocks.spectrum(blocks.eigh(eigvals_only=True))


# the keys of Propagator.info, which every propagator record reports
PROPAGATOR_KEYS = ("spectral_path", "blocks_decomposed", "dropped_mode_norm_rel")


def by_key(infos, keys=PROPAGATOR_KEYS):
    """{key: [info[key] for info in infos]} for each key."""
    return {key: [info[key] for info in infos] for key in keys}


class Propagator:
    """exp(-t * A / 2) for the operator of a weighted form pencil.

    The structure is read from the pencil (fourier_blocks); `path` names the
    spectral path it selects (module docstring): "block", or "dense" for the
    one block of a pencil without base structure.  An apply works only on
    the blocks its datum reaches (FourierBlocks.reach), so its result
    depends on its t and f alone; a block is eigendecomposed
    (FourierBlocks.eigh) at the first apply that reaches it, and kept.
    `info` reports the path, the number of blocks decomposed and
    dropped_mode_norm_rel, the largest mass relative to |f|_W that an apply
    left in a block it did not reach."""

    # no path keeps only part of the spectrum; perfbench/layers.py reads this
    truncated = False

    def __init__(self, form, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.blocks = fourier_blocks(form, self.weights)
        self.path = self.blocks.path
        # block index -> (eigenvalues, eigenvectors) of each block decomposed
        self._eig = {}
        self.dropped_mode_norm_rel = 0.0

    @property
    def decomposed(self):
        """The indices of the blocks decomposed so far, ascending."""
        return np.array(sorted(self._eig), dtype=int)

    @property
    def info(self):
        """The PROPAGATOR_KEYS record of this propagator's applies so far."""
        return {"spectral_path": self.path, "blocks_decomposed": len(self._eig),
                "dropped_mode_norm_rel": self.dropped_mode_norm_rel}

    def apply(self, t, f):
        """exp(-t A / 2) f, for a field or a stack (m, n) of fields.  A list
        of times gives the flows at those times, stacked along a leading
        axis, from one transform of f each way and one reach test; each
        time's flow has the bits of the apply at that time alone."""
        times = np.asarray(t, dtype=float)
        if np.any(times < 0):
            raise ValueError("time must be nonnegative")
        modes = self.blocks.to_modes(f)
        ks, dropped = self.blocks.reach(modes)
        self.dropped_mode_norm_rel = max(self.dropped_mode_norm_rel, dropped)
        new = [int(k) for k in ks if k not in self._eig]
        if new:
            vals, vecs = self.blocks.eigh(new)
            self._eig.update(zip(new, zip(vals, vecs)))
        nk, rows, nf = modes.shape
        out = np.zeros((nk, times.size, rows, nf), dtype=complex)
        if len(ks):
            vals, U = map(np.stack, zip(*(self._eig[k] for k in ks)))
            # the forward product takes U^H
            coef = (modes[ks] * self.blocks.w_row) @ U.conj()
            # one product per block and time, so a time's bits do not
            # depend on the other times
            decay = np.exp(-0.5 * times.reshape(-1, 1, 1) * vals[:, None, None])
            out[ks] = (decay * coef[:, None]) @ U.transpose(0, 2, 1)[:, None]
        flows = self.blocks.from_modes(out.reshape(nk, -1, nf))
        return flows.reshape(times.shape + np.shape(f))


def limit_propagate(grid, spectrum, t_grid, f):
    """Limit semigroup at each time of t_grid, shape (len(t_grid), grid.n):
    project f to the ground fiber state once, run the base heat flow."""
    base_prop = Propagator(discretize.base_form(grid, 0.0), grid.base_w)
    flows = base_prop.apply(t_grid, fiber_mod.extract_fb(grid, spectrum, f))
    return (flows[:, :, None] * spectrum.ground_state).reshape(len(flows), -1)


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


def phi_functional(op_h0, alpha, w_field, f):
    """The quadratic functional whose unique minimizer is the resolvent, per field."""
    g = op_h0.grid
    return 0.5 * (op_h0.form_value(f) + alpha * g.inner(f, f)) - g.inner(w_field, f)


def resolvent_minimizer(op_h0, alpha, w_field):
    """Minimize phi, i.e. solve (H0 + alpha) f = w in the weighted sense.

    The structure is read from the pencil (fourier_blocks).  One batched
    Cholesky of every shifted block B_k + alpha diag(w_row), reached or
    not, is the coercivity certificate: it succeeds only if
    B_k + alpha diag(w_row) + E is positive definite, |E| <= c n u |B_k|
    (Higham 2002, Ch. 10).  The blocks the datum reaches (FourierBlocks.reach)
    are solved (FourierBlocks.solve), and the solve is accepted when the
    normwise backward error of A f = b, with A = form + alpha diag(w) the
    assembled form and b = w * w_field, is at most
    BACKWARD_ERROR_BOUND.  info reports it as "backward_error" (0.0 for a
    zero datum), the unchecked weighted relative "residual",
    "min_eigenvalue", the least over the blocks solved (None for none), and
    the Propagator.info keys, "blocks_decomposed" counting the blocks
    solved.  Raises CoercivityViolation when a shifted
    block is not positive definite (eps outside the coercive range), and
    ResolutionError when the backward error is above the bound or not
    finite, or when a pencil without base structure is above DENSE_CUTOFF."""
    g = op_h0.grid
    blocks = fourier_blocks(op_h0.form, g.weights)
    path = blocks.path
    try:
        np.linalg.cholesky(blocks.shifted(alpha))
    except np.linalg.LinAlgError:
        raise CoercivityViolation("a shifted Fourier block is not positive definite; "
                                  "epsilon is outside the coercive range") from None
    modes = blocks.to_modes(w_field)
    ks, dropped = blocks.reach(modes)
    solved = np.zeros_like(modes)
    # a non-finite datum reaches every block, then fails the backward-error check
    solved[ks] = blocks.solve(alpha, modes[ks] * blocks.w_row, ks)
    mineig = float(np.min(blocks.eigh(ks, eigvals_only=True)[:, 0])) + alpha if len(ks) else None
    f = blocks.from_modes(solved)
    rhs = g.weights * np.asarray(w_field)
    A = op_h0.form + Form.diagonal(alpha * g.weights)
    Af = A @ f
    rel = g.norm(Af / g.weights - np.asarray(w_field)) / max(g.norm(w_field), 1e-300)
    r = np.max(np.abs(Af - rhs))
    # |A|_inf, the largest absolute row sum
    scale = np.max(A.abs_row_sums()) * np.max(np.abs(f)) + np.max(np.abs(rhs))
    if not r <= BACKWARD_ERROR_BOUND * scale:  # NaN fails too; a zero datum passes
        raise ResolutionError(
            f"resolvent backward error {r / scale:.3e} above {BACKWARD_ERROR_BOUND:.3e} "
            f"({BACKWARD_ERROR_BOUND / UNIT_ROUNDOFF:.0f} u)"
        )
    info = {"residual": rel, "min_eigenvalue": mineig, "spectral_path": path,
            "blocks_decomposed": len(ks), "dropped_mode_norm_rel": dropped}
    info["backward_error"] = float(r / scale) if scale else 0.0
    return f, info


def resolvent_limit(grid, spectrum, alpha, w_field):
    """Ground-band limit of the resolvent: the base resolvent
    (base Laplacian + alpha)^-1 of the projected datum, lifted by the fiber
    ground state."""
    blocks = fourier_blocks(discretize.base_form(grid, 0.0), grid.base_w)
    fb = fiber_mod.extract_fb(grid, spectrum, w_field)
    gb = blocks.from_modes(blocks.solve(alpha, blocks.to_modes(grid.base_w * fb)))
    return np.outer(gb, spectrum.ground_state).ravel()


def resolvent_study(grid, spectrum, eps_list, alpha, w_field, rng, n_perturbations, delta=1e-3):
    """Resolvent collapse study: per eps, the L2 distance from the solution f
    of (H0(eps) + alpha) f = w_field to resolvent_limit, and a test of f as
    the minimizer of phi_functional against n_perturbations random
    perturbations of norm delta drawn from rng.  Returns (errors, infos,
    variational_ok): the errors and resolvent_minimizer infos per eps, and
    whether no perturbation lowered phi."""
    limit = resolvent_limit(grid, spectrum, alpha, w_field)
    errors, infos, variational_ok = [], [], True
    for eps in eps_list:
        h0 = discretize.renormalize(grid, "InducedEps", eps, spectrum.lambda0)
        f, info = resolvent_minimizer(h0, alpha, w_field)
        base_phi = phi_functional(h0, alpha, w_field, f)
        probes = rng.standard_normal((n_perturbations, grid.n))
        probes *= (delta / grid.norm(probes))[:, None]
        probes += f
        if np.any(phi_functional(h0, alpha, w_field, probes) <= base_phi):
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
    Returns (ratios, info): the ratio field on the submanifold (fiber
    center) at each time, shape (len(times), n_base), from one propagator
    and one survival flow, and that propagator's Propagator.info."""
    if not all(0 <= t <= T for t in times):
        raise ValueError("need 0 <= t <= T")
    h0 = discretize.renormalize(grid, "InducedEps", eps, spectrum.lambda0)
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
    ratios = np.array([
        grid.reshape(flow(t, f_lift * flow(T - t, sqrt_rho)))[:, jc] / den_c if t else f_base
        for t in times
    ], dtype=float)
    return ratios, propagator.info


# ---------------------------------------------------------------------------
# convergence sweep
# ---------------------------------------------------------------------------


# norm name -> Sobolev order (discretize.sobolev_norm)
NORMS = {"L2": 0, "H1": 1, "H2": 2}


def collapse_errors(grid, spectrum, which, eps_list, t_grid, f, order=0):
    """errors[i, j, k] = |P_t^eps f - P_t^0 f|_k, the Sobolev norm of order
    k = 0..order (discretize.sobolev_norm) of the distance from the flow of
    the renormalized tube form `which` (discretize.TUBE_FORMS) at
    eps = eps_list[i] to the limit flow, at t = t_grid[j].  Returns
    (errors, infos, seconds): the Propagator.info and the seconds of each
    eps."""
    limit = limit_propagate(grid, spectrum, t_grid, f)
    errors = np.empty((len(eps_list), len(t_grid), order + 1))
    infos, seconds = [], []
    for i, eps in enumerate(eps_list):
        t0 = time.perf_counter()
        op = discretize.renormalize(grid, which, eps, spectrum.lambda0)
        prop = Propagator(op.form, op.weights)
        diff = prop.apply(t_grid, f) - limit
        for k in range(order + 1):
            errors[i, :, k] = discretize.sobolev_norm(grid, diff, k)
        infos.append(prop.info)
        seconds.append(time.perf_counter() - t0)
    return errors, infos, seconds


@dataclass
class SweepResult:
    eps_list: list
    t_grid: np.ndarray
    errors: np.ndarray       # (eps, t, norm) as collapse_errors, norms in NORMS order
    fitted_order: float
    r_squared: float
    runtimes: list           # seconds per eps
    propagators: list        # Propagator.info per eps
    spatial_error_estimate: float | None = None
    pre_check_propagator: dict | None = None

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
    errors, infos, runtimes = collapse_errors(
        grid, spectrum, "InducedEps", eps_list, t_grid, u, order=max(NORMS.values())
    )
    p, r2 = _loglog_fit(eps_list, errors[:, :, NORMS["L2"]].max(axis=1))
    result = SweepResult(eps_list, t_grid, errors, p, r2, runtimes, infos)
    if pre_check:
        fine = discretize.refined_grid(grid)
        fine_spectrum = fiber_mod.fiber_spectrum(fine.fiber)
        fine_errors, (result.pre_check_propagator,), _ = collapse_errors(
            fine, fine_spectrum, "InducedEps", eps_list[:1], t_grid,
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
