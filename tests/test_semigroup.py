"""Propagators, resolvents, conditioned flow, and the convergence sweep."""

import contextlib
import math

import numpy as np
import pytest
import scipy.linalg

from tubelab import discretize, fiber as fiber_mod, semigroup, suites
from tubelab.errors import CoercivityViolation, ResolutionError
from tubelab.forms import Form
from tubelab.geometry import CircleInPlane, SyntheticFiberModel, constant_curve, ellipse_curve


@pytest.fixture(scope="module")
def ellipse_2880():
    # 36 x (10 x 8) = 2880 nodes, above the dense cutoff; the induced form of
    # the ellipse changes along the base, so it has no block structure
    grid = discretize.build_grid(ellipse_curve(1.2, 0.8), 36, 10, 8)
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    return grid, spectrum, discretize.renormalize(grid, "InducedEps", 0.1, spectrum.lambda0)


class TestPropagator:
    def test_identity_at_zero(self, circle_grid, circle_spectrum, rng):
        op = discretize.renormalize(circle_grid, "SasakiEps", 0.2, circle_spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        f = rng.standard_normal(circle_grid.n)
        assert circle_grid.norm(prop.apply(0.0, f) - f) < 1e-9 * circle_grid.norm(f)

    def test_semigroup_law(self, circle_grid, circle_spectrum, rng):
        op = discretize.renormalize(circle_grid, "SasakiEps", 0.2, circle_spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        f = rng.standard_normal(circle_grid.n)
        lhs = prop.apply(0.3, prop.apply(0.2, f))
        rhs = prop.apply(0.5, f)
        assert circle_grid.norm(lhs - rhs) < 1e-9 * circle_grid.norm(f)

    def test_contraction_for_psd_form(self, circle_grid, rng):
        qs = discretize.assemble_form(circle_grid, "SasakiEps", 0.3)
        prop = semigroup.Propagator(qs, circle_grid.weights)
        f = rng.standard_normal(circle_grid.n)
        assert circle_grid.norm(prop.apply(1.0, f)) <= circle_grid.norm(f) * (1 + 1e-12)

    def test_negative_time_rejected(self, circle_grid):
        qs = discretize.assemble_form(circle_grid, "SasakiEps", 0.3)
        prop = semigroup.Propagator(qs, circle_grid.weights)
        with pytest.raises(ValueError):
            prop.apply(-0.1, np.zeros(circle_grid.n))

    def test_one_block_above_the_cutoff_refused(self, ellipse_2880):
        # no path keeps part of a spectrum: a pencil without base structure
        # above the dense cutoff is refused with a one-line error
        grid, spectrum, op = ellipse_2880
        assert grid.n > semigroup.DENSE_CUTOFF
        with pytest.raises(ResolutionError, match="DENSE_CUTOFF") as refused:
            semigroup.Propagator(op.form, op.weights)
        assert len(str(refused.value).splitlines()) == 1
        with pytest.raises(ResolutionError, match="DENSE_CUTOFF") as refused:
            semigroup.resolvent_minimizer(op, spectrum.lambda0 + 1.5, np.ones(grid.n))
        assert len(str(refused.value).splitlines()) == 1


class TestLimitSemigroup:
    def test_zero_time_is_projection(self, circle_grid, circle_spectrum, rng):
        f = rng.standard_normal(circle_grid.n)
        (lim,) = semigroup.limit_propagate(circle_grid, circle_spectrum, [0.0], f)
        e0 = fiber_mod.project_E0(circle_grid, circle_spectrum, f)
        assert circle_grid.norm(lim - e0) < 1e-9 * circle_grid.norm(f)

    def test_fourier_mode_decay(self, circle_grid, circle_spectrum):
        # cos is an exact eigenvector of the periodic difference Laplacian
        # with the discrete symbol 4 sin^2(h/2) / h^2
        h = circle_grid.base_h
        nu = 4.0 * math.sin(h / 2) ** 2 / h**2
        f = np.outer(np.cos(circle_grid.base_x), circle_spectrum.ground_state).ravel()
        t = 0.7
        (lim,) = semigroup.limit_propagate(circle_grid, circle_spectrum, [t], f)
        expect = math.exp(-0.5 * nu * t) * f
        assert circle_grid.norm(lim - expect) < 1e-10 * circle_grid.norm(f)


class TestResolvent:
    def test_solves_shifted_equation(self, circle_grid, circle_spectrum):
        alpha = circle_spectrum.lambda0 + 1.5
        op0 = discretize.renormalize(circle_grid, "InducedEps", 0.1, circle_spectrum.lambda0)
        w = semigroup.default_sweep_field(circle_grid, circle_spectrum)
        f, info = semigroup.resolvent_minimizer(op0, alpha, w)
        assert info["residual"] < 1e-10
        back = op0.apply(f) + alpha * f
        assert circle_grid.norm(back - w) < 1e-8 * circle_grid.norm(w)

    def test_variational_minimum(self, circle_grid, circle_spectrum, rng):
        alpha = circle_spectrum.lambda0 + 1.5
        op0 = discretize.renormalize(circle_grid, "InducedEps", 0.1, circle_spectrum.lambda0)
        w = semigroup.default_sweep_field(circle_grid, circle_spectrum)
        f, _ = semigroup.resolvent_minimizer(op0, alpha, w)
        base = semigroup.phi_functional(op0, alpha, w, f)
        for _ in range(10):
            d = rng.standard_normal(circle_grid.n)
            d *= 1e-3 / circle_grid.norm(d)
            assert semigroup.phi_functional(op0, alpha, w, f + d) > base

    def test_indefinite_shift_raises(self, circle_grid, circle_spectrum):
        op0 = discretize.renormalize(circle_grid, "InducedEps", 0.1, circle_spectrum.lambda0)
        w = np.ones(circle_grid.n)
        with pytest.raises(CoercivityViolation):
            semigroup.resolvent_minimizer(op0, -100.0, w)

    def test_unreached_indefinite_block_raises(self, monkeypatch):
        # cos(theta) phi0 reaches block 1 alone; at alpha = -0.5 the shifted
        # block 0 is indefinite and block 1 is not, so only a factorization
        # of every block, reached or not, refuses the shift
        grid = discretize.build_grid(CircleInPlane(1.0), 16, 15)
        spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
        op0 = discretize.renormalize(grid, "InducedEps", 0.1, spectrum.lambda0)
        w = np.outer(np.cos(grid.base_angle), spectrum.ground_state).ravel()
        blocks = semigroup.fourier_blocks(op0.form, op0.weights)
        assert blocks.reach(blocks.to_modes(w))[0].tolist() == [1]
        least = blocks.eigh(eigvals_only=True)[:, 0]
        assert least[0] - 0.5 < 0 < least[1] - 0.5
        with pytest.raises(CoercivityViolation):
            semigroup.resolvent_minimizer(op0, -0.5, w)
        # min_eigenvalue is read from the blocks solved, not from every block
        eigh = semigroup.FourierBlocks.eigh
        asked = []

        def counted(self, ks=None, eigvals_only=False):
            asked.append(len(self.multiplicity) if ks is None else len(ks))
            return eigh(self, ks, eigvals_only)

        monkeypatch.setattr(semigroup.FourierBlocks, "eigh", counted)
        _, info = semigroup.resolvent_minimizer(op0, 1.0, w)
        assert asked == [1] and info["blocks_decomposed"] == 1
        assert info["min_eigenvalue"] == least[1] + 1.0

    def test_zero_datum(self, circle_grid, circle_spectrum):
        op0 = discretize.renormalize(circle_grid, "InducedEps", 0.1, circle_spectrum.lambda0)
        zero = np.zeros(circle_grid.n)
        f, info = semigroup.resolvent_minimizer(op0, circle_spectrum.lambda0 + 1.5, zero)
        assert not f.any() and info["backward_error"] == 0.0
        assert info["min_eigenvalue"] is None and info["blocks_decomposed"] == 0
        # a zero datum reaches no block, yet an indefinite shift is refused
        with pytest.raises(CoercivityViolation):
            semigroup.resolvent_minimizer(op0, -100.0, zero)

    def test_nan_residual_raises(self, rng):
        # the ellipse takes the dense path, the untwisted curve the block
        # path; on both an infinite datum meets inf * 0 in the complex
        # scaling of the real FFT (FourierBlocks.to_modes), which warns
        block = constant_curve(1.0, 0.0, 2.0 * math.pi)
        for model in (ellipse_curve(1.2, 0.8), block):
            grid = discretize.build_grid(model, 12, 9, 8)
            spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
            op0 = discretize.renormalize(grid, "InducedEps", 0.1, spectrum.lambda0)
            for bad in (np.nan, np.inf):
                w = rng.standard_normal(grid.n)
                w[grid.n // 2] = bad
                with pytest.raises(ResolutionError), (
                    pytest.warns(RuntimeWarning) if bad == np.inf else contextlib.nullcontext()
                ):
                    semigroup.resolvent_minimizer(op0, spectrum.lambda0 + 1.5, w)

    def test_small_eps_backward_error(self, circle_grid, circle_spectrum):
        # the renormalized operator's conditioning grows like eps^-2; the
        # backward error of the block solve does not
        alpha = circle_spectrum.lambda0 + 1.5
        w = semigroup.default_sweep_field(circle_grid, circle_spectrum)
        for eps in (0.2, 0.05, 0.0125, 0.003125):
            op0 = discretize.renormalize(circle_grid, "InducedEps", eps, circle_spectrum.lambda0)
            _, info = semigroup.resolvent_minimizer(op0, alpha, w)
            assert info["backward_error"] <= semigroup.BACKWARD_ERROR_BOUND, eps


class TestConditionalFlow:
    def test_zero_time_recovers_observable(self, circle_grid, circle_spectrum):
        fb = np.cos(circle_grid.base_x)
        (out,), _ = semigroup.conditional_flow_operator(
            circle_grid, circle_spectrum, 0.2, 1.0, [0.0], fb
        )
        assert np.max(np.abs(out - fb)) < 1e-8

    def test_constant_observable_is_one(self, circle_grid, circle_spectrum):
        fb = np.ones(circle_grid.n_base)
        out, _ = semigroup.conditional_flow_operator(
            circle_grid, circle_spectrum, 0.2, 1.0, [0.0, 0.5, 1.0], fb
        )
        assert np.max(np.abs(out - 1.0)) < 1e-8

    def test_collapse_limit(self, circle_grid, circle_spectrum):
        # conditioned marginal approaches the free circle heat value as the
        # tube shrinks
        fb = np.cos(circle_grid.base_x)
        exact = math.exp(-0.25)  # heat decay of cos at t = 1/2 on the unit circle
        errs = []
        for eps in (0.2, 0.1, 0.05):
            (out,), _ = semigroup.conditional_flow_operator(
                circle_grid, circle_spectrum, eps, 1.0, [0.5], fb
            )
            errs.append(abs(out[0] - exact))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-3

    def test_time_window_validated(self, circle_grid, circle_spectrum):
        with pytest.raises(ValueError):
            semigroup.conditional_flow_operator(
                circle_grid, circle_spectrum, 0.2, 1.0, [0.5, 1.5], np.ones(circle_grid.n_base)
            )

    def test_times_share_one_propagator(self, circle_grid, circle_spectrum):
        # one call over several times gives the single-time calls bit for
        # bit, and its t = 0 row is the observable itself
        fb = np.cos(circle_grid.base_x + 0.5)
        times = [0.0, 0.03, 0.05, 0.1]
        out, _ = semigroup.conditional_flow_operator(
            circle_grid, circle_spectrum, 0.2, 0.1, times, fb
        )
        assert out.shape == (len(times), circle_grid.n_base)
        for t, row in zip(times, out):
            (single,), _ = semigroup.conditional_flow_operator(
                circle_grid, circle_spectrum, 0.2, 0.1, [t], fb
            )
            assert np.array_equal(row, single)
        assert np.array_equal(out[0], fb)


class TestCollapseErrors:
    def test_entry_matches_hand_written_route(self, circle_grid, circle_spectrum):
        eps_list, t_grid = [0.2, 0.1], np.array([0.1, 0.4])
        f = semigroup.default_sweep_field(circle_grid, circle_spectrum)
        errors, infos, seconds = semigroup.collapse_errors(
            circle_grid, circle_spectrum, "InducedEps", eps_list, t_grid, f, order=2
        )
        assert errors.shape == (2, 2, 3)
        assert [i["spectral_path"] for i in infos] == ["block", "block"]
        assert len(seconds) == 2
        op = discretize.renormalize(circle_grid, "InducedEps", 0.1, circle_spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        (limit,) = semigroup.limit_propagate(circle_grid, circle_spectrum, [0.4], f)
        diff = prop.apply(0.4, f) - limit
        for k in range(3):
            assert errors[1, 1, k] == discretize.sobolev_norm(circle_grid, diff, k)


class TestSweep:
    @pytest.fixture(scope="class")
    def grid32(self, circle_model):
        grid = discretize.build_grid(circle_model, 32, 15)
        return grid, fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)

    def test_small_sweep_decreases(self, grid32):
        res = semigroup.convergence_sweep(*grid32, [0.2, 0.1], t_grid=np.linspace(0.2, 0.6, 3))
        for sup in res.sup_errors.values():
            assert np.all(np.diff(sup) < 0)
        assert set(res.sup_errors) == {"L2", "H1", "H2"}
        assert res.errors.shape == (2, 3, 3)
        assert [len(row) for row in res.rows()] == [5] * 6
        assert res.rows()[0][:2] == [0.2, 0.2]
        assert res.rows()[-1][2:] == res.errors[1, 2].tolist()
        assert [p["spectral_path"] for p in res.propagators] == ["block", "block"]
        assert res.spatial_error_estimate is None

    def test_pre_check_reports_spatial_estimate(self, grid32):
        res = semigroup.convergence_sweep(
            *grid32, [0.2, 0.1], t_grid=np.linspace(0.2, 0.6, 3), pre_check=True
        )
        assert res.spatial_error_estimate is not None
        assert res.spatial_error_estimate <= res.sup_errors["L2"][0] / 10.0
        assert res.pre_check_propagator["spectral_path"] == "block"

    def test_eps_list_must_decrease(self, grid32):
        with pytest.raises(ValueError):
            semigroup.convergence_sweep(*grid32, [0.1, 0.2])


# the translation-invariant forms of the block tests: (model, n_base,
# n_fiber, n_theta, tube form); the twisted curve has complex Hermitian blocks,
# whose conjugate has the same spectrum, so these tests compare results too
BLOCK_CASES = {
    "circle-induced": (CircleInPlane(1.0), 16, 13, 16, "InducedEps"),
    "circle-sasaki": (CircleInPlane(1.0), 16, 13, 16, "SasakiEps"),
    "curve-codim2": (constant_curve(1.0, 0.0, 2.0 * math.pi), 12, 8, 8, "InducedEps"),
    "twisted-curve": (constant_curve(1.0, 1.0, 2.0 * math.pi), 16, 8, 8, "InducedEps"),
}


@pytest.fixture(scope="module", params=sorted(BLOCK_CASES))
def block_case(request):
    model, n_base, n_fiber, n_theta, which = BLOCK_CASES[request.param]
    grid = discretize.build_grid(model, n_base, n_fiber, n_theta)
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    return grid, spectrum, discretize.renormalize(grid, which, 0.1, spectrum.lambda0)


def dense_eigh(form, weights, eigvals_only=False):
    """The reference: one dense generalized eigensolve of the whole pencil."""
    return scipy.linalg.eigh(form.toarray(), np.diag(weights), eigvals_only=eigvals_only)


def assert_spectra_match(vals, ref):
    assert vals.shape == ref.shape
    assert np.max(np.abs(vals - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-9


class TestBlockCore:
    """The Fourier-block path against a dense eigensolve on small grids."""

    def test_block_structure_detected(self, block_case):
        grid, _, op = block_case
        blocks = semigroup.fourier_blocks(op.form, op.weights)
        assert blocks.path == "block"
        assert blocks.n_base == grid.n_base
        assert blocks.blocks().shape == (grid.n_base // 2 + 1, grid.n_fiber, grid.n_fiber)
        assert blocks.multiplicity.sum() == grid.n_base

    def test_propagator_matches_dense(self, block_case, rng):
        grid, _, op = block_case
        block = semigroup.Propagator(op.form, op.weights)
        assert block.path == "block"
        vals, vecs = dense_eigh(op.form, op.weights)
        f = rng.standard_normal(grid.n)
        coef = vecs.T @ (op.weights * f)
        for t in (0.0, 0.1, 0.5, 1.0):
            dense = vecs @ (np.exp(-0.5 * t * vals) * coef)
            assert grid.norm(block.apply(t, f) - dense) < 1e-10 * grid.norm(f)
        assert grid.norm(block.apply(0.0, f) - f) < 1e-10 * grid.norm(f)

    def test_eigenvalues_match_dense(self, block_case):
        _, _, op = block_case
        ref = dense_eigh(op.form, op.weights, eigvals_only=True)
        assert_spectra_match(semigroup.pencil_eigenvalues(op.form, op.weights), ref)
        blocks = semigroup.fourier_blocks(op.form, op.weights)
        assert_spectra_match(blocks.spectrum(blocks.eigh()[0]), ref)

    def test_operator_eig_matches_dense(self, block_case):
        _, _, op = block_case
        assert_spectra_match(op.eig(), dense_eigh(op.form, op.weights, eigvals_only=True))

    def test_resolvent_matches_dense(self, block_case, rng):
        grid, spectrum, op = block_case
        alpha = spectrum.lambda0 + 1.5
        w = rng.standard_normal(grid.n)
        f, info = semigroup.resolvent_minimizer(op, alpha, w)
        assert info["spectral_path"] == "block"
        A = op.form.toarray() + alpha * np.diag(op.weights)
        ref = scipy.linalg.solve(A, op.weights * w, assume_a="pos")
        assert grid.norm(f - ref) < 1e-10 * grid.norm(ref)
        mineig = scipy.linalg.eigh(A, np.diag(op.weights), eigvals_only=True)[0]
        assert abs(info["min_eigenvalue"] - mineig) < 1e-9 * max(abs(mineig), 1.0)

    def test_batched_eigh_and_solve_match_per_block_scipy(self, block_case, rng):
        grid, spectrum, op = block_case
        blocks = semigroup.fourier_blocks(op.form, op.weights)
        W = np.diag(blocks.w_row)
        vals, vecs = blocks.eigh()
        alpha = spectrum.lambda0 + 1.5
        rhs = blocks.to_modes(rng.standard_normal(grid.n))
        x = blocks.solve(alpha, rhs)
        for k, B in enumerate(blocks.blocks()):
            assert_spectra_match(vals[k], scipy.linalg.eigh(B, W, eigvals_only=True))
            V = vecs[k]
            assert np.max(np.abs(V.conj().T @ W @ V - np.eye(len(W)))) < 1e-10
            scale = np.maximum(np.abs(vals[k]), 1.0)
            assert np.max(np.abs(B @ V - W @ V * vals[k]) / scale) < 1e-9
            ref = scipy.linalg.solve(B + alpha * W, rhs[k].T, assume_a="pos").T
            assert np.max(np.abs(x[k] - ref)) < 1e-10 * np.max(np.abs(ref))
        # a subset of the blocks is solved with the bits of the solve of
        # every block: each block is factored and solved alone in the
        # stacked LU solve
        assert np.array_equal(blocks.solve(alpha, rhs[[1, 3]], [1, 3]), x[[1, 3]])

    def test_ellipse_falls_back_to_dense(self, rng):
        grid = discretize.build_grid(ellipse_curve(1.2, 0.8), 12, 8, 8)
        spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
        op = discretize.renormalize(grid, "InducedEps", 0.1, spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        assert prop.path == "dense"
        vals = dense_eigh(op.form, op.weights, eigvals_only=True)
        assert_spectra_match(semigroup.pencil_eigenvalues(op.form, op.weights), vals)
        alpha = spectrum.lambda0 + 1.5
        w = rng.standard_normal(grid.n)
        f, info = semigroup.resolvent_minimizer(op, alpha, w)
        assert info["spectral_path"] == "dense"
        A = op.form.toarray() + alpha * np.diag(op.weights)
        ref = scipy.linalg.solve(A, op.weights * w, assume_a="pos")
        assert grid.norm(f - ref) < 1e-10 * grid.norm(ref)


def block_kind(blocks):
    """The name of a pencil's block kind, as in the keys of LAYOUT_GRIDS."""
    return "one-block" if blocks.n_base == 1 else "complex" if blocks.complex else "real"


def fft_error_bound(n_base):
    """The normwise error of FourierBlocks.to_modes or from_modes on one
    base column (a field's values at one fiber node), relative to its
    2-norm, which the orthonormal modes keep (Parseval).

    Higham 2002, Thm 24.2: an FFT of length n computes y = F x with
    |y~ - y|_2 <= log2(n) eta / (1 - log2(n) eta) |y|_2, where
    eta = mu + gamma_4 (sqrt(2) + mu) and mu is the relative error of the
    twiddle factors; with mu <= u, eta <= 6.7 u, so 7 log2(n) u.  The
    scaling by sqrt(mult_k / n_base) adds 2 u.  Measured: at most 3.1 u for
    n_base from 1 to 512, 17 included, where this allows 2 u to 65 u."""
    return (7 * math.log2(n_base) + 2) * semigroup.UNIT_ROUNDOFF


def real_fourier_basis(n_base):
    """(c, s): the real orthonormal columns c_k, s_k of the module docstring
    of semigroup, k = 0 .. n_base // 2, s_k zero where it is absent, in
    extended precision with the angle reduced exactly mod 2 pi."""
    k = np.arange(n_base // 2 + 1)
    reduced = (np.outer(np.arange(n_base), k) % n_base).astype(np.longdouble)
    angle = 8 * np.arctan(np.longdouble(1)) * reduced / n_base
    paired = 2 * k % n_base > 0
    scale = np.sqrt(np.where(paired, 2, 1) / np.longdouble(n_base))
    return scale * np.cos(angle), paired * scale * np.sin(angle)


class TestFieldStacks:
    """A stack (m, n) of fields moves through the field primitives in one
    call, and a propagator takes a list of times in one call, with the bits
    of one call per field or per time."""

    def test_stack_modes_are_the_fields_modes_side_by_side(self, layout_grid):
        layout, grid = layout_grid
        blocks = semigroup.fourier_blocks(discretize.h1_form(grid), grid.weights)
        assert block_kind(blocks) == layout.removesuffix("-odd")
        fields = np.random.Generator(np.random.Philox(key=5)).standard_normal((6, grid.n))
        modes = blocks.to_modes(fields)
        assert np.array_equal(modes, np.concatenate([blocks.to_modes(f) for f in fields], axis=1))
        back = blocks.from_modes(modes)
        assert back.shape == fields.shape
        per_field = [blocks.from_modes(blocks.to_modes(f)) for f in fields]
        assert np.array_equal(back, np.stack(per_field))
        # a transform each way, per base column (fft_error_bound)
        columns = (6, blocks.n_base, len(blocks.w_row))
        err = np.linalg.norm((back - fields).reshape(columns), axis=1)
        norm = np.linalg.norm(fields.reshape(columns), axis=1)
        assert np.all(err <= 2 * fft_error_bound(blocks.n_base) * norm)
        # the rows of one field come back as one flat field
        assert blocks.from_modes(blocks.to_modes(fields[:1])).shape == (grid.n,)

    def test_modes_are_the_real_fourier_coefficients(self, layout_grid):
        # the modes of a field are z_k = c_k . f + i s_k . f, checked against
        # the real basis in extended precision on n_base 64, 32, 17 and 1
        _, grid = layout_grid
        blocks = semigroup.fourier_blocks(discretize.h1_form(grid), grid.weights)
        n, columns = blocks.n_base, (3, blocks.n_base, len(blocks.w_row))
        c, s = real_fourier_basis(n)
        fields = np.random.Generator(np.random.Philox(key=9)).standard_normal((3, grid.n))
        f = fields.reshape(columns).astype(np.longdouble)
        a, b = np.einsum("ik,min->kmn", c, f), np.einsum("ik,min->kmn", s, f)
        norm = np.linalg.norm(fields.reshape(columns), axis=1)
        # the oracle's own error: each coefficient is a sum of n products
        # (Higham 2002, Sec. 3.1) in the extended unit roundoff
        bound = fft_error_bound(n) + n**1.5 * np.finfo(np.longdouble).eps
        z = blocks.to_modes(fields)
        err = np.sqrt(np.sum((z.real - a) ** 2 + (z.imag - b) ** 2, axis=0)).astype(float)
        assert np.all(err <= bound * norm)
        # the oracle's coefficients, rounded to double (u more), give the
        # fields back
        back = blocks.from_modes(a.astype(float) + 1j * b.astype(float))
        err = np.linalg.norm((back - fields).reshape(columns), axis=1)
        assert np.all(err <= (bound + semigroup.UNIT_ROUNDOFF) * norm)

    def test_a_list_of_times_keeps_each_times_bits(self, layout_grid):
        _, grid = layout_grid
        spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
        op = discretize.renormalize(grid, "InducedEps", 0.1, spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        f = np.random.Generator(np.random.Philox(key=10)).standard_normal(grid.n)
        times = [0.0, 0.05, 0.3, 1.0]
        flows = prop.apply(times, f)
        assert flows.shape == (len(times), grid.n)
        for t, flow in zip(times, flows):
            assert np.array_equal(flow, prop.apply(t, f))
        for bad in ([-0.1, 0.2, 0.3], [0.1, 0.2, -1e-300]):
            with pytest.raises(ValueError):
                prop.apply(bad, f)

    def test_stacked_phi_functional_matches_per_field(self, layout_grid):
        _, grid = layout_grid
        spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
        op = discretize.renormalize(grid, "InducedEps", 0.1, spectrum.lambda0)
        alpha, w = spectrum.lambda0 + 1.5, grid.weights
        rng = np.random.Generator(np.random.Philox(key=6))
        w_field, fields = rng.standard_normal(grid.n), rng.standard_normal((5, grid.n))
        stacked = semigroup.phi_functional(op, alpha, w_field, fields)
        for f, value in zip(fields, stacked):
            assert value == semigroup.phi_functional(op, alpha, w_field, f)
            # the functional as it is written for one field
            ref = (0.5 * (float(f @ (op.form @ f)) + alpha * float(np.sum(w * f * f)))
                   - float(np.sum(w * w_field * f)))
            assert value == ref


# one grid per block kind of FourierBlocks.solve, named as LAYOUT_GRIDS:
# real 31-node blocks, complex 496-node blocks (a twisted curve over the
# 31x16 disc), complex 64-node blocks over an odd base count and the one
# block of a pencil without base structure
SOLVE_GRIDS = {
    "real": (CircleInPlane(1.0), 64, 31, 16),
    "complex": (constant_curve(1.0, 1.0, 2.0 * math.pi), 8, 31, 16),
    "complex-odd": (constant_curve(1.0, 1.0, 2.0 * math.pi), 17, 8, 8),
    "one-block": (SyntheticFiberModel(1.5), 1, 31, 16),
}


@pytest.mark.parametrize("layout", sorted(SOLVE_GRIDS))
def test_one_field_solve_is_its_row_of_a_stacked_solve(layout):
    # LAPACK rounds a lone right-hand side with another kernel than a stack;
    # FourierBlocks.solve keeps each field's bits whatever the stack's width
    grid = discretize.build_grid(*SOLVE_GRIDS[layout])
    blocks = semigroup.fourier_blocks(discretize.h1_form(grid), grid.weights)
    assert block_kind(blocks) == layout.removesuffix("-odd")
    fields = np.random.Generator(np.random.Philox(key=8)).standard_normal((5, grid.n))
    stacked = blocks.solve(1.0, blocks.to_modes(fields))
    for i, f in enumerate(fields):
        one = blocks.solve(1.0, blocks.to_modes(f))
        assert np.array_equal(one, stacked[:, i : i + 1])


def _pencil(model, n_base, n_fiber, n_theta=16, which="InducedEps"):
    grid = discretize.build_grid(model, n_base, n_fiber, n_theta)
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    op = discretize.renormalize(grid, which, 0.1, spectrum.lambda0)
    return op.form, op.weights


def _base_pencil(model, n_base):
    """The base Laplacian's pencil: the untwisted base form and base weights."""
    grid = discretize.build_grid(model, n_base, 31)
    return discretize.base_form(grid, 0.0), grid.base_w


# pencil -> (n_base, n_fiber) that fourier_blocks must find; (1, n) is the
# one block of a pencil without base structure
STRUCTURE_CASES = {
    "base-laplacian": (lambda: _base_pencil(CircleInPlane(1.0), 64), (64, 1)),
    "circle-induced": (lambda: _pencil(CircleInPlane(1.0), 64, 31), (64, 31)),
    "circle-sasaki": (lambda: _pencil(CircleInPlane(1.0), 64, 31, which="SasakiEps"), (64, 31)),
    "untwisted-curve": (
        lambda: _pencil(constant_curve(1.0, 0.0, 2.0 * math.pi), 16, 10, 8), (16, 80)
    ),
    "twisted-curve": (
        lambda: _pencil(constant_curve(1.0, 1.0, 2.0 * math.pi), 16, 8, 8), (16, 64)
    ),
    "ellipse": (lambda: _pencil(ellipse_curve(1.2, 0.8), 12, 8, 8), (1, 12 * 64)),
    "synthetic": (lambda: _pencil(SyntheticFiberModel(1.5), 1, 12, 8), (1, 96)),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_CASES))
def test_fourier_blocks_reads_the_structure(name):
    build, (n_base, n_fiber) = STRUCTURE_CASES[name]
    form, weights = build()
    blocks = semigroup.fourier_blocks(form, weights)
    assert (blocks.n_base, len(blocks.w_row)) == (n_base, n_fiber)
    assert blocks.path == ("block" if n_base > 1 else "dense")
    assert_spectra_match(
        blocks.spectrum(blocks.eigh(eigvals_only=True)),
        dense_eigh(form, weights, eigvals_only=True),
    )


def _with_entry(Q, row, col, value):
    """Q with its entry (row, col) set to value."""
    delta = value - Q.toarray()[row, col]
    return Q + Form(Q.n, {col - row: np.where(np.arange(Q.n) == row, delta, 0.0)}, Q.block)


class TestStructuralCheck:
    """fourier_blocks splits a pencil exactly when its form is the
    reassembled block matrix, entry for entry; any other form is one block."""

    @pytest.fixture(scope="class")
    def pencil(self):
        return _pencil(CircleInPlane(1.0), 16, 13)

    def test_equal_forms_split(self, pencil):
        form, weights = pencil
        nf, n = 13, len(weights)
        # the same matrix keyed by offsets past n, and with an explicit zero
        shifted = Form(n, {o + n: d for o, d in form.diagonals.items()}, form.block)
        assert semigroup.fourier_blocks(shifted, weights).n_base == 16
        padded = form + Form(n, {3 * nf: np.zeros(n)}, form.block)
        assert semigroup.fourier_blocks(padded, weights).n_base == 16

    def test_unequal_forms_are_one_block(self, pencil):
        form, weights = pencil
        nf, r = 13, 5 * 13 + 2
        changed = _with_entry(form, r, r, form.toarray()[r, r] * (1 + 1e-15))
        # an entry two base nodes away; an entry dropped; and in every base
        # node an entry of N above its diagonal whose transpose is missing
        far = _with_entry(form, r, r + 2 * nf, 1e-12)
        dropped = _with_entry(form, r, r + 1, 0.0)
        skew = form + Form(form.n, {nf + 1: np.tile(np.append(np.full(nf - 1, 1e-12), 0.0), 16)},
                           form.block)
        for bad in (changed, far, dropped, skew):
            assert semigroup.fourier_blocks(bad, weights).n_base == 1
        w = weights.copy()
        w[r] = np.nextafter(w[r], 1.0)
        assert semigroup.fourier_blocks(form, w).n_base == 1


def _mode_field(grid, spectrum, modes):
    """phi0 times the sum of cos(k theta) + sin(k theta) over the base modes k."""
    fb = sum(np.cos(k * grid.base_angle) + np.sin(k * grid.base_angle) for k in modes)
    return np.outer(fb, spectrum.ground_state).ravel()


class TestReach:
    """A propagator decomposes exactly the blocks its data reach."""

    def test_band_limited_datum_matches_full_decomposition(self, circle_grid, circle_spectrum):
        grid = circle_grid
        op = discretize.renormalize(grid, "InducedEps", 0.05, circle_spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        f = semigroup.default_sweep_field(grid, circle_spectrum)
        vals, vecs = dense_eigh(op.form, op.weights)
        coef = vecs.T @ (op.weights * f)
        for t in (0.0, 0.1, 1.0):
            dense = vecs @ (np.exp(-0.5 * t * vals) * coef)
            assert grid.norm(prop.apply(t, f) - dense) < 1e-10 * grid.norm(f)
        assert prop.decomposed.tolist() == [0, 1]
        assert prop.info["blocks_decomposed"] == 2
        assert 0 < prop.info["dropped_mode_norm_rel"] <= grid.n_base * semigroup.UNIT_ROUNDOFF

    def test_decomposed_blocks_are_the_reached_ones(self, circle_grid, circle_spectrum):
        op = discretize.renormalize(circle_grid, "SasakiEps", 0.1, circle_spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        prop.apply(0.5, _mode_field(circle_grid, circle_spectrum, [3, 7]))
        assert prop.decomposed.tolist() == [3, 7]
        prop.apply(0.5, _mode_field(circle_grid, circle_spectrum, [0, 7, 32]))
        assert prop.decomposed.tolist() == [0, 3, 7, 32]
        # a zero datum reaches no block
        assert not np.any(prop.apply(0.5, np.zeros(circle_grid.n)))
        assert prop.decomposed.tolist() == [0, 3, 7, 32]

    def test_broadband_datum_decomposes_every_block(self, circle_grid, circle_spectrum):
        op = discretize.renormalize(circle_grid, "InducedEps", 0.1, circle_spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        prop.apply(0.5, discretize.random_fields(circle_grid, 1, 3)[0])
        assert prop.info["blocks_decomposed"] == circle_grid.n_base // 2 + 1
        assert prop.info["dropped_mode_norm_rel"] == 0.0

    def test_nan_datum_reaches_every_block(self, circle_grid, circle_spectrum):
        op = discretize.renormalize(circle_grid, "InducedEps", 0.1, circle_spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        f = semigroup.default_sweep_field(circle_grid, circle_spectrum)
        f[7] = np.nan
        assert np.all(np.isnan(prop.apply(0.5, f)))
        assert prop.info["blocks_decomposed"] == circle_grid.n_base // 2 + 1

    def test_readme_routes_decompose_two_blocks(self, circle_grid, circle_spectrum):
        # every datum of the README config lives in base modes 0 and 1
        eps_list, n_blocks = [0.2, 0.1, 0.05, 0.025], circle_grid.n_base // 2 + 1
        assert n_blocks == 33
        sweep = semigroup.convergence_sweep(circle_grid, circle_spectrum, eps_list)
        sasaki = suites.sasaki_limit_check(
            circle_grid, circle_spectrum, eps_list, semigroup.default_t_grid(5)
        )
        _, mc_route = semigroup.conditional_flow_operator(
            circle_grid, circle_spectrum, 0.2, 0.1, [0.05], np.cos(circle_grid.base_x)
        )
        assert [p["blocks_decomposed"] for p in sweep.propagators] == [2] * 4
        assert sasaki["blocks_decomposed"] == [2] * 4
        assert mc_route["blocks_decomposed"] == 2
        dropped = ([p["dropped_mode_norm_rel"] for p in sweep.propagators]
                   + sasaki["dropped_mode_norm_rel"] + [mc_route["dropped_mode_norm_rel"]])
        assert max(dropped) <= circle_grid.n_base * semigroup.UNIT_ROUNDOFF


def parallel_frame_sup_l2(grid, spectrum, eps, t_grid):
    """The sweep's sup L2 error at one eps, with the induced form assembled
    in the parallel normal frame of a constant curve with total torsion a
    multiple of 2 pi and solved densely: there the curvature vector turns,
    kappa (cos tau s, sin tau s), and the horizontal derivative is d_s."""
    model, n, h = grid.model, grid.n_base, grid.base_h
    xmid = grid.base_x + 0.5 * h
    phi = model.tau(0.0) * xmid
    w = grid.fiber.node_w()
    kw = model.kappa(0.0) * (np.cos(phi)[:, None] * w[:, 0] + np.sin(phi)[:, None] * w[:, 1])
    coeff = h * grid.fiber.weights[None, :] / (1.0 - eps * kw) ** 2
    Db = (np.roll(np.eye(n), 1, axis=1) - np.eye(n)) / h
    D = np.kron(Db, np.eye(grid.n_fiber))
    Q = (
        discretize.assemble_form(grid, "V").toarray() / eps**2
        + D.T @ (coeff.ravel()[:, None] * D)
        - spectrum.lambda0 / eps**2 * np.diag(grid.weights)
    )
    vals, vecs = scipy.linalg.eigh(Q, np.diag(grid.weights))
    f = semigroup.default_sweep_field(grid, spectrum)
    coef = vecs.T @ (grid.weights * f)
    limit = semigroup.limit_propagate(grid, spectrum, t_grid, f)
    return max(grid.norm(vecs @ (np.exp(-0.5 * t * vals) * coef) - lim)
               for t, lim in zip(t_grid, limit))


def test_twisted_sweep_matches_the_parallel_frame():
    # two discretisations of one tube: they agree at discretisation order,
    # closer as the tube shrinks onto the common limit
    grid = discretize.build_grid(constant_curve(1.0, 1.0, 2.0 * math.pi), 16, 8, 8)
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    eps_list, t_grid = [0.2, 0.1, 0.05], semigroup.default_t_grid(5)
    res = semigroup.convergence_sweep(grid, spectrum, eps_list, t_grid)
    assert [p["spectral_path"] for p in res.propagators] == ["block"] * 3
    gaps = [
        abs(sup / parallel_frame_sup_l2(grid, spectrum, eps, t_grid) - 1.0)
        for eps, sup in zip(eps_list, res.sup_errors["L2"])
    ]
    assert max(gaps) < 1e-3
    assert gaps[0] > gaps[1] > gaps[2]
