"""Propagators, resolvents, conditioned flow, and the convergence sweep."""

import contextlib
import math

import numpy as np
import pytest
import scipy.linalg

import tubelab as tl
from tubelab import discretize, fiber as fiber_mod, semigroup


@pytest.fixture(scope="module")
def ellipse_2880():
    # 36 x (10 x 8) = 2880 nodes, above the dense cutoff; the induced form of
    # the ellipse changes along the base, so it has no block structure
    grid = discretize.build_grid(tl.ellipse_curve(1.2, 0.8), 36, 10, 8)
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    return grid, spectrum, discretize.renormalize(grid, "H", 0.1, spectrum.lambda0)


class TestPropagator:
    def test_identity_at_zero(self, circle_grid, circle_spectrum, rng):
        op = discretize.renormalize(circle_grid, "HSa", 0.2, circle_spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        f = rng.standard_normal(circle_grid.n)
        assert circle_grid.norm(prop.apply(0.0, f) - f) < 1e-9 * circle_grid.norm(f)

    def test_semigroup_law(self, circle_grid, circle_spectrum, rng):
        op = discretize.renormalize(circle_grid, "HSa", 0.2, circle_spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        f = rng.standard_normal(circle_grid.n)
        lhs = prop.apply(0.3, prop.apply(0.2, f))
        rhs = prop.apply(0.5, f)
        assert circle_grid.norm(lhs - rhs) < 1e-9 * circle_grid.norm(f)

    def test_contraction_for_psd_form(self, circle_grid, rng):
        qs = discretize.assemble_operator(circle_grid, "HSa", 0.3)
        prop = semigroup.Propagator(qs.form, qs.weights)
        f = rng.standard_normal(circle_grid.n)
        assert circle_grid.norm(prop.apply(1.0, f)) <= circle_grid.norm(f) * (1 + 1e-12)

    def test_negative_time_rejected(self, circle_grid):
        qs = discretize.assemble_operator(circle_grid, "HSa", 0.3)
        prop = semigroup.Propagator(qs.form, qs.weights)
        with pytest.raises(ValueError):
            prop.apply(-0.1, np.zeros(circle_grid.n))

    def test_truncated_matches_dense(self, ellipse_2880):
        # above the dense cutoff, without base structure: only the spectral
        # bottom is kept; on a smooth field over the time grid that is
        # indistinguishable from the full solve, computed here with eigh
        grid, spectrum, op = ellipse_2880
        prop = semigroup.Propagator(op.form, op.weights, t_min=0.1)
        assert prop.path == "truncated"
        vals, vecs = scipy.linalg.eigh(op.form.toarray(), np.diag(op.weights))
        f = semigroup.default_sweep_field(grid, spectrum)
        coef = vecs.T @ (op.weights * f)
        for t in (0.1, 0.5, 1.0):
            dense = vecs @ (np.exp(-0.5 * t * vals) * coef)
            assert grid.norm(prop.apply(t, f) - dense) < 1e-9 * grid.norm(f)

    def test_truncated_refuses_times_below_t_min(self, ellipse_2880):
        # the dropped modes are visible before t_min
        grid, spectrum, op = ellipse_2880
        assert grid.n > semigroup.DENSE_CUTOFF
        prop = semigroup.Propagator(op.form, op.weights, t_min=0.5)
        assert prop.path == "truncated"
        f = semigroup.default_sweep_field(grid, spectrum)
        for t in (0.0, 0.1):
            with pytest.raises(ValueError):
                prop.apply(t, f)
        again = semigroup.Propagator(op.form, op.weights, t_min=0.5)
        assert np.array_equal(prop.apply(0.5, f), again.apply(0.5, f))


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
        op0 = discretize.renormalize(circle_grid, "H", 0.1, circle_spectrum.lambda0)
        w = semigroup.default_sweep_field(circle_grid, circle_spectrum)
        f, info = semigroup.resolvent_minimizer(op0, alpha, w)
        assert info["residual"] < 1e-10
        back = op0.apply(f) + alpha * f
        assert circle_grid.norm(back - w) < 1e-8 * circle_grid.norm(w)

    def test_variational_minimum(self, circle_grid, circle_spectrum, rng):
        alpha = circle_spectrum.lambda0 + 1.5
        op0 = discretize.renormalize(circle_grid, "H", 0.1, circle_spectrum.lambda0)
        w = semigroup.default_sweep_field(circle_grid, circle_spectrum)
        f, _ = semigroup.resolvent_minimizer(op0, alpha, w)
        base = semigroup.phi_functional(op0, alpha, w, f)
        for _ in range(10):
            d = rng.standard_normal(circle_grid.n)
            d *= 1e-3 / circle_grid.norm(d)
            assert semigroup.phi_functional(op0, alpha, w, f + d) > base

    def test_indefinite_shift_raises(self, circle_grid, circle_spectrum):
        op0 = discretize.renormalize(circle_grid, "H", 0.1, circle_spectrum.lambda0)
        w = np.ones(circle_grid.n)
        with pytest.raises(tl.CoercivityViolation):
            semigroup.resolvent_minimizer(op0, -100.0, w)

    def test_nan_residual_raises(self, rng):
        # the ellipse takes the dense path, the untwisted curve the block
        # path; there an infinite datum meets the zeros of the Fourier basis
        # (inf * 0) in FourierBlocks.to_modes, which warns
        block = tl.constant_curve(1.0, 0.0, 2.0 * math.pi)
        for model in (tl.ellipse_curve(1.2, 0.8), block):
            grid = discretize.build_grid(model, 12, 9, 8)
            spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
            op0 = discretize.renormalize(grid, "H", 0.1, spectrum.lambda0)
            for bad in (np.nan, np.inf):
                w = rng.standard_normal(grid.n)
                w[grid.n // 2] = bad
                warns = model is block and bad == np.inf
                with pytest.raises(tl.ResolutionError), (
                    pytest.warns(RuntimeWarning) if warns else contextlib.nullcontext()
                ):
                    semigroup.resolvent_minimizer(op0, spectrum.lambda0 + 1.5, w)


class TestConditionalFlow:
    def test_zero_time_recovers_observable(self, circle_grid, circle_spectrum):
        fb = np.cos(circle_grid.base_x)
        (out,) = semigroup.conditional_flow_operator(
            circle_grid, circle_spectrum, 0.2, 1.0, [0.0], fb
        )
        assert np.max(np.abs(out - fb)) < 1e-8

    def test_constant_observable_is_one(self, circle_grid, circle_spectrum):
        fb = np.ones(circle_grid.n_base)
        out = semigroup.conditional_flow_operator(
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
            (out,) = semigroup.conditional_flow_operator(
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
        out = semigroup.conditional_flow_operator(
            circle_grid, circle_spectrum, 0.2, 0.1, times, fb
        )
        assert out.shape == (len(times), circle_grid.n_base)
        for t, row in zip(times, out):
            (single,) = semigroup.conditional_flow_operator(
                circle_grid, circle_spectrum, 0.2, 0.1, [t], fb
            )
            assert np.array_equal(row, single)
        assert np.array_equal(out[0], fb)


class TestCollapseErrors:
    def test_entry_matches_hand_written_route(self, circle_grid, circle_spectrum):
        eps_list, t_grid = [0.2, 0.1], np.array([0.1, 0.4])
        f = semigroup.default_sweep_field(circle_grid, circle_spectrum)
        errors, paths, seconds = semigroup.collapse_errors(
            circle_grid, circle_spectrum, "H", eps_list, t_grid, f, order=2
        )
        assert errors.shape == (2, 2, 3)
        assert paths == ["block", "block"] and len(seconds) == 2
        op = discretize.renormalize(circle_grid, "H", 0.1, circle_spectrum.lambda0)
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
        assert res.spectral_paths == ["block", "block"]
        assert res.spatial_error_estimate is None

    def test_pre_check_reports_spatial_estimate(self, grid32):
        res = semigroup.convergence_sweep(
            *grid32, [0.2, 0.1], t_grid=np.linspace(0.2, 0.6, 3), pre_check=True
        )
        assert res.spatial_error_estimate is not None
        assert res.spatial_error_estimate <= res.sup_errors["L2"][0] / 10.0
        assert res.pre_check_spectral_path == "block"

    def test_eps_list_must_decrease(self, grid32):
        with pytest.raises(ValueError):
            semigroup.convergence_sweep(*grid32, [0.1, 0.2])


# the three translation-invariant forms of the block tests: (model, n_base,
# n_fiber, n_theta, operator)
BLOCK_CASES = {
    "circle-induced": (tl.CircleInPlane(1.0), 16, 13, 16, "H"),
    "circle-sasaki": (tl.CircleInPlane(1.0), 16, 13, 16, "HSa"),
    "curve-codim2": (tl.constant_curve(1.0, 0.0, 2.0 * math.pi), 12, 8, 8, "H"),
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
        assert blocks.blocks.shape == (grid.n_base // 2 + 1, grid.n_fiber, grid.n_fiber)
        assert blocks.multiplicity.sum() == grid.n_base

    def test_propagator_matches_dense(self, block_case, rng):
        grid, _, op = block_case
        block = semigroup.Propagator(op.form, op.weights)
        assert block.path == "block"
        vals, vecs = dense_eigh(op.form, op.weights)
        f = rng.standard_normal(grid.n)
        coef = vecs.T @ (op.weights * f)
        for t in (0.0, 0.1, 1.0):
            dense = vecs @ (np.exp(-0.5 * t * vals) * coef)
            assert grid.norm(block.apply(t, f) - dense) < 1e-10 * grid.norm(f)
        assert grid.norm(block.apply(0.0, f) - f) < 1e-10 * grid.norm(f)

    def test_eigenvalues_match_dense(self, block_case):
        _, _, op = block_case
        ref = dense_eigh(op.form, op.weights, eigvals_only=True)
        assert_spectra_match(semigroup.pencil_eigenvalues(op.form, op.weights), ref)
        block = semigroup.Propagator(op.form, op.weights)
        assert_spectra_match(block.blocks.spectrum(block.eigenvalues), ref)

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

    def test_ellipse_falls_back_to_dense(self, rng):
        grid = discretize.build_grid(tl.ellipse_curve(1.2, 0.8), 12, 8, 8)
        spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
        op = discretize.renormalize(grid, "H", 0.1, spectrum.lambda0)
        prop = semigroup.Propagator(op.form, op.weights)
        assert prop.path == "dense"
        vals = dense_eigh(op.form, op.weights, eigvals_only=True)
        assert_spectra_match(prop.blocks.spectrum(prop.eigenvalues), vals)
        alpha = spectrum.lambda0 + 1.5
        w = rng.standard_normal(grid.n)
        f, info = semigroup.resolvent_minimizer(op, alpha, w)
        assert info["spectral_path"] == "dense"
        A = op.form.toarray() + alpha * np.diag(op.weights)
        ref = scipy.linalg.solve(A, op.weights * w, assume_a="pos")
        assert grid.norm(f - ref) < 1e-10 * grid.norm(ref)


def _pencil(model, n_base, n_fiber, n_theta=16, which="H"):
    grid = discretize.build_grid(model, n_base, n_fiber, n_theta)
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    op = discretize.renormalize(grid, which, 0.1, spectrum.lambda0)
    return op.form, op.weights


# pencil -> (n_base, n_fiber) that fourier_blocks must find; (1, n) is the
# one block of a pencil without base structure
STRUCTURE_CASES = {
    "base-laplacian": (
        lambda: semigroup.base_laplacian(discretize.build_grid(tl.CircleInPlane(1.0), 64, 31)),
        (64, 1),
    ),
    "circle-induced": (lambda: _pencil(tl.CircleInPlane(1.0), 64, 31), (64, 31)),
    "circle-sasaki": (lambda: _pencil(tl.CircleInPlane(1.0), 64, 31, which="HSa"), (64, 31)),
    "untwisted-curve": (
        lambda: _pencil(tl.constant_curve(1.0, 0.0, 2.0 * math.pi), 16, 10, 8), (16, 80)
    ),
    "twisted-curve": (
        lambda: _pencil(tl.constant_curve(1.0, 1.0, 2.0 * math.pi), 16, 8, 8), (1, 16 * 64)
    ),
    "ellipse": (lambda: _pencil(tl.ellipse_curve(1.2, 0.8), 12, 8, 8), (1, 12 * 64)),
    "synthetic": (lambda: _pencil(tl.SyntheticFiberModel(2, 1.5), 1, 12, 8), (1, 96)),
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
