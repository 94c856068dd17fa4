"""Fiber grids, spectra, and projections against analytic references."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from tubelab import fiber as fiber_mod
from tubelab.errors import ResolutionError

# first positive zeros of J0 and J1, Abramowitz & Stegun table 9.5
J0_ZERO = 2.404825557695773
J1_ZERO = 3.831705970207512
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def interval_lambda0(n):
    grid = fiber_mod.IntervalFiberGrid(n)
    return fiber_mod.fiber_spectrum(grid, n_modes=2).lambda0


class TestIntervalGrid:
    def test_total_weight_exact(self):
        g = fiber_mod.IntervalFiberGrid(31)
        assert np.sum(g.weights) == pytest.approx(2.0, abs=1e-14)

    def test_center_node_for_odd_count(self):
        g = fiber_mod.IntervalFiberGrid(31)
        assert np.min(np.abs(g.s)) < 1e-14

    def test_lambda0_accuracy(self):
        exact = (math.pi / 2) ** 2
        assert abs(interval_lambda0(255) - exact) < 1e-4

    def test_richardson_order(self):
        lams = [interval_lambda0(n) for n in (63, 127, 255)]
        order = math.log2((lams[0] - lams[1]) / (lams[1] - lams[2]))
        assert 1.8 <= order <= 2.2

    def test_higher_modes(self):
        g = fiber_mod.IntervalFiberGrid(127)
        sp = fiber_mod.fiber_spectrum(g, n_modes=4)
        for k in range(4):
            assert sp.eigenvalues[k] == pytest.approx(sp.references()["analytic"][k], rel=1e-3)

    def test_weighted_coefficient_form(self):
        # constant coefficient 2 doubles the form
        g = fiber_mod.IntervalFiberGrid(31)
        f = np.sin(math.pi * g.s)
        q1 = float(f @ (g.vertical_form() @ f))
        q2 = float(f @ (g.vertical_form(lambda w: np.full(w.shape + (1,), 2.0)) @ f))
        assert q2 == pytest.approx(2.0 * q1, rel=1e-12)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            fiber_mod.IntervalFiberGrid(4)


class TestPolarGrid:
    def test_total_weight_exact(self):
        g = fiber_mod.PolarFiberGrid(24)
        assert np.sum(g.weights) == pytest.approx(math.pi, abs=1e-13)

    def test_lambda0_vs_bessel(self):
        g = fiber_mod.PolarFiberGrid(127)
        sp = fiber_mod.fiber_spectrum(g, n_modes=2)
        assert abs(sp.lambda0 - J0_ZERO**2) < 1e-3

    def test_references_follow_the_multiplets(self):
        g = fiber_mod.PolarFiberGrid(31)
        sp = fiber_mod.fiber_spectrum(g)
        ref = sp.references()["analytic"]
        assert len(ref) == len(sp.eigenvalues)
        assert ref[:3] == pytest.approx([J0_ZERO**2, J1_ZERO**2, J1_ZERO**2], rel=1e-15)
        # one continuum level per multiplet, ascending across multiplets
        levels = []
        for idx in sp.multiplets:
            assert len({ref[i] for i in idx}) == 1
            levels.append(ref[idx[0]])
        assert levels == sorted(set(levels))
        assert sp.multiplets[:3] == [[0], [1, 2], [3, 4]]

    def test_excited_profile_is_a_unit_excited_field(self):
        g = fiber_mod.PolarFiberGrid(31)
        sp = fiber_mod.fiber_spectrum(g)
        assert np.sum(g.weights * sp.excited_profile**2) == pytest.approx(1.0, rel=1e-13)
        vals = sp.eigenvalues[sp.multiplets[1]]
        form = g.vertical_form() @ sp.excited_profile
        assert np.max(np.abs(form - vals[0] * g.weights * sp.excited_profile)) < 1e-9 * vals[0]

    def test_first_excited_is_doublet(self):
        g = fiber_mod.PolarFiberGrid(32)
        sp = fiber_mod.fiber_spectrum(g, n_modes=4)
        assert len(sp.multiplets[0]) == 1
        assert len(sp.multiplets[1]) == 2

    def test_ground_state_radial(self):
        g = fiber_mod.PolarFiberGrid(24)
        sp = fiber_mod.fiber_spectrum(g, n_modes=2)
        prof = sp.ground_state.reshape(g.n_r, g.n_theta)
        assert np.max(np.abs(prof - prof[:, :1])) == 0.0
        assert np.all(sp.ground_state >= 0)

    def test_rotation_generator_on_coordinates(self):
        for nt, tol in ((16, 0.03), (32, 0.008)):
            g = fiber_mod.PolarFiberGrid(24, nt)
            Z = g.rotation_generator()
            w = g.node_w()
            # the rotation derivation sends w1 to w2 (up to O(dtheta^2))
            assert np.max(np.abs(Z @ w[:, 0] - w[:, 1])) < tol
            # radial fields are annihilated exactly
            r, _ = g.node_rt()
            assert np.max(np.abs(Z @ (r**2))) == 0.0

    def test_asymmetric_cometric_refused(self):
        g = fiber_mod.PolarFiberGrid(8)
        sheared = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(NotImplementedError):
            g.vertical_form(lambda w: np.broadcast_to(sheared, w.shape + (2,)))

    def test_no_center_node(self):
        with pytest.raises(NotImplementedError):
            fiber_mod.PolarFiberGrid(8).center_index()


def _edge_sum(n, edges):
    """Dense form matrix of sum over edges of weight * (difference)^2; each
    edge is (weight, [(node, difference coefficient), ...])."""
    Q = np.zeros((n, n))
    for weight, terms in edges:
        for a, da in terms:
            for b, db in terms:
                Q[a, b] += da * weight * db
    return Q


def interval_reference(g, vertical):
    """Edge-by-edge vertical form of an interval grid: the two half-length
    wall edges and the n - 1 inner edges, coefficient at each midpoint."""
    n, h = g.n, g.h

    def coeff(s):
        return vertical(np.array([s]))[0, 0]

    edges = [(coeff(-1.0 + 0.25 * h) * (0.5 * h), [(0, 2.0 / h)])]
    for j in range(n - 1):
        edges.append((coeff(g.s[j] + 0.5 * h) * h, [(j, -1.0 / h), (j + 1, 1.0 / h)]))
    edges.append((coeff(1.0 - 0.25 * h) * (0.5 * h), [(n - 1, -2.0 / h)]))
    return _edge_sum(n, edges)


def polar_reference(g, vertical):
    """Edge-by-edge vertical form of a polar grid: radial edges between
    rings and to the wall, angular edges around each ring, the cometric
    sampled on the axis theta = 0."""
    nr, nt, h, dt = g.n_r, g.n_theta, g.h_r, g.dtheta

    def node(i, j):
        return i * nt + j

    radial = []
    for i in range(nr):
        rm = (i + 1) * h if i < nr - 1 else 1.0 - 0.5 * h
        weight = vertical(np.array([rm, 0.0]))[0, 0] * (h * rm * dt)
        for j in range(nt):
            terms = [(node(i, j), -1.0 / h)]
            if i < nr - 1:
                terms.append((node(i + 1, j), 1.0 / h))
            radial.append((weight, terms))
    angular = []
    for i in range(nr):
        r = g.r[i]
        weight = vertical(np.array([r, 0.0]))[1, 1] / (r * r) * (h * r * dt)
        for j in range(nt):
            angular.append((weight, [(node(i, j), -1.0 / dt), (node(i, (j + 1) % nt), 1.0 / dt)]))
    return _edge_sum(g.n_nodes, radial) + _edge_sum(g.n_nodes, angular)


def identity(w):
    return np.broadcast_to(np.eye(w.shape[-1]), w.shape + (w.shape[-1],))


def bumped(w):
    # a + b w w^T with a, b functions of |w|: rotationally symmetric, and
    # different along the radius and around it
    rr = w[..., 0] * w[..., 0] + w[..., -1] * w[..., -1]
    a = (1.0 + 0.5 * rr + 0.2 * w[..., 0])[..., None, None] * np.eye(w.shape[-1])
    return a + 0.3 * w[..., :, None] * w[..., None, :]


@pytest.mark.parametrize("vertical", [None, bumped], ids=["flat", "bumped"])
@pytest.mark.parametrize(
    "grid, reference",
    [
        (fiber_mod.IntervalFiberGrid(9), interval_reference),
        (fiber_mod.IntervalFiberGrid(16), interval_reference),
        (fiber_mod.PolarFiberGrid(8, 8), polar_reference),
        (fiber_mod.PolarFiberGrid(9, 12), polar_reference),
    ],
    ids=["interval9", "interval16", "disc8x8", "disc9x12"],
)
def test_vertical_form_matches_edge_by_edge_assembly(grid, reference, vertical):
    A = grid.vertical_form(vertical)
    B = reference(grid, vertical or identity)
    assert A.shape == B.shape and np.array_equal(A.toarray(), B)


class TestSpectrumAndProjections:
    def test_ground_state_normalized(self, circle_spectrum, circle_grid):
        g = circle_grid.fiber
        phi0 = circle_spectrum.ground_state
        assert np.sum(g.weights * phi0**2) == pytest.approx(1.0, abs=1e-12)

    def test_projection_idempotent_selfadjoint(self, circle_grid, circle_spectrum, rng):
        g = circle_grid
        f = rng.standard_normal(g.n)
        h = rng.standard_normal(g.n)
        pf = fiber_mod.project_E0(g, circle_spectrum, f)
        ppf = fiber_mod.project_E0(g, circle_spectrum, pf)
        assert np.max(np.abs(ppf - pf)) < 1e-12 * np.max(np.abs(pf))
        ph = fiber_mod.project_E0(g, circle_spectrum, h)
        assert g.inner(pf, h) == pytest.approx(g.inner(f, ph), rel=1e-10)

    def test_extract_fb_of_ground_product(self, circle_grid, circle_spectrum):
        gb = 1.0 + 0.3 * np.cos(circle_grid.base_x)
        f = np.outer(gb, circle_spectrum.ground_state).ravel()
        fb = fiber_mod.extract_fb(circle_grid, circle_spectrum, f)
        assert np.max(np.abs(fb - gb)) < 1e-12

    def test_mode_capacity_guard(self):
        g = fiber_mod.IntervalFiberGrid(16)
        with pytest.raises(ResolutionError):
            fiber_mod.fiber_spectrum(g, n_modes=12)


@pytest.mark.parametrize("grid, bitwise", [
    (fiber_mod.IntervalFiberGrid(31), True),
    (fiber_mod.PolarFiberGrid(31, 16), False),
], ids=["interval31", "disc31x16"])
def test_weighted_eigh_matches_the_generalized_driver(grid, bitwise):
    # the diagonal scaling follows LAPACK's xSYGS2 order: on a pencil below
    # xSYGST's block size it keeps the bits of scipy.linalg.eigh(B, diag(w))
    B, w = grid.vertical_form().toarray(), grid.weights
    ref_vals, ref_vecs = scipy.linalg.eigh(B, np.diag(w))
    ref_only = scipy.linalg.eigh(B, np.diag(w), eigvals_only=True)
    vals, vecs = fiber_mod.weighted_eigh(B, w)
    only = fiber_mod.weighted_eigh(B, w, eigvals_only=True)
    if bitwise:
        assert np.array_equal(vals, ref_vals) and np.array_equal(only, ref_only)
        assert np.array_equal(vecs, ref_vecs)
    else:
        # Weyl: each driver returns the exact eigenvalues of a matrix within
        # p(n) u |A|_2 of A = L^-1 B L^-T, p(n) taken as n (LAPACK's backward
        # error bound; Golub & Van Loan 2013, Sec. 8.3), so the two lists
        # differ by at most 2 n u |A|_2, |A|_2 the largest eigenvalue.  The
        # two drivers group their sums differently with the BLAS thread count
        # (measured at one thread: 1.15 u |A|_2 at lambda0)
        bound = 2 * len(w) * UNIT_ROUNDOFF * ref_vals[-1]
        assert np.max(np.abs(vals - ref_vals)) <= bound
        assert np.max(np.abs(only - ref_only)) <= bound
    assert np.max(np.abs(vecs.T @ (w[:, None] * vecs) - np.eye(len(w)))) < 1e-12
    # a stack of pencils is solved with the bits of one call per pencil
    stacked = fiber_mod.weighted_eigh(np.stack([B, 2.0 * B]), w, eigvals_only=True)
    assert np.array_equal(stacked[0], only)
    assert np.array_equal(stacked[1], fiber_mod.weighted_eigh(2.0 * B, w, eigvals_only=True))


def jn_zeros_levels(n):
    """The n lowest disc levels j_{m,k}^2 from scipy.special.jn_zeros, twice
    for m >= 1: the oracle of FiberSpectrum.references."""
    levels = scipy.special.jn_zeros(0, n) ** 2
    m = 1
    # j_{m,1} > m: no order from m on has a level below levels[-1]
    while m * m < levels[-1]:
        levels = np.sort(np.concatenate([levels, np.repeat(scipy.special.jn_zeros(m, n) ** 2, 2)]))
        levels = levels[:n]
        m += 1
    return levels


@pytest.mark.parametrize("shape", [(31, 16), (127, 16), (96, 32)],
                         ids=["disc31x16", "disc127x16", "disc96x32"])
def test_disc_references_match_scipy_bessel_zeros(shape):
    grid = fiber_mod.PolarFiberGrid(*shape)
    # references() reads only the number of computed levels: a 2-mode and a
    # 6-mode disc spectrum hold 3 and 6 (the excited pair is kept whole), one
    # at capacity at most capacity + 1
    for n in (3, 6, grid.mode_capacity + 1):
        spectrum = fiber_mod.FiberSpectrum(2, grid, np.zeros(n), None, [], None)
        levels = np.array(spectrum.references()["analytic"])
        ref = jn_zeros_levels(n)
        # the mean in fiber._bessel_j rounds arguments m tau - x sin tau of size up
        # to 2 pi m + x, so J_m carries an absolute error up to (2 pi m + j) u
        # near a zero j; the zero moves by that over |J_m'(j)|, and
        # j |J_m'(j)| >= 1.24 at every zero (its least value is at j_{0,1});
        # so j^2 moves by at most 2 (2 pi m + j) u / 1.24 < 2 (2 pi + 1) j u
        # relative, m < j.  A factor 2 covers the sum's rounding and the
        # oracle's own error
        bound = 4 * (2 * math.pi + 1) * np.sqrt(ref) * UNIT_ROUNDOFF
        assert len(levels) == n
        assert np.all(np.abs(levels - ref) <= bound * ref)


def test_bessel_zeros_bracket_every_zero_below_the_cut():
    # each zero moves by at most (2 pi m + j) u / |J_m'(j)| <= (2 pi m + j) u j
    # / 1.24 (the bound above), here with a factor 4 for the sum and the oracle
    for m in (0, 1, 7, 40):
        zeros = fiber_mod.bessel_zeros(m, 60.5)
        ref = scipy.special.jn_zeros(m, 30)
        ref = ref[ref < 60.5]
        assert len(zeros) == len(ref)
        assert np.all(np.abs(zeros - ref) <= 4 * (2 * math.pi * m + ref) * UNIT_ROUNDOFF * ref)
    assert len(fiber_mod.bessel_zeros(5, 5.0)) == 0
