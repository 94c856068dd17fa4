"""Grid assembly, operator structure, and form consistency checks."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from tubelab import discretize, fiber as fiber_mod
from tubelab.errors import ResolutionError
from tubelab.forms import Form
from tubelab.geometry import constant_curve


class TestGrid:
    def test_total_weight_circle(self, circle_grid):
        # base length 2*pi*R times fiber length 2
        assert np.sum(circle_grid.weights) == pytest.approx(4 * math.pi, abs=1e-10)

    def test_total_weight_synthetic(self, synthetic_grid):
        assert np.sum(synthetic_grid.weights) == pytest.approx(math.pi, abs=1e-12)

    def test_center_fiber_index(self, circle_grid):
        j = circle_grid.fiber.center_index()
        assert abs(circle_grid.fiber.s[j]) < 1e-14

    def test_center_fiber_index_needs_odd_count(self, circle_model):
        g = discretize.build_grid(circle_model, 16, 16)
        with pytest.raises(ResolutionError):
            g.fiber.center_index()

    def test_build_errors(self, circle_model, synthetic_model):
        with pytest.raises(ValueError):
            discretize.build_grid(circle_model, 4, 15)
        with pytest.raises(ValueError):
            discretize.build_grid(synthetic_model, 8, 16)
        # holonomy pi: the co-rotating frame closes up for any total torsion
        twisted = constant_curve(1.0, 0.5, 2 * math.pi)
        assert discretize.build_grid(twisted, 16, 15).n == 16 * 15 * 16

    def test_refined_grid(self, circle_model):
        # 15 * 1.5 = 22.5 rounds to 22, made odd so a node stays at s = 0
        fine = discretize.refined_grid(discretize.build_grid(circle_model, 32, 15))
        assert (fine.model, fine.n_base, fine.fiber.n) == (circle_model, 48, 23)
        fine.fiber.center_index()
        # a disc fiber scales its rings and keeps its angles
        curve = constant_curve(1.0, 0.0, 2 * math.pi)
        fine = discretize.refined_grid(discretize.build_grid(curve, 16, 8, 8))
        assert (fine.n_base, fine.fiber.n_r, fine.fiber.n_theta) == (24, 12, 8)


class TestForms:
    def test_sasaki_is_scaled_sum(self, circle_grid):
        eps = 0.2
        qs = discretize.assemble_form(circle_grid, "SasakiEps", eps)
        qv = discretize.assemble_form(circle_grid, "V")
        qh = discretize.assemble_form(circle_grid, "H")
        diff = np.max(np.abs((qs - qv / eps**2 - qh).toarray()))
        scale = max(np.max(np.abs(d)) for d in qs.diagonals.values())
        assert diff <= 1e-15 * scale

    def test_horizontal_energy_of_fourier_mode(self, circle_grid, circle_spectrum):
        # integral of sin^2 over the circle is pi; forward differences carry
        # the usual sin(h/2) symbol deficit
        f = np.outer(np.cos(circle_grid.base_x), circle_spectrum.ground_state).ravel()
        qh = discretize.assemble_form(circle_grid, "H")
        h = circle_grid.base_h
        symbol = (2.0 * math.sin(h / 2) / h) ** 2
        assert float(f @ (qh @ f)) == pytest.approx(math.pi * symbol, rel=1e-10)

    def test_vertical_energy_of_ground_state(self, circle_grid, circle_spectrum):
        f = np.outer(np.ones(circle_grid.n_base), circle_spectrum.ground_state).ravel()
        qv = discretize.assemble_form(circle_grid, "V")
        expect = circle_spectrum.lambda0 * 2 * math.pi
        assert float(f @ (qv @ f)) == pytest.approx(expect, rel=1e-12)

    def test_forms_positive_semidefinite(self, circle_grid, rng):
        eps = 0.15
        for which in ("V", "H", "SasakiEps", "InducedEps"):
            Q = discretize.assemble_form(circle_grid, which, eps)
            for _ in range(5):
                f = rng.standard_normal(circle_grid.n)
                assert float(f @ (Q @ f)) >= -1e-10 * float(f @ f)

    def test_eps_range_guard(self, circle_grid):
        with pytest.raises(ValueError):
            discretize.assemble_form(circle_grid, "SasakiEps", 1.5)
        with pytest.raises(ValueError):
            discretize.assemble_form(circle_grid, "InducedEps")

    def test_eps_free_forms_cached_by_name(self, circle_model):
        # an eps passed with an eps-free form is ignored: one cache entry
        g = discretize.build_grid(circle_model, 16, 8)
        for which in ("V", "H", "Omega", "P"):
            Q = discretize.assemble_form(g, which)
            assert discretize.assemble_form(g, which, 0.2) is Q
            assert discretize.assemble_form(g, which, 5.0) is Q
            assert [key for key in g.cache if key[0] == which] == [(which, None)]

    def test_omega_zero_for_flat_models(self, circle_grid):
        assert not discretize.assemble_form(circle_grid, "Omega").diagonals

    def test_omega_sign_and_vertical_bound(self, synthetic_grid, synthetic_model):
        # Omega is nonpositive and |Omega(f)| <= (c/3) q_V(f): the angular
        # derivative is one part of the flat fiber energy
        c = synthetic_model.curvature
        Om = discretize.assemble_form(synthetic_grid, "Omega")
        qv = discretize.assemble_form(synthetic_grid, "V")
        fields = discretize.random_fields(synthetic_grid, 10, 5)
        for f in fields:
            ov = float(f @ (Om @ f))
            assert ov <= 1e-12
            assert abs(ov) <= (c / 3.0) * float(f @ (qv @ f)) * (1 + 1e-9)

    def test_omega_blind_to_ground_band(self, synthetic_grid, rng):
        # shifting by the fiberwise ground-band component never changes Omega
        spec = fiber_mod.fiber_spectrum(synthetic_grid.fiber, n_modes=6)
        Om = discretize.assemble_form(synthetic_grid, "Omega")
        f = rng.standard_normal(synthetic_grid.n)
        g = f - fiber_mod.project_E0(synthetic_grid, spec, f)
        assert float(f @ (Om @ f)) == pytest.approx(float(g @ (Om @ g)), rel=1e-12)


class TestOperators:
    def test_apply_symmetric(self, circle_grid, rng):
        form = discretize.assemble_form(circle_grid, "InducedEps", 0.2)
        op = discretize.DiscreteOperator(circle_grid, form)
        f = rng.standard_normal(circle_grid.n)
        g = rng.standard_normal(circle_grid.n)
        assert circle_grid.inner(op.apply(f), g) == pytest.approx(
            circle_grid.inner(f, op.apply(g)), rel=1e-10
        )

    def test_flat_laplacians_commute(self, circle_grid, rng):
        dv = discretize.DiscreteOperator(circle_grid, discretize.assemble_form(circle_grid, "V"))
        dh = discretize.DiscreteOperator(circle_grid, discretize.assemble_form(circle_grid, "H"))
        f = rng.standard_normal(circle_grid.n)
        comm = dv.apply(dh.apply(f)) - dh.apply(dv.apply(f))
        scale = circle_grid.norm(dv.apply(dh.apply(f)))
        assert circle_grid.norm(comm) < 1e-10 * scale

    def test_renormalize_reference_identity(self, circle_grid, circle_spectrum):
        lam0 = circle_spectrum.lambda0
        op0 = discretize.renormalize(circle_grid, "SasakiEps", 1.0, lam0)
        expect = (
            discretize.assemble_form(circle_grid, "V")
            + discretize.assemble_form(circle_grid, "H")
            - lam0 * Form.diagonal(circle_grid.weights)
        )
        assert np.max(np.abs((op0.form - expect).toarray())) < 1e-13

    def test_renormalized_ground_energy_vanishes(self, circle_grid, circle_spectrum):
        eps = 0.2
        op0 = discretize.renormalize(circle_grid, "SasakiEps", eps, circle_spectrum.lambda0)
        f = np.outer(np.ones(circle_grid.n_base), circle_spectrum.ground_state).ravel()
        assert abs(op0.form_value(f)) < 1e-9 * circle_grid.inner(f, f)

    def test_renormalize_takes_tube_forms_only(self, circle_grid, circle_spectrum):
        # eps-free forms and a name of no form
        for which in "V P HSa".split():
            with pytest.raises(ValueError):
                discretize.renormalize(circle_grid, which, 0.2, circle_spectrum.lambda0)

    def test_p_zero_for_flat_models(self, circle_grid):
        P = discretize.assemble_form(circle_grid, "P")
        assert P.shape == (circle_grid.n, circle_grid.n) and not P.diagonals
        # the form is cached on the grid like every named form
        assert discretize.assemble_form(circle_grid, "P") is P

    def test_p_is_the_weighted_square_of_the_rotation_generator(self, synthetic_grid):
        # c/3 diag(W) kron(I, Z)^2, symmetrized, operation for operation in
        # scipy.sparse, with Z the centered -d_theta of each ring
        g, c = synthetic_grid, synthetic_grid.model.curvature
        nt, dt = g.fiber.n_theta, g.fiber.dtheta
        ring = sp.diags([-1.0 / (2 * dt), 1.0 / (2 * dt), -1.0 / (2 * dt), 1.0 / (2 * dt)],
                        [1, -1, 1 - nt, nt - 1], shape=(nt, nt))
        Z = sp.kron(sp.identity(g.n_base * g.fiber.n_r), ring, format="csr")
        assert np.array_equal(Z.toarray(), g.fiber.rotation_generator().toarray())
        ref = (sp.diags(g.weights) @ ((c / 3.0) * (Z @ Z))).tocsr()
        ref = ((ref + ref.T) * 0.5).tocsr()
        P = discretize.assemble_form(g, "P")
        assert discretize.assemble_form(g, "P") is P
        assert np.array_equal(P.toarray(), ref.toarray())

    def test_p_kills_ground_band_exactly(self, synthetic_grid, rng):
        g = synthetic_grid
        spec = fiber_mod.fiber_spectrum(g.fiber, n_modes=6)
        P = discretize.DiscreteOperator(g, discretize.assemble_form(g, "P"))
        f = rng.standard_normal(g.n)
        e0 = fiber_mod.project_E0(g, spec, f)
        assert g.norm(P.apply(e0)) == 0.0

    def test_p_commutes_with_fiber_laplacian(self, synthetic_grid, rng):
        g = synthetic_grid
        P = discretize.DiscreteOperator(g, discretize.assemble_form(g, "P"))
        dv = discretize.DiscreteOperator(g, discretize.assemble_form(g, "V"))
        f = rng.standard_normal(g.n)
        comm = dv.apply(P.apply(f)) - P.apply(dv.apply(f))
        scale = g.norm(dv.apply(f)) + g.norm(P.apply(f))
        assert g.norm(comm) < 1e-10 * scale

    def test_p_matches_omega_on_smooth_field(self, synthetic_grid):
        # centered (P) vs one-sided (Omega) angular differences agree on a
        # smooth field to the angular discretization order
        g = synthetic_grid
        r, t = g.fiber.node_rt()
        f = (1 - r**2) * r**2 * np.sin(2 * t)
        P = discretize.DiscreteOperator(g, discretize.assemble_form(g, "P"))
        Om = discretize.assemble_form(g, "Omega")
        pv = g.inner(f, P.apply(f))
        ov = float(f @ (Om @ f))
        assert pv == pytest.approx(ov, rel=0.08)
        # and the agreement tightens under angular refinement
        g2 = discretize.build_grid(g.model, 1, 48, 64)
        r2, t2 = g2.fiber.node_rt()
        f2 = (1 - r2**2) * r2**2 * np.sin(2 * t2)
        P2 = discretize.DiscreteOperator(g2, discretize.assemble_form(g2, "P"))
        pv2 = g2.inner(f2, P2.apply(f2))
        ov2 = float(f2 @ (discretize.assemble_form(g2, "Omega") @ f2))
        assert abs(pv2 / ov2 - 1.0) < abs(pv / ov - 1.0)


class TestResidualAndNorms:
    def test_residual_bounded_in_eps(self, circle_model):
        g = discretize.build_grid(circle_model, 16, 15)
        bounds = [discretize.residual_h1_bound(g, e) for e in (0.2, 0.1, 0.05)]
        assert all(b < 3.0 for b in bounds)
        assert bounds[2] <= bounds[0] * 1.05

    def test_residual_first_order_synthetic(self, synthetic_model):
        # with the curvature term subtracted the metric residual is O(eps)
        g = discretize.build_grid(synthetic_model, 1, 24, 16)
        b1 = discretize.residual_h1_bound(g, 0.2)
        b2 = discretize.residual_h1_bound(g, 0.1)
        assert b1 / b2 == pytest.approx(2.0, rel=0.3)

    @pytest.mark.parametrize("model, shape", [
        ("circle_model", (16, 15)), ("synthetic_model", (1, 24, 16)),
    ])
    def test_residual_bound_matches_scipy_generalized_eigh(self, model, shape, request):
        g = discretize.build_grid(request.getfixturevalue(model), *shape)
        B = np.diag(g.weights) + discretize.h1_form(g).toarray()
        for eps in (0.2, 0.1, 0.05):
            Q = ((discretize.assemble_form(g, "InducedEps", eps)
                  - discretize.assemble_form(g, "SasakiEps", eps)
                  - discretize.assemble_form(g, "Omega")) / eps).toarray()
            Q = 0.5 * (Q + Q.T)
            ref = np.max(np.abs(scipy.linalg.eigh(Q, B, eigvals_only=True)))
            # both reduce the pencil by the Cholesky factor of B; its computed
            # eigenvalues are those of a matrix within p(n) u |Q|_2 |B^-1|_2
            # of L^-1 Q L^-T (Golub & Van Loan 2013, Sec. 8.7.2), p(n) taken
            # as n, so the two differ by at most twice that (measured: under
            # 0.4% of it)
            u = np.finfo(float).eps / 2
            bound = 2 * g.n * u * np.linalg.norm(Q, 2) / np.linalg.eigvalsh(B)[0]
            assert abs(discretize.residual_h1_bound(g, eps) - ref) <= bound

    def test_sobolev_norm_ordering(self, circle_grid, rng):
        f = rng.standard_normal(circle_grid.n)
        n0 = discretize.sobolev_norm(circle_grid, f, 0)
        n1 = discretize.sobolev_norm(circle_grid, f, 1)
        n2 = discretize.sobolev_norm(circle_grid, f, 2)
        assert n0 <= n1 <= n2
        with pytest.raises(ValueError):
            discretize.sobolev_norm(circle_grid, f, -1)

    def test_sobolev_norm_any_order_matches_dense(self, circle_model, rng):
        # |f|_k^2 = sum_{j <= k} <f, L^j f>_W, L = W^-1 Q1, built densely
        g = discretize.build_grid(circle_model, 16, 8)
        L = discretize.h1_form(g).toarray() / g.weights[:, None]
        f = rng.standard_normal(g.n)
        powers = [f]
        for _ in range(4):
            powers.append(L @ powers[-1])
        terms = [g.inner(f, p) for p in powers]
        for k in range(5):
            ref = math.sqrt(sum(terms[: k + 1]))
            assert discretize.sobolev_norm(g, f, k) == pytest.approx(ref, rel=1e-12)

    def test_sobolev_norm_stack_holds_the_per_field_bits(self, layout_grid):
        # the per-field loop of the formula: one sparse product and one dot
        # per odd order, one weighted sum per even order
        _, g = layout_grid
        q1, w = discretize.h1_form(g), g.weights
        fields = discretize.random_fields(g, 5, 3)
        for k in range(5):
            norms = discretize.sobolev_norm(g, fields, k)
            assert norms.shape == (5,)
            for f, norm in zip(fields, norms):
                h, total = f, float(np.sum(w * f * f))
                for j in range(1, k + 1):
                    if j % 2:
                        qh = q1 @ h
                        total += float(h @ qh)
                    else:
                        h = qh / w
                        total += float(np.sum(w * h * h))
                assert norm == math.sqrt(total) == discretize.sobolev_norm(g, f, k)

    def test_h1_form_is_the_cached_sasaki_form_at_eps_1(self, circle_model):
        g = discretize.build_grid(circle_model, 16, 8)
        q1 = discretize.h1_form(g)
        assert q1 is discretize.assemble_form(g, "SasakiEps", 1.0)
        ref = discretize.assemble_form(g, "V") + discretize.assemble_form(g, "H")
        assert np.array_equal(q1.toarray(), ref.toarray())

    def test_random_fields_deterministic(self, circle_grid):
        a = discretize.random_fields(circle_grid, 3, 42)
        b = discretize.random_fields(circle_grid, 3, 42)
        c = discretize.random_fields(circle_grid, 3, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_random_fields_prefix_is_the_smaller_draw(self, layout_grid):
        # one draw and one solve for the whole stack: each field's bits do
        # not depend on how many fields are drawn with it
        _, grid = layout_grid
        full = discretize.random_fields(grid, 100, 12345)
        assert full.shape == (100, grid.n)
        for k in (1, 7, 20):
            assert np.array_equal(discretize.random_fields(grid, k, 12345), full[:k])
