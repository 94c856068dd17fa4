"""The inequality suites' form values against the per-field formulas."""

import numpy as np

from tubelab import discretize, fiber as fiber_mod, suites
from tubelab.geometry import SyntheticFiberModel


def per_field_values(grid, spectrum, eps, f):
    """The form values of one field at one eps, one product per form: the
    reference whose bits the stacked suites.form_values must hold."""
    qv, qh = discretize.assemble_form(grid, "V"), discretize.assemble_form(grid, "H")
    qi = discretize.assemble_form(grid, "InducedEps", eps)
    qs = discretize.assemble_form(grid, "SasakiEps", eps)
    w, lam0 = grid.weights, spectrum.lambda0
    ground = spectrum.ground_state
    fb = (f.reshape(grid.n_base, -1) @ (spectrum.grid.weights[:, None] * ground[:, None]))[:, 0]
    e0 = np.outer(fb, ground).ravel()
    n0sq = float(np.sum(w * f * f))
    vV, vH = float(f @ (qv @ f)), float(f @ (qh @ f))
    vI, vS = float(f @ (qi @ f)), float(f @ (qs @ f))
    return dict(
        n0sq=n0sq, vV=vV, vH=vH, e0sq=float(np.sum(w * e0 * e0)), vI=vI, vS=vS,
        q0_sa=vS - lam0 / eps**2 * n0sq, q0_ind=vI - lam0 / eps**2 * n0sq,
        h1sq=n0sq + vV + vH,
    )


def test_form_values_hold_the_per_field_bits(layout_grid):
    _, grid = layout_grid
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    bound = suites.admissible_eps_bound(spectrum)
    eps_list = [0.9, 0.2, 0.1]
    assert eps_list[0] > bound >= eps_list[1]
    fields = discretize.random_fields(grid, 12, 12345)
    values = suites.form_values(grid, spectrum, eps_list, fields)
    assert values["admissible_eps"] == bound
    assert values["inadmissible_eps"] == [0.9]
    assert values["eps"] == [0.2, 0.1]
    for i, eps in enumerate(values["eps"]):
        for j, f in enumerate(fields):
            ref = per_field_values(grid, spectrum, eps, f)
            for key in ("n0sq", "vV", "vH", "e0sq", "h1sq"):
                assert values[key][j] == ref[key], key
            for key in ("vI", "vS", "q0_sa", "q0_ind"):
                assert values[key][i, j] == ref[key], key


def loop_suites(spectrum, eps_list, per_eps):
    """The three form suites as loops over per_field_values, by eps
    (per_eps[eps] a list over fields, admissible eps only): the reference
    whose results the array suites must reproduce exactly."""
    lam0, bound = spectrum.lambda0, suites.admissible_eps_bound(spectrum)
    k_sa, slack = max(1.0, lam0), suites.REL_SLACK
    violations, worst_a, worst_b, ratios = 0, -np.inf, -np.inf, {}
    for eps, vals in per_eps.items():
        for v in vals:
            rhs_a = k_sa * (eps * v["q0_sa"] + v["e0sq"])
            rhs_b = v["q0_sa"] + lam0 * v["e0sq"]
            lhs_b = v["vV"] + v["vH"]
            violations += v["vV"] > rhs_a + slack * max(abs(v["vV"]), abs(rhs_a), 1.0)
            violations += lhs_b > rhs_b + slack * max(abs(lhs_b), abs(rhs_b), 1.0)
            worst_a, worst_b = max(worst_a, v["vV"] - rhs_a), max(worst_b, lhs_b - rhs_b)
        ratios[eps] = float(np.max([
            abs(v["vI"] - v["vS"]) / (eps * (v["q0_sa"] + v["h1sq"])) for v in vals]))
    k_l = next(iter(ratios.values()))
    alpha = lam0 + suites.COERCIVITY_OFFSET
    c_min = min((v["q0_ind"] + alpha * v["n0sq"]) / v["h1sq"]
                for vals in per_eps.values() for v in vals)
    inadmissible = [e for e in eps_list if e > bound]
    return (
        {"k_sa": k_sa, "admissible_eps": bound, "violations": violations,
         "worst_margin_a": worst_a, "worst_margin_b": worst_b, "n_fields": len(vals),
         "ok": violations == 0},
        {"k_l": k_l, "max_ratio_per_eps": ratios,
         "ok": all(r <= k_l * (1.0 + slack) for r in ratios.values())},
        {"alpha": alpha, "admissible_eps": bound, "inadmissible_eps": inadmissible,
         "coercivity_constant": c_min, "ok": not inadmissible and c_min > 0},
    )


def test_array_suites_match_the_loops(layout_grid):
    _, grid = layout_grid
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    eps_list = [0.9, 0.2, 0.1, 0.05]
    fields = discretize.random_fields(grid, 12, 7)
    values = suites.form_values(grid, spectrum, eps_list, fields)
    per_eps = {eps: [per_field_values(grid, spectrum, eps, f) for f in fields]
               for eps in values["eps"]}
    assert (suites.vertical_energy_suite(spectrum, values),
            suites.metric_perturbation_suite(values),
            suites.coercivity_suite(spectrum, values)) == loop_suites(spectrum, eps_list, per_eps)


def test_coupling_suite_matches_the_loop():
    # the per-field loop: one projection, five applies and one H2 norm each
    grid = discretize.build_grid(SyntheticFiberModel(1.5), 1, 16, 8)
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    fields = discretize.random_fields(grid, 12, 5)
    P = discretize.DiscreteOperator(grid, discretize.assemble_form(grid, "P"))
    dv = discretize.DiscreteOperator(grid, discretize.assemble_form(grid, "V"))
    r_proj, r_comm = 0.0, 0.0
    for f in fields:
        e0 = fiber_mod.project_E0(grid, spectrum, f)
        r_proj = max(r_proj, grid.norm(P.apply(e0)) / grid.norm(f))
        comm = dv.apply(P.apply(f)) - P.apply(dv.apply(f))
        r_comm = max(r_comm, grid.norm(comm) / discretize.sobolev_norm(grid, f, 2))
    rep = suites.curvature_coupling_suite(grid, spectrum, fields)
    assert rep == {"n_fiber": grid.fiber.n_r, "n_fields": 12, "proj_ratio": r_proj,
                   "commutator_ratio": r_comm, "ok": True}
    assert r_comm > 0.0
