"""Inequality and structure suites shared by the CLI and the test battery.

Each suite returns a plain dict of measurements plus an "ok" flag so the
CLI can serialize it directly.  The inequalities are the discrete versions
of the collapse estimates; they hold exactly (up to roundoff slack) because
the discrete operators have the same tensor structure the proofs use.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from . import discretize, fiber as fiber_mod, semigroup

REL_SLACK = 1e-9
# the coercivity suite tests the form shifted by lambda0 + COERCIVITY_OFFSET
COERCIVITY_OFFSET = 1.5
# weight of the first excited fiber mode in the Sasaki-limit probe field
EXCITED_MIXING = 0.5
# absolute allowance of the Sasaki-limit bound, relative to |f|
SASAKI_ALLOWANCE_REL = 1e-8
# largest relative eigenvalue error of the composite-spectrum check
COMPOSITE_TOL = 1e-9


def admissible_eps_bound(spectrum):
    """Largest tube radius for which the vertical-energy bounds apply."""
    return 1.0 - spectrum.lambda0 / spectrum.lambda1


def composite_spectrum_check(grid, eps):
    """Every eigenvalue of the Sasaki operator is, in one angular sector m of
    the fiber (angular_sectors; the interval is one sector), a level of the
    sector's fiber form over eps^2 plus one of the base form twisted by
    tau * zeta_m (discretize.base_form); checked by solves per sector."""
    qs = discretize.assemble_form(grid, "SasakiEps", eps)
    vals2d = discretize.DiscreteOperator(grid, qs).eig()
    fib = grid.fiber
    V, W = fib.vertical_form().toarray(), np.diag(fib.weights)
    parts = []
    for U, zeta in fib.angular_sectors():
        UH = U.conj().T
        fib_vals = scipy.linalg.eigh(UH @ V @ U, UH @ W @ U, eigvals_only=True)
        Qb = discretize.base_form(grid, zeta).toarray()
        base_vals = scipy.linalg.eigh(Qb, np.diag(grid.base_w), eigvals_only=True)
        parts.append((fib_vals[:, None] / eps**2 + base_vals[None, :]).ravel())
    composite = np.sort(np.concatenate(parts))
    scale = np.maximum(np.abs(composite), 1.0)
    rel = float(np.max(np.abs(np.sort(vals2d) - composite) / scale))
    return {"eps": eps, "max_rel_error": rel, "ok": bool(rel <= COMPOSITE_TOL)}


def form_values(grid, spectrum, eps_list, fields):
    """Per-field values of every form the inequality suites need, by eps:
    {eps: [values of field 0, field 1, ...]}.  The three suites share one
    evaluation, and the eps-independent values are computed once per field."""
    qv = discretize.assemble_form(grid, "V")
    qh = discretize.assemble_form(grid, "H")
    lam0 = spectrum.lambda0
    w = grid.weights
    fixed = []
    for f in fields:
        e0 = fiber_mod.project_E0(grid, spectrum, f)
        fixed.append(dict(
            n0sq=float(np.sum(w * f * f)),
            vV=float(f @ (qv @ f)),
            vH=float(f @ (qh @ f)),
            e0sq=float(np.sum(w * e0 * e0)),
        ))
    out = {}
    for eps in eps_list:
        qi = discretize.assemble_form(grid, "InducedEps", eps)
        qs = discretize.assemble_form(grid, "SasakiEps", eps)
        out[eps] = vals = []
        for f, v in zip(fields, fixed):
            vI = float(f @ (qi @ f))
            vS = float(f @ (qs @ f))
            vals.append(dict(
                v, vI=vI, vS=vS,
                q0_sa=vS - lam0 / eps**2 * v["n0sq"],
                q0_ind=vI - lam0 / eps**2 * v["n0sq"],
                h1sq=v["n0sq"] + v["vV"] + v["vH"],
            ))
    return out


def vertical_energy_suite(spectrum, values):
    """Discrete vertical-energy bounds against the renormalized form:
    (a) q_V(f) <= k * (eps * q0(f) + |E0 f|^2) with k = max(1, lambda0);
    (b) q_Sa,1(f) <= q0(f) + lambda0 |E0 f|^2,
    both for eps up to 1 - lambda0/lambda1.  values is form_values(...)."""
    lam0 = spectrum.lambda0
    k_sa = max(1.0, lam0)
    bound = admissible_eps_bound(spectrum)
    violations, worst_a, worst_b = 0, -np.inf, -np.inf
    for eps, vals in values.items():
        if eps > bound:
            raise ValueError(f"eps={eps} above the admissible bound {bound:.4f}")
        for v in vals:
            rhs_a = k_sa * (eps * v["q0_sa"] + v["e0sq"])
            rhs_b = v["q0_sa"] + lam0 * v["e0sq"]
            slack = REL_SLACK * max(abs(v["vV"]), abs(rhs_a), 1.0)
            if v["vV"] > rhs_a + slack:
                violations += 1
            worst_a = max(worst_a, v["vV"] - rhs_a)
            lhs_b = v["vV"] + v["vH"]  # Sasaki energy at eps = 1
            slack = REL_SLACK * max(abs(lhs_b), abs(rhs_b), 1.0)
            if lhs_b > rhs_b + slack:
                violations += 1
            worst_b = max(worst_b, lhs_b - rhs_b)
    return {
        "k_sa": k_sa,
        "admissible_eps": bound,
        "violations": violations,
        "worst_margin_a": worst_a,
        "worst_margin_b": worst_b,
        "n_fields": len(vals),
        "ok": violations == 0,
    }


def metric_perturbation_suite(values):
    """One constant, fit at the coarsest eps (the first of form_values(...)),
    bounds the induced-minus-Sasaki form error
    |l_eps(f)| <= k_l * eps * (q0(f) + |f|_H1^2) across the sweep."""
    ratios = {}
    for eps, vals in values.items():
        r = [
            abs(v["vI"] - v["vS"]) / (eps * (v["q0_sa"] + v["h1sq"]))
            for v in vals
        ]
        ratios[eps] = float(np.max(r))
    k_l = next(iter(ratios.values()))
    ok = all(ratio <= k_l * (1.0 + REL_SLACK) for ratio in ratios.values())
    return {"k_l": k_l, "max_ratio_per_eps": ratios, "ok": bool(ok)}


def coercivity_suite(spectrum, eps_list, values):
    """Uniform lower bound of the shifted renormalized form against the H1
    norm; reports the worst constant over the sweep.  values is
    form_values(...) over at least the admissible eps of eps_list."""
    alpha = spectrum.lambda0 + COERCIVITY_OFFSET
    bound = admissible_eps_bound(spectrum)
    inadmissible = [e for e in eps_list if e > bound]
    c_min = np.inf
    for eps in eps_list:
        if eps > bound:
            continue
        for v in values[eps]:
            c_min = min(c_min, (v["q0_ind"] + alpha * v["n0sq"]) / v["h1sq"])
    return {
        "alpha": alpha,
        "admissible_eps": bound,
        "inadmissible_eps": inadmissible,
        "coercivity_constant": float(c_min) if np.isfinite(c_min) else None,
        "ok": bool(not inadmissible and np.isfinite(c_min) and c_min > 0),
    }


def sasaki_limit_check(grid, spectrum, eps_list, t_grid):
    """Hard semigroup bound: the distance from the product-metric flow to the
    projected base flow is at most exp(-t (lambda1-lambda0)/(2 eps^2)) |f|.

    The probe field mixes the ground fiber state with a first excited one,
    weighted by EXCITED_MIXING.  The comparison carries an absolute allowance
    of SASAKI_ALLOWANCE_REL * |f| because the bound underflows for small eps
    while the eigensolver leaves roundoff of that order in the propagated
    field; worst_margin_rel is the largest (lhs - rhs) / |f|, to be read
    against allowance_rel.  The Propagator.info of each eps is reported as
    one list per key."""
    lam0, lam1 = spectrum.lambda0, spectrum.lambda1
    phi0 = spectrum.ground_state
    phi1 = spectrum.eigenfunctions[:, spectrum.multiplets[1][0]]
    g0 = 1.0 + 0.5 * np.cos(grid.base_angle)
    g1 = EXCITED_MIXING * (1.0 + np.cos(grid.base_angle))
    f = (np.outer(g0, phi0) + np.outer(g1, phi1)).ravel()
    nf = grid.norm(f)
    errors, infos, _ = semigroup.collapse_errors(grid, spectrum, "SasakiEps", eps_list, t_grid, f)
    lhs = errors[:, :, 0]
    rhs = np.array([
        [math.exp(-t * (lam1 - lam0) / (2.0 * eps**2)) * nf for t in t_grid] for eps in eps_list
    ])
    ok = np.all(lhs <= rhs * (1.0 + 1e-10) + SASAKI_ALLOWANCE_REL * nf)
    return {
        "ok": bool(ok),
        "worst_margin_rel": float(np.max(lhs - rhs)) / nf,
        "allowance_rel": SASAKI_ALLOWANCE_REL,
        **semigroup.by_key(infos),
    }


def curvature_coupling_suite(grid, spectrum, fields):
    """The coupling operator kills the ground band and commutes with the
    fiber Laplacian; both checked on the random smoothed fields of a
    disc-fiber grid (discretize.random_fields)."""
    P = discretize.DiscreteOperator(grid, discretize.assemble_form(grid, "P"))
    dv = discretize.DiscreteOperator(grid, discretize.assemble_form(grid, "V"))
    r_proj, r_comm = 0.0, 0.0
    for f in fields:
        e0 = fiber_mod.project_E0(grid, spectrum, f)
        r_proj = max(r_proj, grid.norm(P.apply(e0)) / grid.norm(f))
        comm = dv.apply(P.apply(f)) - P.apply(dv.apply(f))
        r_comm = max(r_comm, grid.norm(comm) / discretize.sobolev_norm(grid, f, 2))
    return {
        "n_fiber": grid.fiber.n_r,
        "n_fields": len(fields),
        "proj_ratio": r_proj,
        "commutator_ratio": r_comm,
        "ok": bool(r_proj <= 1e-6 and r_comm <= 1e-4),
    }
