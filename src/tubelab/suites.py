"""Inequality and structure suites shared by the CLI and the test battery.

Each suite returns a plain dict of measurements plus an "ok" flag so the
CLI can serialize it directly.  The inequalities are the discrete versions
of the collapse estimates; they hold exactly (up to roundoff slack) because
the discrete operators have the same tensor structure the proofs use.
The form suites are array expressions over one evaluation of every form on
the stack of probe fields (form_values), the one place that applies the
admissibility rule eps <= 1 - lambda0/lambda1.
"""

from __future__ import annotations

import math

import numpy as np

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
    tau * zeta_m (discretize.base_form); checked by solves per sector
    (fiber.weighted_eigh).  A sector's weight matrix U^H W U is diagonal,
    exactly: U has one nonzero per row."""
    qs = discretize.assemble_form(grid, "SasakiEps", eps)
    vals2d = discretize.DiscreteOperator(grid, qs).eig()
    fib = grid.fiber
    V = fib.vertical_form().toarray()
    parts = []
    for U, zeta in fib.angular_sectors():
        UH = U.conj().T
        sector_w = UH @ (fib.weights[:, None] * U)
        w = np.diagonal(sector_w)
        if np.any(sector_w - np.diag(w)):
            raise ValueError("an angular sector's weight matrix is not diagonal")
        # LAPACK reads the real part of a Hermitian diagonal
        fib_vals = fiber_mod.weighted_eigh(UH @ V @ U, w.real, eigvals_only=True)
        Qb = discretize.base_form(grid, zeta).toarray()
        base_vals = fiber_mod.weighted_eigh(Qb, grid.base_w, eigvals_only=True)
        parts.append((fib_vals[:, None] / eps**2 + base_vals[None, :]).ravel())
    composite = np.sort(np.concatenate(parts))
    scale = np.maximum(np.abs(composite), 1.0)
    rel = float(np.max(np.abs(np.sort(vals2d) - composite) / scale))
    return {"eps": eps, "max_rel_error": rel, "ok": bool(rel <= COMPOSITE_TOL)}


def form_values(grid, spectrum, eps_list, fields):
    """The form values the inequality suites read, one array per quantity
    over the stack of fields, at the eps of eps_list up to
    admissible_eps_bound ("eps"; applied here alone): n0sq = |f|^2, vV, vH,
    e0sq = |E0 f|^2 and h1sq = n0sq + vV + vH by field; vI, vS (InducedEps,
    SasakiEps) and their renormalized q0_ind, q0_sa by (eps, field).  The
    bound and the other eps ride along ("admissible_eps", "inadmissible_eps")."""
    bound = admissible_eps_bound(spectrum)
    eps_adm = [eps for eps in eps_list if eps <= bound]

    def value(which, eps=None):
        form = discretize.assemble_form(grid, which, eps)
        return discretize.DiscreteOperator(grid, form).form_value(fields)

    n0sq = grid.inner(fields, fields)
    vV, vH = value("V"), value("H")
    shift = np.array([spectrum.lambda0 / eps**2 for eps in eps_adm])[:, None] * n0sq
    vS, vI = (np.reshape([value(which, eps) for eps in eps_adm], (len(eps_adm), len(fields)))
              for which in discretize.TUBE_FORMS)
    e0 = fiber_mod.project_E0(grid, spectrum, fields)
    return {
        "admissible_eps": bound, "inadmissible_eps": [eps for eps in eps_list if eps > bound],
        "eps": eps_adm, "n0sq": n0sq, "vV": vV, "vH": vH, "e0sq": grid.inner(e0, e0),
        "h1sq": n0sq + vV + vH, "vI": vI, "vS": vS, "q0_ind": vI - shift, "q0_sa": vS - shift,
    }


def vertical_energy_suite(spectrum, values):
    """Discrete vertical-energy bounds against the renormalized form:
    (a) q_V(f) <= k * (eps * q0(f) + |E0 f|^2) with k = max(1, lambda0);
    (b) q_Sa,1(f) <= q0(f) + lambda0 |E0 f|^2,
    over every field at the admissible eps (one at least) of form_values."""
    lam0 = spectrum.lambda0
    k_sa = max(1.0, lam0)
    vV, q0, e0sq = values["vV"], values["q0_sa"], values["e0sq"]
    rhs_a = k_sa * (np.array(values["eps"])[:, None] * q0 + e0sq)
    rhs_b = q0 + lam0 * e0sq
    lhs_b = vV + values["vH"]  # Sasaki energy at eps = 1
    slack_a = REL_SLACK * np.maximum(np.maximum(np.abs(vV), np.abs(rhs_a)), 1.0)
    slack_b = REL_SLACK * np.maximum(np.maximum(np.abs(lhs_b), np.abs(rhs_b)), 1.0)
    violations = int(np.count_nonzero(vV > rhs_a + slack_a)
                     + np.count_nonzero(lhs_b > rhs_b + slack_b))
    return {
        "k_sa": k_sa,
        "admissible_eps": values["admissible_eps"],
        "violations": violations,
        "worst_margin_a": float(np.max(vV - rhs_a)),
        "worst_margin_b": float(np.max(lhs_b - rhs_b)),
        "n_fields": len(vV),
        "ok": violations == 0,
    }


def metric_perturbation_suite(values):
    """One constant, fit at the coarsest admissible eps (the first of
    values = form_values(...)), bounds the induced-minus-Sasaki form error
    |l_eps(f)| <= k_l * eps * (q0(f) + |f|_H1^2) across the sweep."""
    ratio = np.abs(values["vI"] - values["vS"]) / (
        np.array(values["eps"])[:, None] * (values["q0_sa"] + values["h1sq"]))
    worst = np.max(ratio, axis=1)
    k_l = float(worst[0])
    return {"k_l": k_l, "max_ratio_per_eps": dict(zip(values["eps"], worst.tolist())),
            "ok": bool(np.all(worst <= k_l * (1.0 + REL_SLACK)))}


def coercivity_suite(spectrum, values):
    """Uniform lower bound of the shifted renormalized form against the H1
    norm over the admissible eps of values = form_values(...); reports the
    worst constant (None without an admissible eps), and fails when any eps
    was inadmissible."""
    alpha = spectrum.lambda0 + COERCIVITY_OFFSET
    ratio = (values["q0_ind"] + alpha * values["n0sq"]) / values["h1sq"]
    c_min = float(np.min(ratio)) if ratio.size else None
    inadmissible = values["inadmissible_eps"]
    return {
        "alpha": alpha,
        "admissible_eps": values["admissible_eps"],
        "inadmissible_eps": inadmissible,
        "coercivity_constant": c_min,
        "ok": bool(not inadmissible and c_min is not None and c_min > 0),
    }


def sasaki_limit_check(grid, spectrum, eps_list, t_grid):
    """Hard semigroup bound: the distance from the product-metric flow to the
    projected base flow is at most exp(-t (lambda1-lambda0)/(2 eps^2)) |f|.

    The probe field is semigroup.default_sweep_field plus the excited
    profile (FiberSpectrum.excited_profile) weighted by EXCITED_MIXING.  The
    comparison carries an absolute allowance of SASAKI_ALLOWANCE_REL * |f|
    because the bound underflows for small eps while the eigensolver leaves
    roundoff of that order in the propagated field; worst_margin_rel is the
    largest (lhs - rhs) / |f|, to be read against allowance_rel.  The
    Propagator.info of each eps is reported as one list per key."""
    lam0, lam1 = spectrum.lambda0, spectrum.lambda1
    g1 = EXCITED_MIXING * (1.0 + np.cos(grid.base_angle))
    f = semigroup.default_sweep_field(grid, spectrum) + np.outer(
        g1, spectrum.excited_profile
    ).ravel()
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
    fiber Laplacian; both checked on the stack of random smoothed fields of
    a disc-fiber grid (discretize.random_fields), worst field reported."""
    P = discretize.DiscreteOperator(grid, discretize.assemble_form(grid, "P"))
    dv = discretize.DiscreteOperator(grid, discretize.assemble_form(grid, "V"))
    e0 = fiber_mod.project_E0(grid, spectrum, fields)
    r_proj = float(np.max(grid.norm(P.apply(e0)) / grid.norm(fields)))
    comm = dv.apply(P.apply(fields)) - P.apply(dv.apply(fields))
    r_comm = float(np.max(grid.norm(comm) / discretize.sobolev_norm(grid, fields, 2)))
    return {
        "n_fiber": grid.fiber.n_r,
        "n_fields": len(fields),
        "proj_ratio": r_proj,
        "commutator_ratio": r_comm,
        "ok": bool(r_proj <= 1e-6 and r_comm <= 1e-4),
    }
