"""Command line driver: validate | sweep | mc | fiber | resolvent.

Configuration is a single YAML file with nested sections; unknown keys are
rejected.  All result files are deterministic for a fixed config and seed
(wall-clock timings go to run.log, which is excluded from that guarantee).

Exit codes: 0 success, 1 property failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import yaml

from . import __version__, discretize, fiber as fiber_mod, geometry, semigroup, stochastic, suites
from .errors import ConfigError, TubelabError

SCHEMA = {
    "seed": None,
    "model": {"kind", "radius", "kappa0", "tau0", "length", "codim", "curvature"},
    "grid": {"n_base", "n_fiber", "n_theta"},
    "sweep": {"eps_list", "t_min", "t_max", "n_t", "pre_check"},
    "resolvent": {"eps_list", "alpha_offset", "n_perturbations", "delta"},
    "mc": {"eps_list", "n_paths", "dt_divisor", "horizon", "t_eval", "theta0"},
    "fiber": {"n_modes"},
    "validate": {"eps_list", "n_fields"},
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def load_config(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping of sections")
    for section, value in cfg.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        allowed = SCHEMA[section]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key in value:
            if key not in allowed:
                raise ConfigError(f"unknown key {section}.{key}")
    digest = hashlib.sha256(raw).hexdigest()
    return cfg, digest


def _eps_list(cfg, section, required=True):
    lst = cfg.get(section, {}).get("eps_list")
    if lst is None:
        if required:
            raise ConfigError(f"{section}.eps_list is required")
        return None
    lst = [float(e) for e in lst]
    if not lst or any(not 0.0 < e < 1.0 for e in lst):
        raise ConfigError(f"{section}.eps_list values must lie in (0, 1)")
    if any(b >= a for a, b in zip(lst, lst[1:])):
        raise ConfigError(f"{section}.eps_list must be strictly decreasing")
    return lst


def build_model(cfg):
    m = cfg.get("model")
    if not m or "kind" not in m:
        raise ConfigError("model.kind is required")
    kind = m["kind"]
    if kind == "circle":
        return geometry.CircleInPlane(float(m.get("radius", 1.0)))
    if kind == "curve":
        return geometry.constant_curve(
            float(m.get("kappa0", 1.0)),
            float(m.get("tau0", 0.0)),
            float(m.get("length", 2.0 * math.pi)),
        )
    if kind == "synthetic":
        return geometry.SyntheticFiberModel(
            int(m.get("codim", 2)), float(m.get("curvature", 0.0))
        )
    raise ConfigError(f"unknown model kind {kind!r}")


def build_grid(cfg, model):
    g = cfg.get("grid", {})
    n_base = int(g.get("n_base", 1 if model.dim_base == 0 else 64))
    n_fiber = int(g.get("n_fiber", 31))
    n_theta = int(g.get("n_theta", 16))
    return discretize.build_grid(model, n_base, n_fiber, n_theta)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(v):
    return f"{v:.12g}"


def write_csv(path, columns, rows, digest):
    with open(path, "w") as fh:
        fh.write(f"# tubelab {__version__} config_hash={digest}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def write_json(path, obj):
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(type(o).__name__)

    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=default)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(cfg, digest, out, seed, workers):
    model = build_model(cfg)
    grid = build_grid(cfg, model)
    vcfg = cfg.get("validate", {})
    n_fields = int(vcfg.get("n_fields", 100))
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    results = {"config_hash": digest, "version": __version__, "seed": seed}
    if isinstance(model, geometry.SyntheticFiberModel):
        eps0 = (_eps_list(cfg, "validate", required=False) or [0.1])[0]
        results["composite_spectrum"] = suites.composite_spectrum_check(grid, eps0)
        results["curvature_coupling"] = suites.curvature_coupling_suite(
            model, grid.fiber.n_r, grid.fiber.n_theta, seed, n_fields=min(n_fields, 25)
        )
    else:
        eps_list = _eps_list(cfg, "validate", required=False) or [0.2, 0.1, 0.05, 0.025]
        fields = discretize.random_fields(grid, n_fields, seed)
        bound = suites.admissible_eps_bound(spectrum)
        adm = [e for e in eps_list if e <= bound]
        results["composite_spectrum"] = suites.composite_spectrum_check(grid, eps_list[0])
        if adm:
            results["vertical_energy"] = suites.vertical_energy_suite(
                grid, spectrum, adm, fields
            )
            results["metric_perturbation"] = suites.metric_perturbation_suite(
                grid, spectrum, adm, fields
            )
        results["coercivity"] = suites.coercivity_suite(grid, spectrum, eps_list, fields)
        results["sasaki_limit"] = suites.sasaki_limit_check(
            grid, spectrum, adm or eps_list, semigroup.default_t_grid(5)
        )
    ok = all(v.get("ok", True) for v in results.values() if isinstance(v, dict))
    results["ok"] = ok
    write_json(os.path.join(out, "validate.json"), results)
    return 0 if ok else 1


def cmd_sweep(cfg, digest, out, seed, workers):
    model = build_model(cfg)
    scfg = cfg.get("sweep", {})
    eps_list = _eps_list(cfg, "sweep") or []
    t_grid = semigroup.default_t_grid(
        int(scfg.get("n_t", 10)),
        float(scfg.get("t_min", 0.1)),
        float(scfg.get("t_max", 1.0)),
    )
    gcfg = cfg.get("grid", {})
    result = semigroup.convergence_sweep(
        model,
        int(gcfg.get("n_base", 64)),
        int(gcfg.get("n_fiber", 31)),
        eps_list,
        t_grid=t_grid,
        n_theta=int(gcfg.get("n_theta", 16)),
        pre_check=bool(scfg.get("pre_check", False)),
    )
    write_csv(
        os.path.join(out, "sweep.csv"),
        ["eps", "t", "err_L2", "err_H1", "err_H2"],
        result.rows(),
        digest,
    )
    sup = result.sup_errors
    checks = {
        "strictly_decreasing_L2": bool(np.all(np.diff(sup["L2"]) < 0)),
        "strictly_decreasing_H1": bool(np.all(np.diff(sup["H1"]) < 0)),
        "strictly_decreasing_H2": bool(np.all(np.diff(sup["H2"]) < 0)),
        "order_at_least_0.8": bool(result.fitted_order >= 0.8),
        "r2_at_least_0.95": bool(result.r_squared >= 0.95),
        "final_L2_at_most_1e-2": bool(sup["L2"][-1] <= 1e-2),
    }
    write_json(
        os.path.join(out, "sweep_summary.json"),
        {
            "config_hash": digest,
            "version": __version__,
            "seed": seed,
            "eps_list": result.eps_list,
            "fitted_order": result.fitted_order,
            "r_squared": result.r_squared,
            "lambda0": result.lambda0,
            "n_base": result.n_base,
            "n_fiber": result.n_fiber,
            "sup_errors": {k: v.tolist() for k, v in sup.items()},
            "spatial_error_estimate": result.spatial_error_estimate,
            "spectral_path": result.spectral_paths,
            "pre_check_spectral_path": result.pre_check_spectral_path,
            "checks": checks,
        },
    )
    with open(os.path.join(out, "run.log"), "w") as fh:
        for eps, rt in result.runtimes.items():
            fh.write(f"eps={eps} runtime_s={rt:.3f}\n")
    return 0 if all(checks.values()) else 1


def _mc_one_eps(model, grid, spectrum, eps, mcfg, seed):
    T = float(mcfg.get("horizon", 1.0))
    t_eval = [float(t) for t in mcfg.get("t_eval", [0.5])]
    divisor = float(mcfg.get("dt_divisor", 20.0))
    n_paths = int(mcfg.get("n_paths", 100000))
    theta0 = float(mcfg.get("theta0", 0.0))
    n_steps = max(1, int(math.ceil(T / (eps**2 / divisor))))
    dt = T / n_steps
    # the killed sampler: mc is the killed-path cross-check of the operator route
    ens = stochastic.sample_conditioned(
        model, eps, theta0, T, dt, n_paths, seed, t_record=sorted(set(t_eval + [T])),
        guided=False,
    )
    rows = []
    node = int(np.argmin(np.abs(grid.base_x / model.radius - theta0)))
    for t in t_eval:
        est = stochastic.marginal_estimate(ens, np.cos, t)
        op_vals = semigroup.conditional_flow_operator(
            grid, spectrum, eps, T, t, np.cos(grid.base_x / model.radius)
        )
        exact = stochastic.circle_heat_oracle(model.radius, theta0, t, [0.0, 1.0])
        rows.append(
            [eps, t, est.value, est.std_error, float(op_vals[node]), exact]
        )
    return rows


def cmd_mc(cfg, digest, out, seed, workers):
    model = build_model(cfg)
    if not isinstance(model, geometry.CircleInPlane):
        raise ConfigError("mc requires the circle model")
    grid = build_grid(cfg, model)
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    mcfg = cfg.get("mc", {})
    eps_list = _eps_list(cfg, "mc")
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        chunks = list(
            pool.map(
                lambda e: _mc_one_eps(model, grid, spectrum, e, mcfg, seed), eps_list
            )
        )
    rows = [row for chunk in chunks for row in chunk]
    write_csv(
        os.path.join(out, "mc.csv"),
        ["eps", "t", "mc_est", "mc_se", "op_route", "exact_limit"],
        rows,
        digest,
    )
    ok = all(abs(r[2] - r[4]) <= 3.0 * r[3] for r in rows)
    write_json(
        os.path.join(out, "mc_summary.json"),
        {
            "config_hash": digest,
            "version": __version__,
            "seed": seed,
            "within_3_se_of_operator_route": ok,
            "rows": rows,
        },
    )
    return 0 if ok else 1


def cmd_fiber(cfg, digest, out, seed, workers):
    model = build_model(cfg)
    grid = build_grid(cfg, model)
    n_modes = int(cfg.get("fiber", {}).get("n_modes", 6))
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=n_modes)
    payload = {
        "config_hash": digest,
        "version": __version__,
        "codim": spectrum.q,
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "multiplets": spectrum.multiplets,
        "lambda0": spectrum.lambda0,
        "lambda1": spectrum.lambda1,
    }
    if spectrum.q == 1:
        payload["analytic"] = [
            spectrum.analytic_eigenvalue(k) for k in range(len(spectrum.eigenvalues))
        ]
    else:
        payload["bessel_oracle_lambda0"] = fiber_mod.bessel_j0_first_zero() ** 2
    write_json(os.path.join(out, "fiber.json"), payload)
    return 0


def cmd_resolvent(cfg, digest, out, seed, workers):
    model = build_model(cfg)
    grid = build_grid(cfg, model)
    spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes=6)
    rcfg = cfg.get("resolvent", {})
    eps_list = _eps_list(cfg, "resolvent")
    alpha = spectrum.lambda0 + float(rcfg.get("alpha_offset", 1.5))
    n_pert = int(rcfg.get("n_perturbations", 20))
    delta = float(rcfg.get("delta", 1e-3))
    radius = model.base_length / (2.0 * math.pi)
    phi0 = spectrum.ground_state
    phi1 = spectrum.eigenfunctions[:, spectrum.multiplets[1][0]]
    w_field = (
        np.outer(1.0 + 0.5 * np.cos(grid.base_x / radius), phi0)
        + 0.3 * np.outer(np.sin(grid.base_x / radius), phi1)
    ).ravel()
    # limit: ground-band resolvent of the base Laplacian
    Qb, wb = semigroup.base_laplacian(grid)
    fb = fiber_mod.extract_fb(grid, spectrum, w_field)
    gb = spla.spsolve((Qb + alpha * sp.diags(wb)).tocsc(), wb * fb)
    limit = np.outer(gb, phi0).ravel()
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows, infos, variational_ok = [], [], True
    for eps in eps_list:
        h0 = discretize.renormalize(
            discretize.assemble_operator(grid, "H", eps), spectrum.lambda0
        )
        f, info = semigroup.resolvent_minimizer(h0, alpha, w_field)
        err = grid.norm(f - limit)
        base_phi = semigroup.phi_functional(h0, alpha, w_field, f)
        for _ in range(n_pert):
            d = rng.standard_normal(grid.n)
            d *= delta / grid.norm(d)
            if semigroup.phi_functional(h0, alpha, w_field, f + d) <= base_phi:
                variational_ok = False
        rows.append([eps, err])
        infos.append(info)
    errs = [r[1] for r in rows]
    checks = {
        "strictly_decreasing": bool(all(b < a for a, b in zip(errs, errs[1:]))),
        "final_error_at_most_1e-2": bool(errs[-1] <= 1e-2),
        "variational_minimum": variational_ok,
    }
    write_csv(os.path.join(out, "resolvent.csv"), ["eps", "err_L2"], rows, digest)
    write_json(
        os.path.join(out, "resolvent.json"),
        {
            "config_hash": digest,
            "version": __version__,
            "seed": seed,
            "alpha": alpha,
            "errors": errs,
            "residual": [i["residual"] for i in infos],
            "min_eigenvalue": [i["min_eigenvalue"] for i in infos],
            "spectral_path": [i["spectral_path"] for i in infos],
            "checks": checks,
        },
    )
    return 0 if all(checks.values()) else 1


COMMANDS = {
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "mc": cmd_mc,
    "fiber": cmd_fiber,
    "resolvent": cmd_resolvent,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tubelab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg, digest = load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 12345))
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](cfg, digest, args.out, seed, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TubelabError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
