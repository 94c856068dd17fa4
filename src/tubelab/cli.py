"""Command line driver: validate | sweep | mc | fiber | resolvent.

Configuration is a single YAML file with nested sections.  load_config
parses it against SCHEMA: unknown keys, keys that the model kind does not
read (KIND_KEYS), wrong types and out-of-range values are rejected, and
every default is filled in.  main resolves the running subcommand's eps list
and builds the model, the grid and the fiber spectrum once; it passes the
eps list, the grid (whose model is grid.model) and the spectrum to the
subcommand, and nothing below rebuilds them.  Each subcommand checks that it
can run on them before its own numerics.

A subcommand touches no file: it returns a Result naming its result files,
its verdict and its run.log lines.  main alone writes them, stamping
config_hash, version and seed into every JSON file, and turns the verdict
into the exit code; an error raised before that leaves no result file.  All
result files are deterministic for a fixed config and seed (wall-clock
timings go to run.log, which is excluded from that guarantee).

Exit codes: 0 success, 1 property failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

# The package modules, and numpy with them, load before yaml and the
# standard library modules below.  Loaded after them, they raise the peak
# resident memory: by about 0.75 MB for `from tubelab import cli` alone, and
# by about 0.06 MB on the readme benchmark workload (x86_64, numpy 2.4).
from . import __version__, discretize, fiber as fiber_mod, geometry, semigroup, stochastic, suites
from .errors import ConfigError, ResolutionError, TubelabError

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _check(what, ok):
    """A parser that passes a value through when ok(value) holds."""

    def parse(value):
        if not ok(value):
            raise ValueError(f"must be {what}")
        return value

    return parse


def _count(lo):
    # type() rather than isinstance(): YAML's true/false are not counts
    return _check(f"an integer >= {lo}", lambda v: type(v) is int and v >= lo)


def _real(what, ok=lambda x: True):
    def parse(value):
        # strings too: PyYAML reads exponents without a dot ("1e-3") as strings
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            x = math.nan
        if type(value) is bool or not (math.isfinite(x) and ok(x)):
            raise ValueError(f"must be {what}")
        return x

    return parse


def _reals(what, ok):
    """A nonempty list of finite numbers, returned as a tuple."""
    real = _real(what)

    def parse(value):
        if not isinstance(value, list) or not value:
            raise ValueError(f"must be {what}")
        xs = tuple(real(v) for v in value)
        if not ok(xs):
            raise ValueError(f"must be {what}")
        return xs

    return parse


SEED = _check("an integer in [0, 2**64)", lambda v: type(v) is int and 0 <= v < 2**64)
COUNT = _count(1)
REAL = _real("a finite number")
POSITIVE = _real("a positive number", lambda x: x > 0)
EPS_LIST = _reals(
    "a strictly decreasing list of numbers in (0, 1)",
    lambda xs: all(0.0 < x < 1.0 for x in xs) and all(b < a for a, b in zip(xs, xs[1:])),
)
TIMES = _reals("a list of numbers >= 0", lambda xs: min(xs) >= 0.0)

# Every config key as (parser, default).  A parser checks type and range.
# A None default means "not given": model.kind and the eps_list of the
# running subcommand are required; grid.n_base and validate.eps_list have
# model-dependent defaults (build_grid, _eps_list).
SCHEMA = {
    "seed": (SEED, 12345),
    "model": {
        "kind": (
            _check("circle, curve or synthetic", lambda v: v in ("circle", "curve", "synthetic")),
            None,
        ),
        "radius": (POSITIVE, 1.0),
        "kappa0": (REAL, 1.0),
        "tau0": (REAL, 0.0),
        "length": (POSITIVE, 2.0 * math.pi),
        "curvature": (REAL, 0.0),
    },
    "grid": {"n_base": (COUNT, None), "n_fiber": (COUNT, 31), "n_theta": (COUNT, 16)},
    "sweep": {
        "eps_list": (EPS_LIST, None),
        "t_min": (POSITIVE, 0.1),
        "t_max": (POSITIVE, 1.0),
        "n_t": (COUNT, 10),
        "pre_check": (_check("true or false", lambda v: type(v) is bool), False),
    },
    "resolvent": {
        "eps_list": (EPS_LIST, None),
        # -Delta_base + alpha_offset on a closed curve is singular for offset <= 0
        "alpha_offset": (POSITIVE, 1.5),
        "n_perturbations": (COUNT, 20),
    },
    "mc": {
        "eps_list": (EPS_LIST, None),
        "n_paths": (COUNT, 100000),
        # dt <= eps^2 / dt_divisor; the sampler needs dt <= eps^2 / 10
        "dt_divisor": (_real("a number >= 10", lambda x: x >= 10.0), 20.0),
        "horizon": (POSITIVE, 1.0),
        "t_eval": (TIMES, (0.5,)),
        "theta0": (REAL, 0.0),
    },
    # the report needs the first excited multiplet, so two modes at least
    "fiber": {"n_modes": (_count(2), 6)},
    "validate": {"eps_list": (EPS_LIST, None), "n_fields": (COUNT, 100)},
}

# The model kinds that read each kind-specific key: the model parameters, and
# the disc fiber's angle count (the circle's fiber is an interval).  A key
# given to another kind is refused rather than ignored.
KIND_KEYS = {
    "model.radius": ("circle",),
    "model.kappa0": ("curve",),
    "model.tau0": ("curve",),
    "model.length": ("curve",),
    "model.curvature": ("synthetic",),
    "grid.n_theta": ("curve", "synthetic"),
}


def _parse(name, parser, value):
    try:
        return parser(value)
    except ValueError as exc:
        raise ConfigError(f"{name} {exc}, got {value!r}") from None


def _parse_mapping(name, spec, given):
    """Parse the mapping `given` against `spec`, filling every default."""
    if not isinstance(given, dict):
        raise ConfigError(f"{name or 'config'} must be a mapping")
    prefix = f"{name}." if name else ""
    for key in given:
        if key not in spec:
            raise ConfigError(f"unknown config key {prefix}{key}")
    parsed = {}
    for key, entry in spec.items():
        if isinstance(entry, dict):
            parsed[key] = _parse_mapping(prefix + key, entry, given.get(key, {}))
        elif key in given:
            parsed[key] = _parse(prefix + key, entry[0], given[key])
        else:
            parsed[key] = entry[1]
    return parsed


def load_config(path):
    """Read and validate a config file against SCHEMA.

    Returns (cfg, digest): cfg maps "seed" and every section of SCHEMA to
    its parsed values, defaults filled in; digest is the SHA-256 of the raw
    bytes.  Raises ConfigError naming the offending key."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        given = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    cfg = _parse_mapping("", SCHEMA, given)
    kind = cfg["model"]["kind"]
    for name, kinds in KIND_KEYS.items():
        section, key = name.split(".")
        if kind is not None and kind not in kinds and key in given.get(section, {}):
            raise ConfigError(f"{name} does not apply to the {kind} model")
    return cfg, hashlib.sha256(raw).hexdigest()


def _eps_list(cfg, command):
    """The running subcommand's eps list, () for fiber; validate's default
    depends on the model kind."""
    if command == "fiber":
        return ()
    eps_list = cfg[command]["eps_list"]
    if eps_list is None and command == "validate":
        return (0.1,) if cfg["model"]["kind"] == "synthetic" else (0.2, 0.1, 0.05, 0.025)
    if eps_list is None:
        raise ConfigError(f"{command}.eps_list is required")
    return eps_list


def _check_tube_radius(cfg, eps_list):
    """Every tube radius must stay below the focal radius of the base curve,
    where the tube's Fermi chart degenerates."""
    m, eps = cfg["model"], max(eps_list, default=0.0)
    if m["kind"] == "circle" and eps >= m["radius"]:
        raise ConfigError(f"model.radius {m['radius']:g} must exceed every eps, got {eps:g}")
    if m["kind"] == "curve" and eps * abs(m["kappa0"]) >= 1.0:
        raise ConfigError(f"model.kappa0: eps * |kappa0| must stay below 1, got eps {eps:g}")


def build_model(cfg):
    m = cfg["model"]
    try:
        if m["kind"] == "circle":
            return geometry.CircleInPlane(m["radius"])
        if m["kind"] == "curve":
            return geometry.constant_curve(m["kappa0"], m["tau0"], m["length"])
        if m["kind"] == "synthetic":
            return geometry.SyntheticFiberModel(m["curvature"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None
    raise ConfigError("model.kind is required")


def build_grid(cfg):
    """The grid of the config's model; its model is grid.model."""
    model, g = build_model(cfg), cfg["grid"]
    n_base = g["n_base"]
    if n_base is None:
        n_base = 1 if model.dim_base == 0 else 64
    try:
        return discretize.build_grid(model, n_base, g["n_fiber"], g["n_theta"])
    except (ValueError, NotImplementedError) as exc:
        raise ConfigError(f"grid: {exc}") from None


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


@dataclass
class Result:
    """What a subcommand returns: files maps each result file name to its
    JSON payload, or to (columns, rows) for a .csv; ok is the verdict; log
    holds the run.log lines."""

    files: dict
    ok: bool = True
    log: list = field(default_factory=list)


def cmd_validate(cfg, grid, spectrum, eps_list, seed, workers):
    results = {"composite_spectrum": suites.composite_spectrum_check(grid, eps_list[0])}
    fields = discretize.random_fields(grid, cfg["validate"]["n_fields"], seed)
    if isinstance(grid.model, geometry.SyntheticFiberModel):
        results["curvature_coupling"] = suites.curvature_coupling_suite(grid, spectrum, fields)
    else:
        values = suites.form_values(grid, spectrum, eps_list, fields)
        if values["eps"]:
            results["vertical_energy"] = suites.vertical_energy_suite(spectrum, values)
            results["metric_perturbation"] = suites.metric_perturbation_suite(values)
        results["coercivity"] = suites.coercivity_suite(spectrum, values)
        results["sasaki_limit"] = suites.sasaki_limit_check(
            grid, spectrum, eps_list, semigroup.default_t_grid(5)
        )
    results["ok"] = ok = all(v["ok"] for v in results.values())
    return Result({"validate.json": results}, ok)


def cmd_sweep(cfg, grid, spectrum, eps_list, seed, workers):
    if grid.model.dim_base == 0:
        raise ConfigError("sweep needs a base curve; the synthetic model has a point base")
    if len(eps_list) < 2:
        raise ConfigError("sweep.eps_list needs at least two entries to fit an order")
    scfg = cfg["sweep"]
    if scfg["t_min"] > scfg["t_max"]:
        raise ConfigError("sweep.t_min must not exceed sweep.t_max")
    t_grid = semigroup.default_t_grid(scfg["n_t"], scfg["t_min"], scfg["t_max"])
    result = semigroup.convergence_sweep(grid, spectrum, eps_list, t_grid, scfg["pre_check"])
    columns = ["eps", "t"] + [f"err_{nm}" for nm in semigroup.NORMS]
    sup = result.sup_errors
    checks = {
        **{f"strictly_decreasing_{nm}": bool(np.all(np.diff(v) < 0)) for nm, v in sup.items()},
        "order_at_least_0.8": bool(result.fitted_order >= 0.8),
        "r2_at_least_0.95": bool(result.r_squared >= 0.95),
        "final_L2_at_most_1e-2": bool(sup["L2"][-1] <= 1e-2),
    }
    summary = {
        "eps_list": eps_list,
        "fitted_order": result.fitted_order,
        "r_squared": result.r_squared,
        "lambda0": spectrum.lambda0,
        "n_base": grid.n_base,
        "n_fiber": cfg["grid"]["n_fiber"],
        "sup_errors": {k: v.tolist() for k, v in sup.items()},
        "spatial_error_estimate": result.spatial_error_estimate,
        **semigroup.by_key(result.propagators),
        **{f"pre_check_{key}": (result.pre_check_propagator or {}).get(key)
           for key in semigroup.PROPAGATOR_KEYS},
        "checks": checks,
    }
    return Result(
        {"sweep.csv": (columns, result.rows()), "sweep_summary.json": summary},
        all(checks.values()),
        [f"eps={eps} runtime_s={rt:.3f}" for eps, rt in zip(eps_list, result.runtimes)],
    )


def cmd_mc(cfg, grid, spectrum, eps_list, seed, workers):
    model = grid.model
    if not isinstance(model, geometry.CircleInPlane):
        raise ConfigError("mc requires the circle model")
    mcfg = cfg["mc"]
    T, t_eval, theta0, n_paths = mcfg["horizon"], mcfg["t_eval"], mcfg["theta0"], mcfg["n_paths"]
    if max(t_eval) > T:
        raise ConfigError("mc.t_eval values must lie in [0, mc.horizon]")
    try:
        grid.fiber.center_index()  # the operator route reads the fiber center
    except ResolutionError as exc:
        raise ConfigError(f"grid.n_fiber: {exc}") from None
    rows, diagnostics, log = [], [], []
    for eps in eps_list:
        n_steps = max(1, int(math.ceil(T / (eps**2 / mcfg["dt_divisor"]))))
        started = time.perf_counter()
        # the killed sampler: mc is the killed-path cross-check of the operator route
        ens = stochastic.sample_conditioned(
            model, eps, theta0, T, T / n_steps, n_paths, seed,
            t_record=t_eval, guided=False, workers=workers,
        )
        sample_s = time.perf_counter() - started
        times = ens.t_record.tolist()  # t_eval snapped to the step grid
        ests = [stochastic.marginal_estimate(ens, np.cos, t) for t in times]
        # the circle is rotation invariant: the route for cos started at
        # theta0 is the route for cos(. + theta0) started at node 0
        op_vals, flow_info = semigroup.conditional_flow_operator(
            grid, spectrum, eps, T, times, np.cos(grid.base_x / model.radius + theta0)
        )
        for t, est, op in zip(times, ests, op_vals):
            exact = stochastic.circle_heat_oracle(model.radius, theta0, t, [0.0, 1.0])
            rows.append([eps, t, est.value, est.std_error, float(op[0]), exact])
            diagnostics.append({
                "ess": est.ess, "n_survived": est.n_survived, "sampler": "killed",
                "survival": float(ens.survival_steps[round(t / ens.dt)]),
                **flow_info,
            })
        path_steps = n_paths * n_steps
        log.append(
            f"eps={eps} sample_s={sample_s:.3f} path_steps={path_steps} "
            f"path_steps_per_s={path_steps / sample_s:.4g} "
            f"live_step_fraction={np.mean(ens.survival_steps[:-1]):.4g} "
            f"blocks={stochastic.block_count(n_paths)} "
            f"workers={stochastic.pool_size(n_paths, workers)}"
        )
    ok = all(abs(r[2] - r[4]) <= 3.0 * r[3] for r in rows)
    columns = ["eps", "t", "mc_est", "mc_se", "op_route", "exact_limit"]
    summary = {"within_3_se_of_operator_route": ok, "rows": rows, "diagnostics": diagnostics}
    return Result({"mc.csv": (columns, rows), "mc_summary.json": summary}, ok, log)


def cmd_fiber(cfg, grid, spectrum, eps_list, seed, workers):
    payload = {
        "codim": spectrum.q,
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "multiplets": spectrum.multiplets,
        "lambda0": spectrum.lambda0,
        "lambda1": spectrum.lambda1,
        **spectrum.references(),
    }
    return Result({"fiber.json": payload})


def cmd_resolvent(cfg, grid, spectrum, eps_list, seed, workers):
    if grid.model.dim_base == 0:
        raise ConfigError("resolvent needs a base curve; the synthetic model has a point base")
    rcfg = cfg["resolvent"]
    alpha = spectrum.lambda0 + rcfg["alpha_offset"]
    w_field = semigroup.default_sweep_field(grid, spectrum) + 0.3 * np.outer(
        np.sin(grid.base_angle), spectrum.excited_profile
    ).ravel()
    rng = np.random.Generator(np.random.Philox(key=seed))
    errs, infos, variational_ok = semigroup.resolvent_study(
        grid, spectrum, eps_list, alpha, w_field, rng, rcfg["n_perturbations"]
    )
    checks = {
        "strictly_decreasing": bool(all(b < a for a, b in zip(errs, errs[1:]))),
        "final_error_at_most_1e-2": bool(errs[-1] <= 1e-2),
        "variational_minimum": variational_ok,
    }
    summary = {"alpha": alpha, "errors": errs, "checks": checks}
    summary.update(semigroup.by_key(
        infos, ("residual", "backward_error", "min_eigenvalue") + semigroup.PROPAGATOR_KEYS
    ))
    rows = [[eps, err] for eps, err in zip(eps_list, errs)]
    files = {"resolvent.csv": (["eps", "err_L2"], rows), "resolvent.json": summary}
    return Result(files, all(checks.values()))


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
        seed = cfg["seed"] if args.seed is None else _parse("--seed", SEED, args.seed)
        workers = _parse("--workers", COUNT, args.workers)
        eps_list = _eps_list(cfg, args.command)
        _check_tube_radius(cfg, eps_list)
        grid = build_grid(cfg)
        n_modes = cfg["fiber"]["n_modes"] if args.command == "fiber" else fiber_mod.DEFAULT_MODES
        try:
            spectrum = fiber_mod.fiber_spectrum(grid.fiber, n_modes)
        except ResolutionError as exc:  # more modes than the fiber grid resolves
            raise ConfigError(f"grid.n_fiber: {exc}") from None
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory: {exc}") from None
        result = COMMANDS[args.command](cfg, grid, spectrum, eps_list, seed, workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TubelabError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    stamp = {"config_hash": digest, "version": __version__, "seed": seed}
    for name, payload in result.files.items():
        path = os.path.join(args.out, name)
        if name.endswith(".csv"):
            write_csv(path, *payload, digest)
        else:
            write_json(path, {**payload, **stamp})
    if result.log:
        with open(os.path.join(args.out, "run.log"), "w") as fh:
            fh.writelines(line + "\n" for line in result.log)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
