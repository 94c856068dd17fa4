"""Output-correctness gate: which result files of one pass are right.

A pass fails a check when a subcommand exits nonzero, when any `ok` or
`checks` flag the CLI wrote is false, when a Monte-Carlo estimate lies more
than 3 standard errors from the operator route, when the fiber ground energy
is off from (pi/2)^2 by more than the discretisation error of its grid, or
when the fitted sweep order falls outside 2 +- 0.2.  Result files are hashed
so that passes of one run can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# run.log holds wall-clock timings and is exempt from the determinism check
NONDETERMINISTIC = {"run.log"}

SWEEP_ORDER = 2.0
SWEEP_ORDER_TOL = 0.2
MC_MAX_SE = 3.0


def fiber_lambda0_tolerance(n_fiber):
    """Twice the leading error term (pi/2)^4 h^2 / 12 of the 3-point
    Dirichlet Laplacian on the interval fiber, h = 2 / n_fiber."""
    h = 2.0 / n_fiber
    return (math.pi / 2.0) ** 4 * h * h / 6.0


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _fiber(out_dir, cfg):
    lam0 = _load(out_dir, "fiber.json")["lambda0"]
    tol = fiber_lambda0_tolerance(cfg["grid"]["n_fiber"])
    return [("fiber.lambda0", abs(lam0 - (math.pi / 2.0) ** 2) <= tol)]


def _validate(out_dir, cfg):
    res = _load(out_dir, "validate.json")
    checks = [("validate.ok", res["ok"] is True)]
    for section, value in sorted(res.items()):
        if isinstance(value, dict):
            checks.append((f"validate.{section}.ok", value.get("ok") is True))
    return checks


def _flags(prefix, summary):
    return [(f"{prefix}.{k}", v is True) for k, v in sorted(summary["checks"].items())]


def _sweep(out_dir, cfg):
    summary = _load(out_dir, "sweep_summary.json")
    order_ok = abs(summary["fitted_order"] - SWEEP_ORDER) <= SWEEP_ORDER_TOL
    return _flags("sweep", summary) + [("sweep.fitted_order_2", order_ok)]


def _resolvent(out_dir, cfg):
    return _flags("resolvent", _load(out_dir, "resolvent.json"))


def _mc(out_dir, cfg):
    summary = _load(out_dir, "mc_summary.json")
    checks = [("mc.within_3_se_flag", summary["within_3_se_of_operator_route"] is True)]
    for eps, t, est, se, op_route, _exact in summary["rows"]:
        ok = se > 0 and abs(est - op_route) <= MC_MAX_SE * se
        checks.append((f"mc.eps{eps}_t{t}_within_3_se", ok))
    return checks


CHECKS = {
    "fiber": _fiber,
    "validate": _validate,
    "sweep": _sweep,
    "resolvent": _resolvent,
    "mc": _mc,
}


def check_pass(out_dir, cfg, exit_codes):
    """[(check name, passed)] for one pass; exit_codes maps command -> code."""
    checks = []
    for cmd, code in exit_codes.items():
        checks.append((f"{cmd}.exit_0", code == 0))
        try:
            checks += CHECKS[cmd](out_dir, cfg)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks.append((f"{cmd}.outputs_readable ({type(exc).__name__}: {exc})", False))
    return checks


def hash_outputs(out_dir):
    """File name -> SHA-256 of every result file except run.log."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name in NONDETERMINISTIC:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests
