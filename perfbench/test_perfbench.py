"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

import compare
import gate
import layers
import run
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from tubelab import cli, fiber  # noqa: E402

TINY_MC = {
    "seed": 5,
    "model": {"kind": "circle", "radius": 1.0},
    "grid": {"n_base": 16, "n_fiber": 15},
    "mc": {"eps_list": [0.2, 0.1], "n_paths": 2000, "horizon": 0.02, "t_eval": [0.01]},
}


def _write_config(tmp_path, cfg):
    path = tmp_path / "cfg.yaml"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_mc_outputs_identical_for_one_and_two_workers(tmp_path):
    cfg = _write_config(tmp_path, TINY_MC)
    digests = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        rc = cli.main(["mc", "--config", cfg, "--out", str(out), "--workers", str(workers)])
        assert rc in (0, 1)
        digests.append(gate.hash_outputs(str(out)))
    assert digests[0] == digests[1]
    assert set(digests[0]) == {"mc.csv", "mc_summary.json"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_follow_the_seed_and_load(tmp_path, name):
    assert workloads.config_for(name, 3) == workloads.config_for(name, 3)
    assert workloads.config_for(name, 3)["seed"] == 3
    cfg, _digest = cli.load_config(_write_config(tmp_path, workloads.config_for(name, 3)))
    assert cfg["seed"] == 3
    assert set(workloads.commands_for(name)) <= set(cli.COMMANDS)


def test_self_time_excludes_enclosed_spans():
    tracer = layers.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total_s["outer"] - tracer.total_s["inner"], abs=1e-12
    )
    assert tracer.self_s["inner"] == tracer.total_s["inner"] >= 0.02


def test_spec_names_the_traced_layers_and_workloads():
    spec = compare.load_spec()
    traced = [m for m, *_ in layers.LAYER_METRICS] + [layers.OVERHEAD_METRIC]
    assert [m["name"] for m in spec["per_layer"]] == traced
    # large-grid reproduces the nondeterministic 128 x 31 sweep and is not gated
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        set(workloads.WORKLOADS) - {"large-grid"}
    )


def test_fiber_gate_uses_the_discretisation_error(tmp_path):
    n = 31
    spec = fiber.fiber_spectrum(fiber.make_fiber_grid(1, n))
    err = abs(spec.lambda0 - (math.pi / 2) ** 2)
    tol = gate.fiber_lambda0_tolerance(n)
    assert err <= tol < 3 * err
    cfg = {"grid": {"n_fiber": n}}
    for lam0, ok in ((spec.lambda0, True), ((math.pi / 2) ** 2 - 2 * tol, False)):
        (tmp_path / "fiber.json").write_text(json.dumps({"lambda0": lam0}))
        assert gate.check_pass(str(tmp_path), cfg, {"fiber": 0}) == [
            ("fiber.exit_0", True), ("fiber.lambda0", ok)
        ]


def test_mc_gate_recomputes_the_3_se_test(tmp_path):
    row = [0.2, 0.05, 0.9754, 0.0001, 0.9750, 0.9753]
    (tmp_path / "mc_summary.json").write_text(
        json.dumps({"within_3_se_of_operator_route": True, "rows": [row]})
    )
    checks = dict(gate.check_pass(str(tmp_path), {}, {"mc": 0}))
    assert checks["mc.within_3_se_flag"] is True
    assert checks["mc.eps0.2_t0.05_within_3_se"] is False


def test_missing_outputs_and_exit_codes_fail(tmp_path):
    checks = gate.check_pass(str(tmp_path), {}, {"sweep": 1})
    assert checks[0] == ("sweep.exit_0", False)
    assert not checks[1][1] and checks[1][0].startswith("sweep.outputs_readable")


def test_differing_result_files_fail_the_determinism_check(tmp_path):
    passes = []
    for i, lam0 in enumerate(((math.pi / 2) ** 2, (math.pi / 2) ** 2 - 1e-9)):
        out = tmp_path / f"pass{i}"
        out.mkdir()
        (out / "fiber.json").write_text(json.dumps({"lambda0": lam0}))
        (out / "run.log").write_text(f"timing {i}\n")
        passes.append({"error": None, "out": str(out), "record": {"exit_codes": {"fiber": 0}}})
    checks = run.check_passes(passes, {"grid": {"n_fiber": 31}})
    assert [c for c, ok in checks if not ok] == ["deterministic.fiber.json"]
    assert "deterministic.run.log" not in dict(checks)


def test_trace_overhead_is_the_median_over_pass_pairs():
    layer_values = {m: 1 for m, *_ in layers.LAYER_METRICS}
    walls = [10.0, 11.0, 14.0, 14.5, 9.0, 12.0]  # untraced, traced, ...
    passes = [{"error": None, "traced": i % 2 == 1,
               "record": {"setup_s": 0.5, "wall_s": w, "peak_rss_mb": 100.0,
                          "command_s": {"mc": w}, "layers": layer_values}}
              for i, w in enumerate(walls)]
    metrics, layer = run.summarize("paths", passes, [0.5], trace=True)
    assert metrics["wall_s"] == 10.0
    assert layer[layers.OVERHEAD_METRIC] == 1.0


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, name), bench / name)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _record(seed, wall_s):
    return {
        "workload": "large-grid", "trace": 0, "seed": seed, "checks_attempted": 8,
        "checks_failed": [],
        "metrics": {"wall_s": wall_s, "setup_s": 0.5, "sweep_s": wall_s},
        "passes": [{"traced": False, "record": {"wall_s": wall_s}}],
    }


@pytest.mark.parametrize("slowdown, step, expected, status", [
    (1.0, 0.01, "same", 0),
    (1.3, 0.01, "WORSE", 1),
    # a quartile spread wider than the bound is unresolved, not a regression
    (1.3, 1.0, "UNRESOLVED", 0),
])
def test_compare_flags_regressions_beyond_the_bound(tmp_path, slowdown, step, expected, status):
    for side, factor in (("parent", 1.0), ("change", slowdown)):
        (tmp_path / side).mkdir()
        for seed in range(5):
            rec = _record(seed, factor * (5.0 + step * seed))
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(rec))
    lines, bad = compare.compare(str(tmp_path / "parent"), str(tmp_path / "change"),
                                 compare.load_spec())
    rows = {line.split()[0]: line for line in lines if line.startswith("   ")}
    assert expected in rows["wall_s"]
    # only the end-to-end metrics of BENCHMARK.json get a verdict
    assert "bound" not in rows["sweep_s"]
    assert int(bad) == status


def test_compare_fails_a_change_with_failed_checks(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        for seed in range(3):
            rec = _record(seed, 5.0)
            if side == "change":
                rec["checks_failed"] = ["deterministic.sweep.csv"]
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(rec))
    lines, bad = compare.compare(str(tmp_path / "parent"), str(tmp_path / "change"),
                                 compare.load_spec())
    assert bad
    assert "   change checks_failed 3/24: deterministic.sweep.csv" in lines
