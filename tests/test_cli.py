"""End-to-end CLI runs: exit codes, output files, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tubelab import cli, discretize, fiber, geometry, semigroup, stochastic, suites
from tubelab.errors import ResolutionError

BASE = """\
seed: 12345
model:
  kind: circle
  radius: 1.0
grid:
  n_base: 32
  n_fiber: 15
"""


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(args):
    return cli.main(args)


class TestConfigHandling:
    def test_missing_file(self, tmp_path):
        assert run(["fiber", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_unknown_section(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", BASE + "bogus_section:\n  x: 1\n")
        assert run(["fiber", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", BASE + "fiber:\n  typo_key: 3\n")
        assert run(["fiber", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_increasing_eps_list(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "c.yaml", BASE + "sweep:\n  eps_list: [0.1, 0.2]\n"
        )
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_eps_out_of_range(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "c.yaml", BASE + "resolvent:\n  eps_list: [1.2, 0.1]\n"
        )
        assert run(["resolvent", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


SYNTHETIC = "model:\n  kind: synthetic\ngrid:\n  n_fiber: 16\n"

# (subcommand, config): each is a user error that must exit 2 with one line
BAD_CONFIGS = {
    "null_section": ("fiber", BASE + "fiber:\n"),
    "list_section": ("fiber", BASE + "fiber:\n  - 1\n"),
    "radius_not_a_number": ("fiber", BASE.replace("radius: 1.0", "radius: abc")),
    "negative_radius": ("fiber", BASE.replace("radius: 1.0", "radius: -1")),
    "n_fiber_too_small": ("fiber", BASE.replace("n_fiber: 15", "n_fiber: 5")),
    "n_base_too_small": ("fiber", BASE.replace("n_base: 32", "n_base: 4")),
    "odd_n_theta": ("fiber", SYNTHETIC + "  n_theta: 15\n"),
    "synthetic_codim_3": ("fiber", SYNTHETIC.replace("synthetic\n", "synthetic\n  codim: 3\n")),
    "scalar_eps_list": ("sweep", BASE + "sweep:\n  eps_list: 0.1\n"),
    "eps_list_not_numbers": ("sweep", BASE + "sweep:\n  eps_list: [a]\n"),
    "zero_n_t": ("sweep", BASE + "sweep:\n  eps_list: [0.2, 0.1]\n  n_t: 0\n"),
    "zero_n_modes": ("fiber", BASE + "fiber:\n  n_modes: 0\n"),
    "seed_not_an_integer": ("fiber", BASE.replace("seed: 12345", "seed: x")),
    "sweep_on_synthetic": ("sweep", SYNTHETIC + "sweep:\n  eps_list: [0.2, 0.1]\n"),
    "t_eval_past_horizon": (
        "mc", BASE + "mc:\n  eps_list: [0.2]\n  n_paths: 100\n  horizon: 0.1\n  t_eval: [0.5]\n"
    ),
    "zero_n_fields": ("validate", BASE + "validate:\n  eps_list: [0.2]\n  n_fields: 0\n"),
    "resolvent_on_synthetic": ("resolvent", SYNTHETIC + "resolvent:\n  eps_list: [0.2, 0.1]\n"),
    "zero_n_paths": (
        "mc", BASE + "mc:\n  eps_list: [0.2]\n  n_paths: 0\n  horizon: 0.1\n  t_eval: [0.05]\n"
    ),
    "n_modes_over_capacity": ("fiber", BASE + "fiber:\n  n_modes: 1000\n"),
    # 10 interval nodes resolve 5 modes; sweep needs 6
    "n_fiber_below_sweep_modes": (
        "sweep", BASE.replace("n_fiber: 15", "n_fiber: 10") + "sweep:\n  eps_list: [0.2, 0.1]\n"
    ),
    "one_entry_sweep_eps_list": ("sweep", BASE + "sweep:\n  eps_list: [0.2]\n"),
    "sweep_t_min_above_t_max": (
        "sweep", BASE + "sweep:\n  eps_list: [0.2, 0.1]\n  t_min: 0.6\n  t_max: 0.2\n"
    ),
    # -Delta_base + alpha_offset is singular on a closed curve for offset <= 0
    "negative_alpha_offset": (
        "resolvent", BASE + "resolvent:\n  eps_list: [0.2, 0.1]\n  alpha_offset: -100\n"
    ),
    "zero_alpha_offset": (
        "resolvent", BASE + "resolvent:\n  eps_list: [0.2, 0.1]\n  alpha_offset: 0\n"
    ),
    # the operator route reads the fiber center, which an even interval grid lacks
    "even_n_fiber_for_mc": (
        "mc", BASE.replace("n_fiber: 15", "n_fiber: 16") + "mc:\n  eps_list: [0.2]\n"
        "  n_paths: 100\n  horizon: 0.1\n  t_eval: [0.05]\n"
    ),
    # a tube radius at or past the focal radius of the base curve
    **{
        f"eps_past_radius_{command}": (
            command, BASE.replace("radius: 1.0", "radius: 0.5") + f"{command}:\n"
            "  eps_list: [0.6, 0.1]\n"
        )
        for command in ("validate", "sweep", "resolvent", "mc")
    },
    "eps_at_radius": (
        "sweep", BASE.replace("radius: 1.0", "radius: 0.2") + "sweep:\n  eps_list: [0.2, 0.1]\n"
    ),
    "validate_default_eps_past_radius": ("validate", BASE.replace("radius: 1.0", "radius: 0.1")),
    # a key that the model kind does not read is refused, not ignored
    "twist_on_circle": (
        "fiber", BASE.replace("radius: 1.0", "tau0: 1.0\n  kappa0: 3.0\n  curvature: 2.0")
    ),
    "radius_on_synthetic": ("fiber", SYNTHETIC.replace("synthetic\n", "synthetic\n  radius: 2\n")),
    "n_theta_on_circle": ("fiber", BASE + "  n_theta: 32\n"),
    "eps_past_curve_focal_radius": (
        "resolvent", "model:\n  kind: curve\n  kappa0: 6\ngrid:\n  n_base: 16\n  n_fiber: 8\n"
        "  n_theta: 8\nresolvent:\n  eps_list: [0.2, 0.1]\n"
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, name):
    command, text = BAD_CONFIGS[name]
    cfg = write_cfg(tmp_path, "c.yaml", text)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")
    assert "Traceback" not in err
    assert not any((tmp_path / "o").glob("*")), "no result file on a config error"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_exit_2_with_one_line(tmp_path, capsys, workers):
    cfg = write_cfg(tmp_path, "c.yaml", BASE)
    assert run(["fiber", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")
    assert not (tmp_path / "o").exists()


def test_numerical_error_exits_3_and_writes_no_file(tmp_path, capsys, monkeypatch):
    solve = semigroup.resolvent_minimizer
    calls = []

    def fail_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise ResolutionError("injected failure")
        return solve(*args)

    monkeypatch.setattr(semigroup, "resolvent_minimizer", fail_second)
    cfg = write_cfg(tmp_path, "c.yaml", BASE + "resolvent:\n  eps_list: [0.2, 0.1]\n")
    out = tmp_path / "o"
    assert run(["resolvent", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("numerical error:")
    assert len(calls) == 2
    assert out.is_dir() and not any(out.iterdir()), "no result file on a numerical error"


def test_uncreatable_out_exits_2_with_one_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.yaml", BASE)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["fiber", "--config", cfg, "--out", str(blocker / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")


def test_readme_config_table_names_every_schema_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    documented = {name for row in rows for name in re.findall(r"`([\w.]+)`", row.split("|")[1])}
    schema = {
        f"{section}.{key}" if isinstance(spec, dict) else section
        for section, spec in cli.SCHEMA.items()
        for key in (spec if isinstance(spec, dict) else [None])
    }
    assert documented == schema


def test_cli_import_leaves_sparse_linalg_unloaded():
    # the CLI imports no scipy module at all: the forms are numpy arrays
    # (tubelab.forms), and importing scipy costs start-up time on every run
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, tubelab.cli\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not scipy, scipy")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


RUN_SECTIONS = (
    "validate:\n  eps_list: [0.2, 0.1]\n  n_fields: 5\n"
    "sweep:\n  eps_list: [0.2, 0.1]\n  n_t: 2\n"
    "resolvent:\n  eps_list: [0.2, 0.1]\n  n_perturbations: 2\n"
    "mc:\n  eps_list: [0.2]\n  n_paths: 2000\n  horizon: 0.1\n  t_eval: [0.05]\n"
)
# a twisted curve with a disc fiber, small enough for a subprocess test
DISC_CURVE = (
    "seed: 12345\nmodel:\n  kind: curve\n  tau0: 1.0\n"
    "grid:\n  n_base: 16\n  n_fiber: 8\n  n_theta: 8\n"
)


def test_every_run_needs_numpy_alone(tmp_path):
    # numpy is the one numerical runtime dependency: with scipy unimportable
    # (a None entry in sys.modules makes `import scipy` raise ImportError)
    # every subcommand exits as it does with scipy installed, on an interval
    # fiber and on a disc fiber (whose references are Bessel zeros; mc needs
    # the circle model, a config error on the curve), and one OpenBLAS is
    # mapped, numpy's
    configs = {
        write_cfg(tmp_path, "interval.yaml", BASE + RUN_SECTIONS): [0, 0, 0, 0, 0],
        write_cfg(tmp_path, "disc.yaml", DISC_CURVE + RUN_SECTIONS): [0, 0, 0, 0, 2],
    }
    out = str(tmp_path / "o")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from tubelab import cli\n"
        f"for cfg, expected in {configs!r}.items():\n"
        "    codes = [cli.main([c, '--config', cfg, '--out', "
        f"{out!r}]) for c in ('fiber', 'validate', 'sweep', 'resolvent', 'mc')]\n"
        "    assert codes == expected, (cfg, codes)\n"
        "scipy = sorted(m for m, mod in sys.modules.items() "
        "if m.split('.')[0] == 'scipy' and mod is not None)\n"
        "assert not scipy, scipy\n"
        "import os\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    libs = {line.split()[-1] for line in open('/proc/self/maps') if 'openblas' in line}\n"
        "    assert len(libs) == 1, libs"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


# Values the property test writes over config entries, valid and invalid.
# Integers stay small, so no fiber grid grows beyond 31 x 16 nodes.
VALUES = st.sampled_from([
    None, True, "abc", "1e-3", ".nan", -1, 0, 1, 2, 8, 9, 15, 16, 31, 10**400,
    0.05, 0.3, 1.0, 1.5, [], [0.2, 0.1], [0.1, 0.2], [0.5], {"x": 1},
    "circle", "curve", "synthetic",
])
KEYS = [
    (section, key)
    for section, spec in cli.SCHEMA.items() if isinstance(spec, dict)
    for key in spec
]


@st.composite
def configs(draw):
    """A valid config (a model kind plus keys that it reads, at their
    defaults), then a few sections, keys or the seed overwritten with
    arbitrary values."""
    kind = draw(st.sampled_from(["circle", "curve", "synthetic"]))
    config = {"model": {"kind": kind}}
    for section, key in draw(st.lists(st.sampled_from(KEYS), max_size=4)):
        default = cli.SCHEMA[section][key][1]
        if default is not None and kind in cli.KIND_KEYS.get(f"{section}.{key}", (kind,)):
            config.setdefault(section, {})[key] = (
                list(default) if isinstance(default, tuple) else default
            )
    targets = KEYS + [("fiber", "bogus"), ("seed", None), ("fiber", None), ("bogus", None)]
    for section, key in draw(st.lists(st.sampled_from(targets), max_size=2)):
        if key is None:
            config[section] = draw(VALUES)
        elif isinstance(config.setdefault(section, {}), dict):
            config[section][key] = draw(VALUES)
    return config


@settings(derandomize=True, max_examples=50, deadline=None)
@given(configs())
def test_random_configs_exit_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/c.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["fiber", "--config", path, "--out", f"{tmp}/o"])
    assert code in (0, 1, 2, 3)
    assert code == 0 or len(err.getvalue().splitlines()) == 1


class TestFiberCommand:
    def test_interval_report(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", BASE)
        out = tmp_path / "o"
        assert run(["fiber", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "fiber.json").read_text())
        assert payload["codim"] == 1
        assert payload["lambda0"] == pytest.approx((3.14159265 / 2) ** 2, rel=1e-2)
        assert "analytic" in payload and "config_hash" in payload

    def test_disc_report(self, tmp_path):
        text = (
            "model:\n  kind: synthetic\n  curvature: 0.0\n"
            "grid:\n  n_base: 1\n  n_fiber: 24\n"
        )
        cfg = write_cfg(tmp_path, "c.yaml", text)
        out = tmp_path / "o"
        assert run(["fiber", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "fiber.json").read_text())
        assert payload["codim"] == 2
        assert payload["lambda0"] == pytest.approx(payload["analytic"][0], rel=5e-3)


class TestValidateCommand:
    def test_circle_suites_pass(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "c.yaml",
            BASE + "validate:\n  eps_list: [0.2, 0.1]\n  n_fields: 20\n",
        )
        out = tmp_path / "o"
        assert run(["validate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "validate.json").read_text())
        assert rep["ok"] is True
        assert rep["vertical_energy"]["violations"] == 0
        assert rep["coercivity"]["coercivity_constant"] > 0
        sasaki = rep["sasaki_limit"]
        assert sasaki["spectral_path"] == ["block", "block"]
        assert sasaki["worst_margin_rel"] <= sasaki["allowance_rel"]

    def test_incoercive_eps_fails(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "c.yaml",
            BASE + "validate:\n  eps_list: [0.9]\n  n_fields: 10\n",
        )
        out = tmp_path / "o"
        assert run(["validate", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "validate.json").read_text())
        assert rep["coercivity"]["ok"] is False
        assert rep["coercivity"]["inadmissible_eps"] == [0.9]

    def test_mixed_eps_list_runs_sasaki_limit_on_every_eps(self, tmp_path):
        # the Sasaki-limit bound holds at any eps; the form suites run on the
        # admissible eps alone, and the inadmissible one fails coercivity
        cfg = write_cfg(
            tmp_path, "c.yaml",
            BASE + "validate:\n  eps_list: [0.9, 0.2]\n  n_fields: 10\n",
        )
        out = tmp_path / "o"
        assert run(["validate", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "validate.json").read_text())
        sasaki = rep["sasaki_limit"]
        assert sasaki["ok"] is True
        assert sasaki["spectral_path"] == ["block", "block"]
        assert rep["coercivity"]["inadmissible_eps"] == [0.9]
        assert rep["coercivity"]["ok"] is False
        assert list(rep["metric_perturbation"]["max_ratio_per_eps"]) == ["0.2"]
        assert rep["vertical_energy"]["ok"] is True

    def test_synthetic_suites_pass(self, tmp_path):
        text = (
            "model:\n  kind: synthetic\n  curvature: 1.5\n"
            "grid:\n  n_base: 1\n  n_fiber: 24\n"
            "validate:\n  eps_list: [0.1]\n  n_fields: 10\n"
        )
        cfg = write_cfg(tmp_path, "c.yaml", text)
        out = tmp_path / "o"
        assert run(["validate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "validate.json").read_text())
        assert rep["curvature_coupling"]["ok"] is True

    def test_synthetic_runs_the_configured_field_count(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", SYNTHETIC + "validate:\n  n_fields: 30\n")
        out = tmp_path / "o"
        assert run(["validate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "validate.json").read_text())
        assert rep["curvature_coupling"]["n_fields"] == 30


class TestSweepCommand:
    SWEEP = BASE + (
        "sweep:\n  eps_list: [0.2, 0.1]\n  t_min: 0.2\n  t_max: 0.6\n  n_t: 3\n"
    )

    def test_runs_and_is_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", self.SWEEP)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "sweep_summary.json").read_bytes() == (
            out2 / "sweep_summary.json"
        ).read_bytes()
        summary = json.loads((out1 / "sweep_summary.json").read_text())
        assert all(summary["checks"].values())
        assert summary["spectral_path"] == ["block", "block"]
        header = (out1 / "sweep.csv").read_text().splitlines()
        assert header[0].startswith("# tubelab") and "config_hash=" in header[0]
        assert header[1] == "eps,t,err_L2,err_H1,err_H2"
        assert (out1 / "run.log").exists()


# name -> config of the in-process rerun test: a circle (an interval fiber
# of 13 nodes resolves the 6 modes every subcommand needs) and a twisted
# curve, whose blocks are complex
RERUN_CONFIGS = {
    "circle": "model:\n  kind: circle\ngrid:\n  n_base: 16\n  n_fiber: 13\n",
    "twisted": "model:\n  kind: curve\n  tau0: 1.0\ngrid:\n  n_base: 16\n  n_fiber: 8\n"
               "  n_theta: 8\n",
}


@pytest.mark.parametrize("name", sorted(RERUN_CONFIGS))
def test_in_process_reruns_are_byte_identical(tmp_path, name):
    # no module-level cache is left; a second run of each subcommand in the
    # same process must still write the same bytes, whatever state a first
    # run leaves behind
    text = RERUN_CONFIGS[name] + (
        "validate:\n  eps_list: [0.2, 0.1]\n  n_fields: 5\n"
        "resolvent:\n  eps_list: [0.2, 0.1]\n  n_perturbations: 2\n"
    )
    cfg = write_cfg(tmp_path, "c.yaml", text)
    for command in ("fiber", "validate", "resolvent"):
        outs = [tmp_path / f"{command}{i}" for i in range(2)]
        for out in outs:
            assert run([command, "--config", cfg, "--out", str(out)]) == 0
        files = sorted(p.name for p in outs[0].iterdir() if p.name != "run.log")
        assert files == sorted(p.name for p in outs[1].iterdir() if p.name != "run.log")
        assert files
        for file in files:
            assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes(), file


def test_twisted_curve_runs_on_the_block_path(tmp_path):
    # total torsion 0.6 pi: the co-rotating frame closes up for any torsion
    text = (
        "model:\n  kind: curve\n  tau0: 0.3\ngrid:\n  n_base: 16\n  n_fiber: 8\n"
        "validate:\n  eps_list: [0.2, 0.1]\n  n_fields: 5\n"
        "sweep:\n  eps_list: [0.2, 0.1]\n  n_t: 3\n"
    )
    cfg = write_cfg(tmp_path, "c.yaml", text)
    out = tmp_path / "o"
    for command in ("fiber", "validate", "sweep"):
        assert run([command, "--config", cfg, "--out", str(out)]) == 0
    validate = json.loads((out / "validate.json").read_text())
    assert validate["sasaki_limit"]["spectral_path"] == ["block", "block"]
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["spectral_path"] == ["block", "block"]


class TestMcCommand:
    MC = BASE + (
        "mc:\n  eps_list: [0.25, 0.2]\n  n_paths: 20000\n  dt_divisor: 20\n"
        "  horizon: 0.1\n  t_eval: [0.05]\n"
    )

    def test_worker_count_invariance(self, tmp_path):
        # 70000 paths make three blocks, so 3 workers run three threads
        n_paths = 70000
        assert 2 * stochastic.BLOCK_SIZE < n_paths <= 3 * stochastic.BLOCK_SIZE
        cfg = write_cfg(
            tmp_path, "c.yaml", self.MC.replace("n_paths: 20000", f"n_paths: {n_paths}")
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["mc", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert run(["mc", "--config", cfg, "--out", str(out2), "--workers", "3"]) == 0
        assert (out1 / "mc.csv").read_bytes() == (out2 / "mc.csv").read_bytes()
        assert (out1 / "mc_summary.json").read_bytes() == (out2 / "mc_summary.json").read_bytes()
        summary = json.loads((out1 / "mc_summary.json").read_text())
        assert summary["within_3_se_of_operator_route"] is True
        diagnostics = summary["diagnostics"]
        assert len(diagnostics) == len(summary["rows"]) == 2
        for d in diagnostics:
            assert d["sampler"] == "killed" and 0 < d["n_survived"] <= n_paths
            assert 0 < d["ess"] <= d["n_survived"]
            # survival at t_eval = 0.05 is at least the survival to the horizon
            assert d["n_survived"] / n_paths <= d["survival"] < 1.0
        log = (out2 / "run.log").read_text().splitlines()
        assert [line.split()[0] for line in log] == ["eps=0.25", "eps=0.2"]
        assert all(line.endswith("workers=3") for line in log)
        for line in log:
            fields = dict(item.split("=") for item in line.split())
            assert 0.0 < float(fields["live_step_fraction"]) < 1.0
            assert fields["blocks"] == "3"

    @pytest.mark.parametrize("seed", [2, 12345])
    def test_zero_time_matches_operator_route(self, tmp_path, seed):
        # at t = 0 every path sits at theta0: the estimate is cos(theta0)
        # exactly, with a standard error of 0, so the 3-SE check needs the
        # estimate and the operator route to agree to the last bit
        cfg = write_cfg(
            tmp_path, "c.yaml",
            BASE.replace("seed: 12345", f"seed: {seed}")
            + "mc:\n  eps_list: [0.25]\n  n_paths: 20000\n  horizon: 0.1\n"
            "  t_eval: [0, 0.03, 0.05, 0.1]\n  theta0: 0.5\n",
        )
        out = tmp_path / "o"
        assert run(["mc", "--config", cfg, "--out", str(out)]) == 0
        rows = json.loads((out / "mc_summary.json").read_text())["rows"]
        assert rows[0][1] == 0.0 and rows[0][3] == 0.0

    def test_off_step_time_snapped(self, tmp_path):
        # eps = 0.3 runs ceil(0.1 / (0.09 / 20)) = 23 steps of 0.1 / 23, so
        # t = 0.05 is no whole number of steps; mc reports the time the
        # sampler snapped it to
        cfg = write_cfg(
            tmp_path, "c.yaml",
            BASE + "mc:\n  eps_list: [0.3]\n  n_paths: 5000\n  horizon: 0.1\n"
            "  t_eval: [0.05]\n",
        )
        out = tmp_path / "o"
        assert run(["mc", "--config", cfg, "--out", str(out)]) == 0
        dt = 0.1 / 23
        snapped = round(0.05 / dt) * dt
        assert snapped != 0.05
        rows = json.loads((out / "mc_summary.json").read_text())["rows"]
        assert [row[1] for row in rows] == [snapped]
        csv_t = (out / "mc.csv").read_text().splitlines()[2].split(",")[1]
        assert csv_t == cli._fmt(snapped)

    def test_any_theta0_matches_operator_route(self, tmp_path):
        # the operator route starts where the paths start, also off the base
        # nodes (0.5) and for angles outside [0, 2 pi)
        op_route = []
        for theta0 in (0.5, -0.5, 2.0 * math.pi - 0.5):
            cfg = write_cfg(
                tmp_path, "c.yaml",
                BASE + "mc:\n  eps_list: [0.2]\n  n_paths: 20000\n  horizon: 0.1\n"
                f"  t_eval: [0.05]\n  theta0: {theta0!r}\n",
            )
            out = tmp_path / "o"
            assert run(["mc", "--config", cfg, "--out", str(out)]) == 0
            (row,) = json.loads((out / "mc_summary.json").read_text())["rows"]
            op_route.append(row[4])
        # cos(. + 0.5) and cos(. - 0.5) mirror each other on the circle
        assert max(op_route) - min(op_route) < 1e-12

    def test_live_step_fraction_without_deaths(self, tmp_path):
        # dt = eps^2 / 1000 over four steps: a path moves about eps / 32 per
        # step, so the chance that its bridge touches a wall is below
        # exp(-1000); no path dies and every step draws for every path
        cfg = write_cfg(
            tmp_path, "c.yaml",
            BASE + "mc:\n  eps_list: [0.25]\n  n_paths: 2000\n  dt_divisor: 1000\n"
            "  horizon: 0.0002\n  t_eval: [0.0002]\n",
        )
        out = tmp_path / "o"
        assert run(["mc", "--config", cfg, "--out", str(out)]) == 0
        (diagnostics,) = json.loads((out / "mc_summary.json").read_text())["diagnostics"]
        assert diagnostics["n_survived"] == 2000
        (line,) = (out / "run.log").read_text().splitlines()
        fields = dict(item.split("=") for item in line.split())
        assert fields["path_steps"] == "8000"
        assert float(fields["live_step_fraction"]) == 1.0

    def test_live_step_fraction_counts_live_path_steps(self, tmp_path):
        # the steps 1..n draw for the survivors of the steps 0..n-1, so
        # live_step_fraction * path_steps is the number of live path-steps
        cfg = write_cfg(
            tmp_path, "c.yaml",
            BASE + "mc:\n  eps_list: [0.3]\n  n_paths: 5000\n  horizon: 0.1\n"
            "  t_eval: [0.05]\n",
        )
        out = tmp_path / "o"
        assert run(["mc", "--config", cfg, "--out", str(out)]) == 0
        (line,) = (out / "run.log").read_text().splitlines()
        fields = dict(item.split("=") for item in line.split())
        # eps = 0.3 runs 23 steps of 0.1 / 23, as in test_off_step_time_snapped
        ens = stochastic.sample_conditioned(
            geometry.CircleInPlane(1.0), 0.3, 0.0, 0.1, 0.1 / 23, 5000, 12345,
            t_record=[0.05, 0.1], guided=False,
        )
        live_path_steps = 5000 * ens.survival_steps[:-1].sum()
        assert int(fields["path_steps"]) == 5000 * 23
        got = float(fields["live_step_fraction"]) * int(fields["path_steps"])
        assert got == pytest.approx(live_path_steps, rel=1e-3)

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", self.MC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["mc", "--config", cfg, "--out", str(out1)])
        run(["mc", "--config", cfg, "--out", str(out2), "--seed", "54321"])
        assert (out1 / "mc.csv").read_bytes() != (out2 / "mc.csv").read_bytes()

    def test_requires_circle_model(self, tmp_path):
        text = "model:\n  kind: synthetic\nmc:\n  eps_list: [0.2]\n"
        cfg = write_cfg(tmp_path, "c.yaml", text)
        assert run(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestResolventCommand:
    def test_runs_and_converges(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "c.yaml",
            BASE + "resolvent:\n  eps_list: [0.2, 0.1]\n  n_perturbations: 5\n",
        )
        out = tmp_path / "o"
        assert run(["resolvent", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "resolvent.json").read_text())
        assert all(rep["checks"].values())
        assert rep["errors"][1] < rep["errors"][0]
        assert rep["spectral_path"] == ["block", "block"]
        assert max(rep["residual"]) < 1e-10 and min(rep["min_eigenvalue"]) > 0
        assert max(rep["backward_error"]) <= semigroup.BACKWARD_ERROR_BOUND

    def test_disc_results_do_not_depend_on_the_basis_of_the_excited_pair(
        self, tmp_path, monkeypatch
    ):
        # a twisted curve: its disc fiber's first excited level is a pair
        text = (
            "model:\n  kind: curve\n  tau0: 1.0\ngrid:\n  n_base: 16\n  n_fiber: 8\n"
            "  n_theta: 8\nresolvent:\n  eps_list: [0.2, 0.1]\n  n_perturbations: 5\n"
        )
        cfg = write_cfg(tmp_path, "c.yaml", text)
        grid = cli.build_grid(cli.load_config(cfg)[0])
        spectrum = fiber.fiber_spectrum(grid.fiber)
        # another basis of the excited pair: its columns mixed by a random
        # orthogonal 2x2 matrix
        pair = spectrum.multiplets[1]
        assert len(pair) == 2
        mix = np.linalg.qr(np.random.default_rng(11).standard_normal((2, 2)))[0]
        vecs = spectrum.eigenfunctions.copy()
        vecs[:, pair] = vecs[:, pair] @ mix
        rotated = dataclasses.replace(spectrum, eigenfunctions=vecs)
        assert not np.allclose(vecs, spectrum.eigenfunctions)
        assert np.max(np.abs(rotated.excited_profile - spectrum.excited_profile)) < 1e-13
        t_grid = semigroup.default_t_grid(3)
        checks = [suites.sasaki_limit_check(grid, sp, (0.2, 0.1), t_grid)
                  for sp in (spectrum, rotated)]
        assert checks[1]["worst_margin_rel"] == pytest.approx(
            checks[0]["worst_margin_rel"], rel=1e-8, abs=1e-13)
        reports = []
        for sp in (spectrum, rotated):
            monkeypatch.setattr(fiber, "fiber_spectrum", lambda *args, sp=sp: sp)
            out = tmp_path / f"o{len(reports)}"
            assert run(["resolvent", "--config", cfg, "--out", str(out)]) == 0
            reports.append(json.loads((out / "resolvent.json").read_text()))
        assert reports[1]["errors"] == pytest.approx(reports[0]["errors"], rel=1e-8)

    def test_small_eps_on_readme_grid(self, tmp_path):
        # at eps = 0.0125 the relative residual is about 1.2e-10, roundoff
        # times the eps^-2 conditioning; the backward error stays at roundoff
        text = BASE.replace("n_base: 32", "n_base: 64").replace("n_fiber: 15", "n_fiber: 31")
        cfg = write_cfg(
            tmp_path, "c.yaml",
            text + "resolvent:\n  eps_list: [0.2, 0.1, 0.05, 0.025, 0.0125]\n",
        )
        out = tmp_path / "o"
        assert run(["resolvent", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "resolvent.json").read_text())
        assert all(rep["checks"].values())
        assert rep["residual"][-1] > 1e-10


# name -> (subcommand, config): every subcommand, and sweep with its
# pre-check, which builds one refined grid and its spectrum on top
BUILD_ONCE_RUNS = {
    "fiber": ("fiber", BASE),
    "validate": ("validate", BASE + "validate:\n  eps_list: [0.2]\n  n_fields: 5\n"),
    "validate_synthetic": ("validate", SYNTHETIC + "validate:\n  n_fields: 5\n"),
    "sweep": ("sweep", BASE + "sweep:\n  eps_list: [0.2, 0.1]\n  n_t: 2\n"),
    "sweep_pre_check": (
        "sweep", BASE + "sweep:\n  eps_list: [0.2, 0.1]\n  n_t: 2\n  pre_check: true\n"
    ),
    "resolvent": ("resolvent", BASE + "resolvent:\n  eps_list: [0.2]\n  n_perturbations: 1\n"),
    "mc": (
        "mc", BASE + "mc:\n  eps_list: [0.2]\n  n_paths: 5000\n  horizon: 0.1\n  t_eval: [0.05]\n"
    ),
}


@pytest.mark.parametrize("name", sorted(BUILD_ONCE_RUNS))
def test_one_grid_and_one_spectrum_per_run(tmp_path, monkeypatch, name):
    calls = {"grid": 0, "spectrum": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(discretize, "build_grid", counted("grid", discretize.build_grid))
    monkeypatch.setattr(fiber, "fiber_spectrum", counted("spectrum", fiber.fiber_spectrum))
    command, text = BUILD_ONCE_RUNS[name]
    cfg = write_cfg(tmp_path, "c.yaml", text)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    builds = 2 if name == "sweep_pre_check" else 1
    assert calls == {"grid": builds, "spectrum": builds}
