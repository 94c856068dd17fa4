"""tubelab benchmark: run one workload through the CLI and report its metrics.

    python3 perfbench/run.py --workload readme --seed 7 --seconds 25 --trace 0

Run from the root of a checkout.  The workload config is generated from the
seed (perfbench/workloads.py).  Five fresh processes first time the set-up
(import plus config parse); then fresh worker processes run the workload's
subcommands back to back, one pass each, until at least --seconds have been
measured and at least two passes ran.  Every pass is checked
(perfbench/gate.py), and every result file must hash the same in all passes;
`correct`, `attempted` and `failed` count those checks.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 passes alternate untraced and traced (perfbench/layers.py), at
least two pairs of them, and it reports the per-layer metrics plus the
tracing overhead.  Metric names and units come from BENCHMARK.json.  The
full record, with per-command times, the machine and the seed, is written
under perfbench/results/ for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import compare
import gate
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 5
MIN_PASSES = 2
# the tracing overhead is the median over untraced/traced pass pairs
MIN_TRACE_PAIRS = 2
# a run ends within 180 s: no pass starts that could end after RUN_BUDGET_S,
# and a worker still running at DEADLINE_S is killed
RUN_BUDGET_S = 150.0
DEADLINE_S = 170.0


def _median(values):
    return statistics.median(values) if values else None


def worker_count():
    return max(1, min(2, os.cpu_count() or 1))


def _blas(pkg):
    """Name, version and thread count of the BLAS bundled with numpy or scipy."""
    info = {"name": None, "version": None, "threads": None}
    try:
        dep = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    libdir = os.path.dirname(pkg.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_record():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_env": {k: os.environ[k] for k in sorted(os.environ)
                     if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def code_record():
    """Git commit when the checkout is a repository, and a digest of src/."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tubelab", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_worker(args, started):
    """Run worker.py, killing it at DEADLINE_S after `started`.

    Returns (record or None, error text or None, seconds)."""
    t0 = time.perf_counter()
    timeout = max(DEADLINE_S - (time.monotonic() - started), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + args,
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s", time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}", elapsed
    try:
        return json.loads(lines[-1]), None, elapsed
    except json.JSONDecodeError as exc:
        return None, f"worker printed no result: {exc}", elapsed


def run_passes(name, cfg_path, workdir, seconds, trace, started):
    """Closed loop of passes; in trace mode passes alternate untraced/traced
    and end on a whole pair."""
    commands = workloads.commands_for(name)
    min_passes = 2 * MIN_TRACE_PAIRS if trace else MIN_PASSES
    passes, longest, measuring_since = [], 0.0, time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        measured = time.monotonic() - measuring_since
        whole = not (trace and len(passes) % 2)
        if len(passes) >= min_passes and measured >= seconds and whole:
            break
        if elapsed + longest > RUN_BUDGET_S:
            break
        traced = trace and len(passes) % 2 == 1
        out = os.path.join(workdir, f"pass{len(passes)}")
        os.makedirs(out)
        argv = ["--config", cfg_path, "--out", out, "--workers", str(worker_count()),
                "--commands", *commands] + (["--trace"] if traced else [])
        record, error, took = run_worker(argv, started)
        longest = max(longest, took)
        passes.append({"traced": traced, "out": out,
                       "record": record, "error": error, "seconds": took})
        if error:
            break
    return passes


def check_passes(passes, cfg):
    """[(check name, passed)]: the gate's checks of every pass, then one
    check per result file that it hashed the same in every pass."""
    checks = [("at_least_two_passes", len(passes) >= MIN_PASSES)]
    digests = []
    for i, p in enumerate(passes):
        if p["error"]:
            checks.append((f"pass{i}.worker ({p['error']})", False))
            continue
        checks += [(f"pass{i}.{c}", ok) for c, ok in
                   gate.check_pass(p["out"], cfg, p["record"]["exit_codes"])]
        digests.append(gate.hash_outputs(p["out"]))
    for f in sorted(set().union(*digests)):
        checks.append((f"deterministic.{f}", len({d.get(f) for d in digests}) == 1))
    return checks


def summarize(name, passes, setup_probes, trace):
    ok = [p for p in passes if not p["error"]]
    plain = [p["record"] for p in ok if not p["traced"]]
    traced = [p["record"] for p in ok if p["traced"]]
    metrics = {
        "setup_s": _median(setup_probes + [r["setup_s"] for r in plain]),
        "wall_s": _median([r["wall_s"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    for cmd in workloads.commands_for(name):
        metrics[f"{cmd}_s"] = _median([r["command_s"][cmd] for r in plain])
    layer = {}
    if trace and traced:
        for metric, *_ in layers.LAYER_METRICS:
            layer[metric] = _median([r["layers"][metric] for r in traced])
        # pass 2k is untraced and pass 2k+1 traced, run back to back
        pairs = [(a, b) for a, b in zip(passes[::2], passes[1::2])
                 if not a["error"] and not b["error"]]
        layer[layers.OVERHEAD_METRIC] = _median(
            [b["record"]["wall_s"] - a["record"]["wall_s"] for a, b in pairs]
        )
    return metrics, layer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(HERE, "results"),
                        help="directory for the run record (default perfbench/results)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "tubelab", "cli.py")):
        print(f"no tubelab sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a tubelab checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    spec = compare.load_spec()
    cfg = workloads.config_for(args.workload, args.seed)
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        cfg_path = os.path.join(workdir, "config.yaml")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh, sort_keys=True, indent=2)
        probes = []
        for _ in range(SETUP_PROBES):
            record, error, _took = run_worker(
                ["--config", cfg_path, "--workers", str(worker_count()), "--setup-only"], started
            )
            if error:
                print(f"set-up probe failed: {error}", file=sys.stderr)
                return 1
            probes.append(record["setup_s"])
        passes = run_passes(args.workload, cfg_path, workdir, args.seconds, bool(args.trace),
                            started)
        checks = check_passes(passes, cfg)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    metrics, layer = summarize(args.workload, passes, probes, args.trace)
    if metrics["wall_s"] is None or (args.trace and layer.get(layers.OVERHEAD_METRIC) is None):
        print("no pass completed; nothing to report", file=sys.stderr)
        return 1

    failed = [c for c, ok in checks if not ok]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": worker_count(),
        "config": cfg,
        "machine": machine_record(),
        "code": code_record(),
        "setup_probes_s": probes,
        "passes": [{k: p[k] for k in ("traced", "seconds", "error", "record")} for p in passes],
        "metrics": metrics,
        "layers": layer,
        "checks_attempted": len(checks),
        "checks_failed": failed,
        "correct": not failed,
    }
    os.makedirs(args.results, exist_ok=True)
    rec_path = os.path.join(
        args.results, f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    )
    with open(rec_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    n_plain = sum(1 for p in passes if not p["traced"])
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({n_plain} untraced), {len(checks)} checks, {len(failed)} failed")
    for c in failed:
        print(f"FAILED {c}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in list(metrics.items()) + list(layer.items()):
        print(f"{name} {value:.6g} {units.get(name, 's')}")
    print(f"record {os.path.relpath(rec_path, ROOT)}")
    shown = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else metrics
    reported = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in shown}
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
