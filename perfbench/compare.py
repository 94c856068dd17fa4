"""Compare two result sets of the benchmark: parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run records written by perfbench/run.py (its
--results option).  For every workload and every metric of the run records
it prints each side's median and quartiles over runs and the fraction of
paired runs the change won (pairs are matched by seed, ties count for
neither side).  The end-to-end metrics of BENCHMARK.json also get a verdict,
tested in this order:

- UNRESOLVED: either side's quartile spread, as a share of its median,
  exceeds the metric's bound, unless every change run beats every parent run;
- WORSE: the change's median is worse than the parent's by more than the
  bound;
- BETTER: the change won at least nine tenths of the pairs and the medians
  differ by more than the parent's quartile spread;
- same: none of these.

Per-subcommand times and traced layers are listed without a verdict.  The
failed checks, result files that differed between passes among them, are
counted and named per side.  The pooled per-pass samples give the highest
percentile with at least ten samples beyond it.  Exits 1 when a metric is
WORSE or a change run failed a check.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERCENTILES = (99, 95, 90, 75, 50)


def load_records(directory):
    """(workload, trace) -> list of run records."""
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        with open(path) as fh:
            rec = json.load(fh)
        if not isinstance(rec, dict) or "workload" not in rec:
            continue
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def well_sampled_percentile(values):
    """(p, value) for the highest listed percentile with >= 10 samples above it."""
    n = len(values)
    for p in PERCENTILES:
        if n * (100 - p) / 100.0 >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(round(p / 100.0 * (n - 1))))]
    return None, None


def pairs_won(parent, change, lower_better):
    """Fraction of seed-matched pairs the change won, and the pair count."""
    by_seed = {}
    for side, recs in (("p", parent), ("c", change)):
        for rec, value in recs:
            by_seed.setdefault(rec["seed"], {}).setdefault(side, []).append(value)
    won = n = 0
    for sides in by_seed.values():
        for p, c in zip(sides.get("p", []), sides.get("c", [])):
            n += 1
            if c != p and (c < p) == lower_better:
                won += 1
    return (won / n if n else None), n


def verdict(p_vals, c_vals, bound, lower_better, won):
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    gain = (p_med - c_med) if lower_better else (c_med - p_med)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    all_better = (max(c_vals) < min(p_vals)) if lower_better else (min(c_vals) > max(p_vals))
    if spread > bound and not all_better:
        return "UNRESOLVED"
    if -gain / p_med > bound:
        return "WORSE"
    if gain > 0 and won is not None and won >= 0.9 and gain > p_q3 - p_q1:
        return "BETTER"
    return "same"


def compare(parent_dir, change_dir, spec):
    parent, change = load_records(parent_dir), load_records(change_dir)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines, bad = [], False
    for workload, trace in sorted(set(parent) | set(change)):
        p_recs, c_recs = parent.get((workload, trace), []), change.get((workload, trace), [])
        lines.append(f"== {workload} ({'traced' if trace else 'untraced'}): "
                     f"{len(p_recs)} parent runs, {len(c_recs)} change runs")
        for label, recs in (("parent", p_recs), ("change", c_recs)):
            failed = sum(len(r["checks_failed"]) for r in recs)
            attempted = sum(r["checks_attempted"] for r in recs)
            failing = sorted({re.sub(r"^pass\d+\.", "", c) for r in recs for c in r["checks_failed"]})
            lines.append(f"   {label} checks_failed {failed}/{attempted}"
                         + (f": {', '.join(failing)}" if failing else ""))
            bad |= label == "change" and failed > 0
        if not p_recs or not c_recs:
            continue
        section = "layers" if trace else "metrics"
        names = sorted(set(p_recs[0][section]) & set(c_recs[0][section]))
        lines.append(f"   {'metric':40s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}"
                     f" {'won':>6s}  verdict")
        for name in names:
            p = [(r, r[section][name]) for r in p_recs]
            c = [(r, r[section][name]) for r in c_recs]
            p_vals, c_vals = [v for _, v in p], [v for _, v in c]
            spec_m = None if trace else bounds.get(name)
            lower = better.get(name, "lower") == "lower"
            frac, n_pairs = pairs_won(p, c, lower)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            row = (f"   {name:40s} {fmt.format(*quartiles(p_vals)):>32s} "
                   f"{fmt.format(*quartiles(c_vals)):>32s} "
                   f"{'-' if frac is None else f'{frac:.2f}':>6s}")
            if spec_m and min(p_vals) > 0 and min(c_vals) > 0:
                v = verdict(p_vals, c_vals, spec_m["bound"], lower, frac)
                bad |= v == "WORSE"
                row += f"  {v} (bound {spec_m['bound']:.0%}, {n_pairs} pairs)"
            lines.append(row)
        if not trace:
            for label, recs in (("parent", p_recs), ("change", c_recs)):
                pooled = [pa["record"]["wall_s"] for r in recs for pa in r["passes"]
                          if pa["record"] and not pa["traced"]]
                pct, value = well_sampled_percentile(pooled)
                tail = f"p{pct} {value:.4g} s" if pct else "no percentile has 10 samples beyond it"
                lines.append(f"   {label} wall_s per pass: {len(pooled)} samples, {tail}")
    return lines, bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    lines, bad = compare(args.parent, args.change, load_spec())
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
