"""Per-layer tracing of tubelab from outside the package.

`install` replaces public functions and methods of the seven tubelab modules
with counting and timing wrappers, inside the process that runs the CLI.
The package calls its own modules through module attributes
(`semigroup.Propagator`, `geometry.cometric`, ...), so every internal call
goes through the wrappers.  Nothing under src/ is changed.

Each wrapper is a span.  Spans nest per thread; a span's self time is its
duration minus the time covered by the spans it encloses.  `layer_metrics`
turns spans and counters into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Span statistics (calls, self seconds, total seconds) and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.samples = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter, value):
        with self._lock:
            self.counters[counter] += value

    def sample(self, name, value):
        with self._lock:
            self.samples[name].append(float(value))

    def wrap(self, span, fn, before=None, after=None):
        """Wrap fn in a span named `span` (None: hooks only, no span).

        before(args, kwargs) runs first and its result is passed on as
        after(result, args, kwargs, ctx), which records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = before(args, kwargs) if before else None
            if span is None:
                out = fn(*args, **kwargs)
            else:
                stack = self._stack()
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    child = stack.pop()
                    if stack:
                        stack[-1] += dur
                    with self._lock:
                        self.calls[span] += 1
                        self.self_s[span] += dur - child
                        self.total_s[span] += dur
            if after:
                after(out, args, kwargs, ctx)
            return out

        return traced


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer):
    """Wrap the traced entry points of every tubelab module; returns tracer."""
    from tubelab import cli, discretize, fiber, geometry, semigroup, stochastic, suites

    def patch(owner, attr, span, before=None, after=None):
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), before, after))

    # cli: config parse and result files
    def bytes_written(out, args, kwargs, ctx):
        tracer.add("cli.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))

    patch(cli, "load_config", "cli.load_config")
    patch(cli, "write_csv", "cli.write", after=bytes_written)
    patch(cli, "write_json", "cli.write", after=bytes_written)

    # geometry: pointwise metric quantities, called in Python loops
    patch(geometry, "cometric", "geometry.cometric")
    patch(geometry, "density_rho", "geometry.density_rho")

    # fiber: the 1-d spectrum and every fiberwise projection
    patch(fiber, "fiber_spectrum", "fiber.fiber_spectrum")
    patch(fiber.Projection, "coefficients", "fiber.projection")

    # discretize: form assembly (cached on the grid), fields, norms
    def form_cached(args, kwargs):
        grid = _arg(args, kwargs, 0, "grid")
        which = _arg(args, kwargs, 1, "which")
        eps = kwargs.get("eps", args[2] if len(args) > 2 else None)
        return (which, eps) in grid.cache

    def form_hit(out, args, kwargs, hit):
        tracer.add("discretize.form_cache_hits", int(hit))

    def operator_eig(out, args, kwargs, ctx):
        tracer.add("semigroup.dense_eig_n3", int(args[0].form.shape[0]) ** 3)

    patch(discretize, "assemble_form", "discretize.assemble_form", form_cached, form_hit)
    patch(discretize, "random_fields", "discretize.random_fields")
    patch(discretize, "sobolev_norm", "discretize.sobolev_norm")
    # not a span: the suites that call it keep the eigensolve in their self time
    patch(discretize.DiscreteOperator, "eig", None, after=operator_eig)

    # semigroup: propagator build/apply, resolvent, conditioned flow
    def propagator_built(out, args, kwargs, ctx):
        prop = args[0]
        if prop.truncated:
            tracer.add("semigroup.propagator_truncated_builds", 1)
        else:
            tracer.add("semigroup.dense_eig_n3", len(prop.weights) ** 3)

    def resolvent_solved(out, args, kwargs, ctx):
        n = _arg(args, kwargs, 0, "op_h0").form.shape[0]
        if n <= semigroup.DENSE_CUTOFF:
            tracer.add("semigroup.dense_eig_n3", int(n) ** 3)

    patch(semigroup.Propagator, "__init__", "semigroup.propagator_build", after=propagator_built)
    patch(semigroup.Propagator, "apply", "semigroup.propagator_apply")
    patch(semigroup, "resolvent_minimizer", "semigroup.resolvent", after=resolvent_solved)
    patch(semigroup, "conditional_flow_operator", "semigroup.conditional_flow")

    # suites: the validate checks
    patch(suites, "composite_spectrum_check", "suites.composite_spectrum")
    patch(suites, "sasaki_limit_check", "suites.sasaki_limit")
    for name in ("vertical_energy_suite", "metric_perturbation_suite", "coercivity_suite"):
        patch(suites, name, "suites.form_suites")

    # stochastic: the sampler and the estimator
    def sampled(ens, args, kwargs, ctx):
        tracer.add("stochastic.path_steps", ens.n_paths * (len(ens.survival_steps) - 1))
        tracer.sample("stochastic.live_step_fraction", np.mean(ens.survival_steps))
        tracer.sample("stochastic.survival_fraction", ens.survival_fraction())

    def estimated(est, args, kwargs, ctx):
        tracer.sample("stochastic.ess", est.ess)

    patch(stochastic, "sample_conditioned", "stochastic.sample", after=sampled)
    patch(stochastic, "marginal_estimate", "stochastic.marginal_estimate", after=estimated)
    return tracer


# (metric, how it is read from the tracer, span or counter); units and
# directions are in BENCHMARK.json
_SELF, _TOTAL, _CALLS, _COUNTER, _MEAN, _MIN = "self", "total", "calls", "counter", "mean", "min"
LAYER_METRICS = [
    ("semigroup.propagator_builds", _CALLS, "semigroup.propagator_build"),
    ("semigroup.propagator_truncated_builds", _COUNTER, "semigroup.propagator_truncated_builds"),
    ("semigroup.propagator_build_s", _SELF, "semigroup.propagator_build"),
    ("semigroup.propagator_applies", _CALLS, "semigroup.propagator_apply"),
    ("semigroup.propagator_apply_s", _SELF, "semigroup.propagator_apply"),
    ("semigroup.dense_eig_n3", _COUNTER, "semigroup.dense_eig_n3"),
    ("semigroup.resolvent_solves", _CALLS, "semigroup.resolvent"),
    ("semigroup.resolvent_s", _SELF, "semigroup.resolvent"),
    ("semigroup.conditional_flow_s", _SELF, "semigroup.conditional_flow"),
    ("semigroup.conditional_flow_total_s", _TOTAL, "semigroup.conditional_flow"),
    ("suites.composite_spectrum_s", _SELF, "suites.composite_spectrum"),
    ("suites.composite_spectrum_total_s", _TOTAL, "suites.composite_spectrum"),
    ("suites.sasaki_limit_s", _SELF, "suites.sasaki_limit"),
    ("suites.sasaki_limit_total_s", _TOTAL, "suites.sasaki_limit"),
    ("suites.form_suites_s", _SELF, "suites.form_suites"),
    ("suites.form_suites_total_s", _TOTAL, "suites.form_suites"),
    ("geometry.cometric_calls", _CALLS, "geometry.cometric"),
    ("geometry.cometric_s", _SELF, "geometry.cometric"),
    ("geometry.density_rho_calls", _CALLS, "geometry.density_rho"),
    ("geometry.density_rho_s", _SELF, "geometry.density_rho"),
    ("discretize.assemble_form_calls", _CALLS, "discretize.assemble_form"),
    ("discretize.assemble_form_s", _SELF, "discretize.assemble_form"),
    ("discretize.form_cache_hit_ratio", None, None),
    ("discretize.random_fields_s", _SELF, "discretize.random_fields"),
    ("discretize.sobolev_norm_calls", _CALLS, "discretize.sobolev_norm"),
    ("discretize.sobolev_norm_s", _SELF, "discretize.sobolev_norm"),
    ("fiber.fiber_spectrum_s", _SELF, "fiber.fiber_spectrum"),
    ("fiber.projection_calls", _CALLS, "fiber.projection"),
    ("fiber.projection_s", _SELF, "fiber.projection"),
    ("stochastic.sample_s", _SELF, "stochastic.sample"),
    ("stochastic.path_steps", _COUNTER, "stochastic.path_steps"),
    ("stochastic.path_steps_per_s", None, None),
    ("stochastic.live_step_fraction", _MEAN, "stochastic.live_step_fraction"),
    ("stochastic.survival_fraction", _MEAN, "stochastic.survival_fraction"),
    ("stochastic.ess", _MIN, "stochastic.ess"),
    ("cli.load_config_s", _SELF, "cli.load_config"),
    ("cli.write_s", _SELF, "cli.write"),
    ("cli.bytes_written", _COUNTER, "cli.bytes_written"),
]
# filled in by the runner from interleaved untraced/traced pass pairs
OVERHEAD_METRIC = "trace.overhead_s"


def layer_metrics(tracer):
    """Metric name -> value; a layer the workload never reaches reads 0."""
    out = {}
    for name, how, key in LAYER_METRICS:
        if how == _SELF:
            out[name] = tracer.self_s.get(key, 0.0)
        elif how == _TOTAL:
            out[name] = tracer.total_s.get(key, 0.0)
        elif how == _CALLS:
            out[name] = tracer.calls.get(key, 0)
        elif how == _COUNTER:
            out[name] = tracer.counters.get(key, 0)
        elif how == _MEAN:
            vals = tracer.samples.get(key)
            out[name] = float(np.mean(vals)) if vals else 0.0
        elif how == _MIN:
            vals = tracer.samples.get(key)
            out[name] = min(vals) if vals else 0.0
    forms = tracer.calls.get("discretize.assemble_form", 0)
    hits = tracer.counters.get("discretize.form_cache_hits", 0)
    out["discretize.form_cache_hit_ratio"] = hits / forms if forms else 0.0
    sample_s = tracer.total_s.get("stochastic.sample", 0.0)
    steps = tracer.counters.get("stochastic.path_steps", 0)
    out["stochastic.path_steps_per_s"] = steps / sample_s if sample_s else 0.0
    return out
