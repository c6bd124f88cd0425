"""Span tracing of qsdlab's layers from outside the package.

Each traced function is wrapped at every module binding that resolves to it
(for example ``qsdlab.cli.solve_qsd`` and ``qsdlab.solver.solve_qsd``), so a
call is caught whichever module makes it.  Nothing under ``src/`` changes:
``Tracer.install`` swaps the bindings and ``Tracer.restore`` puts the
original objects back.

A span records ``(id, name, group, start, end, parent, invocation)`` plus
the work counts read from the call's arguments and result.  A group's self
time is the summed duration of its spans minus the part covered by their
child spans; over one invocation the self times of all groups add up to the
invocation's ``cli.main`` span exactly, since durations are integer
nanoseconds.
"""

import importlib
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _solve_counts(args, kwargs, result):
    Q = _arg(args, kwargs, 0, "Q")
    return {"solver.solve_iterations": result.iterations,
            "solver.uniformization_rate": Q.lam}


def _semigroup_counts(args, kwargs, result):
    # Lambda * t approximates the number of mat-vec products of the
    # uniformised series.  Flops and bytes are computed from the CSR
    # layout: per product 2 flops and 8 + 4 bytes (value + int32 column)
    # per nonzero, plus the row pointers and one read and one write of the
    # dense vector.
    Q = _arg(args, kwargs, 0, "Q")
    t = float(_arg(args, kwargs, 2, "t"))
    mat = Q.matrix
    n = mat.shape[0]
    lam_t = Q.lam * t
    return {"solver.semigroup_calls": 1,
            "solver.semigroup_lam_t": lam_t,
            "solver.semigroup_flops_computed": 2.0 * mat.nnz * lam_t,
            "solver.semigroup_bytes_computed":
                (12.0 * mat.nnz + 4.0 * (n + 1) + 16.0 * n) * lam_t}


def _check_counts(args, kwargs, result):
    return {"lyapunov.checks_calls": 1}


def _ssa_counts(args, kwargs, result):
    return {"simulate.ssa_survivors": result.survivors}


def _path_counts(args, kwargs, result):
    return {"simulate.ssa_paths": 1,
            "simulate.ssa_events": len(result.times) - 1}


def _fv_counts(args, kwargs, result):
    return {"simulate.fv_events": result.events,
            "simulate.fv_deaths": result.deaths}


def _qprocess_counts(args, kwargs, result):
    return {"simulate.qprocess_events": len(result.times) - 1}


_CHECKS = ("check_growth_envelope", "check_competition_dominance",
           "check_boundary_pressure", "check_neutral_threshold", "check_drift",
           "check_conditional_drift", "check_catastrophes", "check_multibirth")

#: (module, function, group, counts, span).  A group names the per-layer
#: self-time metric ``<group>_s``; its layer is the part before the dot.
#: ``simulate_path`` runs once per SSA path, so it only adds counts to the
#: enclosing span instead of opening one.
WRAPS = (
    [("qsdlab.cli", "main", "cli.self", None, True),
     ("qsdlab.config", "load_config", "config.load", None, True),
     ("qsdlab.model", "build_model", "model.build", None, True),
     ("qsdlab.solver", "enumerate_space", "solver.enumerate",
      lambda a, k, r: {"solver.states": len(r.states)}, True),
     ("qsdlab.solver", "assemble", "solver.assemble",
      lambda a, k, r: {"solver.nnz": r.matrix.nnz}, True),
     ("qsdlab.solver", "solve_qsd", "solver.solve", _solve_counts, True),
     ("qsdlab.solver", "evolve_measure", "solver.semigroup",
      _semigroup_counts, True),
     ("qsdlab.solver", "evolve_function", "solver.semigroup",
      _semigroup_counts, True),
     ("qsdlab.solver", "conditional_path", "solver.semigroup", None, True),
     ("qsdlab.convergence", "convergence_curve", "convergence.curve", None,
      True),
     ("qsdlab.convergence", "fit_rate", "convergence.fit", None, True),
     ("qsdlab.convergence", "survival_profile_error",
      "convergence.profile_error", None, True),
     ("qsdlab.convergence", "mixing_certificate", "convergence.certificate",
      None, True),
     ("qsdlab.convergence", "certify_minorization", "convergence.certificate",
      None, True),
     ("qsdlab.convergence", "certify_survival_comparison",
      "convergence.certificate", None, True)]
    + [("qsdlab.lyapunov", name, "lyapunov.checks", _check_counts, True)
       for name in _CHECKS]
    + [("qsdlab.simulate", "estimate_conditional", "simulate.ssa", _ssa_counts,
        True),
       ("qsdlab.simulate", "simulate_path", "simulate.ssa", _path_counts,
        False),
       ("qsdlab.simulate", "fleming_viot", "simulate.fv", _fv_counts, True),
       ("qsdlab.simulate", "simulate_qprocess", "simulate.qprocess",
        _qprocess_counts, True),
       ("qsdlab.simulate", "occupation_measure", "simulate.occupation", None,
        True)])

#: Layers with several groups, whose total self time is also reported.
LAYERS = ("solver", "convergence", "lyapunov", "simulate")

#: Work counts recorded at the wrapped boundaries.
COUNT_METRICS = (
    "solver.solve_iterations", "solver.uniformization_rate", "solver.states",
    "solver.nnz", "solver.semigroup_calls", "solver.semigroup_lam_t",
    "solver.semigroup_flops_computed", "solver.semigroup_bytes_computed",
    "lyapunov.checks_calls", "simulate.ssa_paths", "simulate.ssa_events",
    "simulate.ssa_survivors", "simulate.fv_events", "simulate.fv_deaths",
    "simulate.qprocess_events")


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.invocation = None
        self._stack = []
        self._bindings = []

    def install(self):
        for module_name, func_name, group, counts, opens_span in WRAPS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(original, f"{module_name}.{func_name}", group,
                                 counts, opens_span)
            for module in [m for name, m in list(sys.modules.items())
                           if name == "qsdlab" or name.startswith("qsdlab.")]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self):
        while self._bindings:
            module, attr, original = self._bindings.pop()
            setattr(module, attr, original)

    def _wrap(self, func, name, group, counts, opens_span):
        tracer = self

        if not opens_span:
            def counting(*args, **kwargs):
                result = func(*args, **kwargs)
                if tracer._stack:
                    span_counts = tracer._stack[-1]["counts"]
                    for key, value in counts(args, kwargs, result).items():
                        span_counts[key] = span_counts.get(key, 0) + value
                return result
            return counting

        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name, "group": group,
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                    "invocation": tracer.invocation, "counts": {}}
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                tracer._stack.pop()
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    span["counts"][key] = span["counts"].get(key, 0) + value
            return result
        return traced


def self_times(spans):
    """Self time of each span in nanoseconds, keyed by span id."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(spans, passes):
    """Per-pass per-layer metrics from the spans of ``passes`` traced passes."""
    own = self_times(spans)
    group_ns = defaultdict(int)
    counts = defaultdict(float)
    for span in spans:
        group_ns[span["group"]] += own[span["id"]]
        for key, value in span["counts"].items():
            counts[key] += value
    groups = sorted({group for _, _, group, _, _ in WRAPS})
    metrics = {f"{group}_s": group_ns[group] / 1e9 / passes for group in groups}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            ns for group, ns in group_ns.items()
            if group.split(".")[0] == layer) / 1e9 / passes
    for key in COUNT_METRICS:
        metrics[key] = counts[key] / passes
    metrics["solver.solve_iter_per_s"] = _ratio(
        metrics["solver.solve_iterations"], metrics["solver.solve_s"])
    metrics["solver.semigroup_products_per_s"] = _ratio(
        metrics["solver.semigroup_lam_t"], metrics["solver.semigroup_s"])
    return metrics


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def invocation_balance(spans):
    """Largest gap, in ns, between an invocation's root span and the summed
    self times of its spans; zero when every span nests in its root."""
    own = self_times(spans)
    totals = defaultdict(int)
    roots = {}
    for span in spans:
        totals[span["invocation"]] += own[span["id"]]
        if span["parent"] is None:
            roots[span["invocation"]] = span["end"] - span["start"]
    return max((abs(totals[k] - roots.get(k, 0)) for k in totals), default=0)
