"""Span tracer that times the library's layers from outside the package.

Each target is a name that one module of ``andersonclt`` imports from the
layer below it (``clt.eigenvalues_sym``, ``measures.eigh_tridiagonal``, ...)
or a method of a class the layers share.  While a ``Tracer`` is active, every
target is replaced by a wrapper that records a span: layer, start, end, the
span that was open when it started (its parent) and the counts taken at that
boundary.  Spans stay in memory; ``pass_metrics`` reduces the spans of one
pass to per-layer metrics.

A layer's time is the duration of its outermost spans (a span nested in a span
of the same layer, as ``walks.moment_polynomial`` is inside
``clt.trace_polynomial_terms``, is not counted twice).  A layer's self time is
the sum over its spans of the duration minus the part covered by child spans.

The tracer never reports a layer silently as zero: a target that no longer
resolves, or a layer that a workload declares it uses but never calls, is
reported as missing and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib
import time


def _matrix_bytes(args, result):
    # the dense N x N float64 matrix that assemble_hamiltonian allocates
    n = len(args[0])
    return {"bytes": n * n * 8}


def _solve_dim(args, result):
    return {"dim": len(result)}


def _site_count(args, result):
    return {"sites": len(result)}


def _terms(args, result):
    terms = result.terms if hasattr(result, "terms") else result
    return {"terms": len(terms)}


def _configs(args, result):
    return {"configs": 2 ** args[0].n_sites}


# (layer, owner, attribute, counter): owner is a module path, or a module path
# plus a class name after the last dot.
TARGETS = (
    ("cli.run", "andersonclt.cli", "run_experiment", None),
    ("lattice.enumerate", "andersonclt.clt", "enumerate_cube", None),
    ("lattice.enumerate", "andersonclt.measures", "enumerate_cube", None),
    ("lattice.enumerate", "andersonclt.cli", "enumerate_cube", None),
    ("lattice.enumerate", "andersonclt.lattice.LatticeCube", "neighbor_pairs", None),
    ("lattice.sample", "andersonclt.clt", "sample_disorder", None),
    ("lattice.sample", "andersonclt.measures", "sample_disorder", None),
    ("lattice.sample", "andersonclt.measures", "nested_disorder", None),
    ("lattice.assemble", "andersonclt.clt", "assemble_hamiltonian", _matrix_bytes),
    ("lattice.assemble", "andersonclt.measures", "assemble_hamiltonian", _matrix_bytes),
    ("rng.stream", "andersonclt.rng", "uniform_stream", None),
    ("rng.sites", "andersonclt.rng", "uniform_at_sites", _site_count),
    ("spectral.solve", "andersonclt.clt", "eigenvalues_sym", _solve_dim),
    ("spectral.solve", "andersonclt.measures", "eigenvalues_sym", _solve_dim),
    ("measures.solve", "andersonclt.measures", "eigh_tridiagonal", None),
    ("measures.integral", "andersonclt.clt", "modified_dos_integral_mc", None),
    ("walks.expand", "andersonclt.walks", "moment_polynomial", _terms),
    ("walks.expand", "andersonclt.measures", "moment_polynomial", _terms),
    ("walks.expand", "andersonclt.clt", "trace_polynomial_terms", _terms),
    ("walks.moment", "andersonclt.walks", "dos_moment", None),
    ("walks.moment", "andersonclt.walks", "modified_moment", None),
    ("walks.moment", "andersonclt.measures", "dos_moment", None),
    ("walks.moment", "andersonclt.measures", "dos_moment_variance", None),
    ("walks.moment", "andersonclt.measures", "modified_moment", None),
    ("clt.enum_table", "andersonclt.clt.EnumerationEngine", "trace_table", _configs),
    ("clt.enum_condexp", "andersonclt.clt.EnumerationEngine", "conditional_expectation", None),
    ("clt.decompose", "andersonclt.clt", "martingale_decomposition", None),
    ("clt.decompose", "andersonclt.clt", "directional_decomposition", None),
    ("clt.sample", "andersonclt.clt", "sample_centered_traces", None),
    ("clt.sample", "andersonclt.clt", "approx_variance_convergence", None),
    ("clt.reduce", "andersonclt.clt", "normality_test", None),
    ("clt.reduce", "andersonclt.clt", "variance_estimate", None),
    ("clt.reduce", "andersonclt.clt", "positivity_check", None),
    ("testfuncs.approx", "andersonclt.clt", "bernstein_approx", None),
    ("testfuncs.approx", "andersonclt.clt", "chebyshev_approx", None),
)

# metric name -> (unit, layer, statistic).  Statistics: total (seconds in
# outermost spans), self (self seconds), calls (outermost spans), or the name
# of a count summed over outermost spans; dim_mean divides the summed "dim"
# count by the calls.
LAYER_METRICS = {
    "spectral.solve_s": ("s", "spectral.solve", "total"),
    "spectral.solve_calls": ("count", "spectral.solve", "calls"),
    "spectral.solve_dim_mean": ("rows", "spectral.solve", "dim_mean"),
    "measures.solve_s": ("s", "measures.solve", "total"),
    "measures.solve_calls": ("count", "measures.solve", "calls"),
    "measures.integral_self_s": ("s", "measures.integral", "self"),
    "lattice.assemble_s": ("s", "lattice.assemble", "total"),
    "lattice.assemble_calls": ("count", "lattice.assemble", "calls"),
    "lattice.assemble_bytes": ("B", "lattice.assemble", "bytes"),
    "lattice.enumerate_s": ("s", "lattice.enumerate", "total"),
    "lattice.sample_self_s": ("s", "lattice.sample", "self"),
    "rng.stream_s": ("s", "rng.stream", "total"),
    "rng.stream_calls": ("count", "rng.stream", "calls"),
    "rng.sites_s": ("s", "rng.sites", "total"),
    "rng.sites_count": ("count", "rng.sites", "sites"),
    "walks.expand_s": ("s", "walks.expand", "total"),
    "walks.expand_calls": ("count", "walks.expand", "calls"),
    "walks.terms": ("count", "walks.expand", "terms"),
    "walks.moment_s": ("s", "walks.moment", "total"),
    "clt.enum_table_s": ("s", "clt.enum_table", "total"),
    "clt.enum_condexp_s": ("s", "clt.enum_condexp", "total"),
    "clt.enum_condexp_calls": ("count", "clt.enum_condexp", "calls"),
    "clt.enum_configs": ("count", "clt.enum_table", "configs"),
    "clt.decompose_self_s": ("s", "clt.decompose", "self"),
    "clt.sample_self_s": ("s", "clt.sample", "self"),
    "clt.reduce_s": ("s", "clt.reduce", "total"),
    "testfuncs.approx_s": ("s", "testfuncs.approx", "total"),
    "cli.run_self_s": ("s", "cli.run", "self"),
}

# counts that depend only on the configs, never on the seed or the machine
EXACT_COUNTS = (
    "spectral.solve_calls",
    "measures.solve_calls",
    "lattice.assemble_bytes",
    "clt.enum_configs",
    "walks.expand_calls",
    "walks.terms",
    "rng.sites_count",
    "clt.enum_condexp_calls",
)


def _resolve(owner: str):
    try:
        return importlib.import_module(owner)
    except ImportError:
        module_path, _, class_name = owner.rpartition(".")
        return getattr(importlib.import_module(module_path), class_name, None)


class Tracer:
    """Context manager that wraps every target while active."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent, outermost, counts]
        self.missing_targets = []
        self._stack = []
        self._depth = {}
        self._saved = []

    def __enter__(self):
        for layer, owner, attr, counter in TARGETS:
            obj = _resolve(owner)
            original = getattr(obj, attr, None) if obj is not None else None
            if original is None:
                self.missing_targets.append((layer, f"{owner}.{attr}"))
                continue
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(layer, original, counter))
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, layer, fn, counter):
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else None,
                    depth.get(layer, 0) == 0, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            depth[layer] = depth.get(layer, 0) + 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                depth[layer] -= 1
                stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return wrapper

    @property
    def missing_layers(self) -> set:
        return {layer for layer, _ in self.missing_targets}


def layer_stats(spans) -> dict:
    """Per-layer totals of one pass: total, self, calls and summed counts."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = {}
    for i, (layer, start, end, _, outermost, counts) in enumerate(spans):
        entry = stats.setdefault(layer, {"total": 0.0, "self": 0.0, "calls": 0})
        entry["self"] += (end - start) - child_time[i]
        if outermost:
            entry["total"] += end - start
            entry["calls"] += 1
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
    return stats


def pass_metrics(spans) -> dict:
    """Metric name -> value for one traced pass."""
    stats = layer_stats(spans)
    out = {}
    for name, (_, layer, stat) in LAYER_METRICS.items():
        entry = stats.get(layer, {"total": 0.0, "self": 0.0, "calls": 0})
        if stat == "dim_mean":
            out[name] = entry.get("dim", 0) / entry["calls"] if entry["calls"] else 0.0
        else:
            out[name] = entry.get(stat, 0)
    return out


def called_layers(spans) -> set:
    return {span[0] for span in spans}
