"""Spans around grflab's public functions, installed from outside the package.

Every public function bound in a grflab module namespace is replaced by a
wrapper under the name its callers bind: ``grflab.field.normal_matrix`` is
``rng.normal_matrix`` as ``field.py`` calls it, ``grflab.mc.box_design`` is
``field.box_design`` as ``mc.py`` calls it.  ``BasisFunction.eval_partial``
is wrapped on the class.  A span records its name, start, end and parent;
its self time is its duration minus the time covered by its child spans.
Spans stay in memory; the child process writes per-function totals, a few
work counters and the spans longer than ``LONG_SPAN_S`` to its sidecar file.

``layer_metrics`` turns the per-function totals of one workload into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict
from math import comb

MODULES = ("basis", "cli", "counterexample", "field", "jet", "kernel", "linalg",
           "mc", "multiindex", "rng", "serialize")
LONG_SPAN_S = 1e-3


def _reduced_entries(args, kwargs):
    """(alpha, beta) pairs times (G k)^2 for kernel_seminorm(K, spec) and
    kernel_distance(K1, K2, spec)."""
    spec = kwargs.get("spec", args[-1])
    K = args[0]
    p = comb(K.m + spec.order, spec.order)
    return p * (p + 1) // 2 * (spec.box.n_grid_points * K.k) ** 2


def _design_entries(design):
    return int(design.nnz) if hasattr(design, "nnz") else int(design.size)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters = defaultdict(int)
        self.spans = []      # [name, start, end, parent index]
        self._stack = []     # [span index, child time]
        self._patched = []   # (owner, attribute, original)
        self._origins = {}   # wrapped name -> defining module and name

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, origin, fn, after=None):
        stats, spans, stack = self.stats, self.spans, self._stack
        origins = self._origins

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append([index, 0.0])
            start = span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = stack.pop()
                duration = end - start
                entry = stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - child
                if stack:
                    stack[-1][1] += duration
                span[2] = end
            if after is not None:
                after(args, kwargs, result, parent)
            return result

        origins[name] = origin
        return wrapper

    def _counting(self, origin):
        """Work counters attached to the functions whose calls do the work."""
        c = self.counters
        spans = self.spans

        def add(key, value):
            c[key] += int(value)

        def outer_reduction(parent):
            # a kernel_seminorm nested in kernel_distance is not counted twice
            while parent >= 0:
                name, _, _, parent = spans[parent]
                if self._origins[name].rsplit(".", 1)[-1] in (
                        "kernel_seminorm", "kernel_distance"):
                    return False
            return True

        hooks = {
            "grflab.rng.uniform_matrix": lambda a, k, r, p: add("rng.words", r.size),
            "grflab.rng.normal_matrix": lambda a, k, r, p: add("rng.normals", r.size),
            "grflab.field.apply_design": lambda a, k, r, p: add(
                "field.apply_flops", 2 * a[0].shape[0] * _design_entries(a[1])),
            "grflab.mc.estimate_probability": lambda a, k, r, p: add("mc.paths", r.n_samples),
            "grflab.mc.empirical_sup_mean": lambda a, k, r, p: add("mc.paths", r.n_samples),
            "grflab.linalg.eigh_jacobi": lambda a, k, r, p: c.__setitem__(
                "linalg.eig_max_dim", max(c["linalg.eig_max_dim"], len(r[0]))),
        }
        for fn in ("kernel_seminorm", "kernel_distance"):
            hooks[f"grflab.kernel.{fn}"] = lambda a, k, r, p: (
                add("kernel.reduced_entries", _reduced_entries(a, k))
                if outer_reduction(p) else None)
        return hooks.get(origin)

    def _wrap_cached(self, name, origin, cached):
        """lru_cache'd function: count hits, misses and entries built."""
        c = self.counters

        def call(*args, **kwargs):
            hits, misses = cached.cache_info()[:2]
            result = cached(*args, **kwargs)
            new_hits, new_misses = cached.cache_info()[:2]
            c["field.design_hits"] += new_hits - hits
            c["field.design_misses"] += new_misses - misses
            if new_misses > misses:
                c["field.design_entries"] += _design_entries(result)
            return result

        return self._wrap(name, origin, call)

    def install(self):
        for short in MODULES:
            mod = importlib.import_module(f"grflab.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                is_cached = hasattr(obj, "cache_info")  # functools.lru_cache
                if not (isinstance(obj, types.FunctionType) or is_cached):
                    continue
                defined_in = getattr(obj, "__module__", "") or ""
                if not defined_in.startswith("grflab."):
                    continue
                origin = f"{defined_in}.{obj.__qualname__}"
                name = f"{mod.__name__}.{attr}"
                if origin == "grflab.field.box_design":
                    wrapper = self._wrap_cached(name, origin, obj)
                else:
                    wrapper = self._wrap(name, origin, obj, self._counting(origin))
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, obj))
        from grflab.basis import BasisFunction

        original = BasisFunction.eval_partial
        name = "grflab.basis.BasisFunction.eval_partial"
        BasisFunction.eval_partial = self._wrap(name, name, original)
        self._patched.append((BasisFunction, "eval_partial", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        out = {name: {"origin": self._origins[name], "calls": calls,
                      "total_s": total, "self_s": self_s}
               for name, (calls, total, self_s) in self.stats.items()}
        return {"functions": out, "counters": dict(self.counters),
                "n_spans": len(self.spans)}

    def long_spans(self) -> list:
        """Spans of at least LONG_SPAN_S, as [index, name, start, end, parent]."""
        return [[i, *s] for i, s in enumerate(self.spans) if s[2] - s[1] >= LONG_SPAN_S]


# per-layer time metric -> functions (by defining module and name) whose
# self times it sums
LAYER_TIMES = {
    "cli.run_self_s": ["grflab.cli.run"],
    "counterexample.build_s": ["grflab.counterexample.build_X_n"],
    "rng.words_s": ["grflab.rng.uniform_matrix"],
    "rng.normal_s": ["grflab.rng.normal_matrix"],
    "basis.eval_s": ["grflab.basis.BasisFunction.eval_partial"],
    "field.design_s": ["grflab.field.box_design", "grflab.field.design_at_points"],
    "field.apply_s": ["grflab.field.apply_design"],
    "field.sup_s": ["grflab.field.batch_seminorms"],
    "kernel.reduce_s": ["grflab.kernel.kernel_seminorm", "grflab.kernel.kernel_distance"],
    "kernel.deriv_s": ["grflab.kernel.eval_kernel_deriv"],
    "kernel.check_s": ["grflab.kernel.check_symmetry", "grflab.kernel.check_psd"],
    "jet.cov_s": ["grflab.jet.jet_covariance"],
    "jet.scan_s": ["grflab.jet.scan_nondegeneracy", "grflab.jet.nondegeneracy_certificate"],
    "linalg.eig_s": ["grflab.linalg.eigh_jacobi"],
    "mc.scan_s": ["grflab.mc.estimate_probability", "grflab.mc.empirical_sup_mean"],
}
# every function defined in serialize.py counts towards serialize.load_s
SERIALIZE_PREFIX = "grflab.serialize."

# per-layer call counts -> functions (by defining module and name)
LAYER_CALLS = {
    "basis.eval_calls": ["grflab.basis.BasisFunction.eval_partial"],
    "field.point_design_calls": ["grflab.field.design_at_points"],
    "kernel.deriv_calls": ["grflab.kernel.eval_kernel_deriv"],
    "jet.cov_calls": ["grflab.jet.jet_covariance"],
    "linalg.eig_calls": ["grflab.linalg.eigh_jacobi"],
}
# calls counted by the name the caller binds: one per Monte Carlo chunk
BINDING_CALLS = {"mc.chunks": ["grflab.mc.sample_batch_coeffs"]}
COUNTERS = ("rng.words", "rng.normals", "field.design_hits", "field.design_misses",
            "field.design_entries", "field.apply_flops", "kernel.reduced_entries",
            "mc.paths")


def layer_metrics(traces) -> dict:
    """Per-layer metrics of one round: ``traces`` are the child summaries."""
    out = dict.fromkeys([*LAYER_TIMES, "serialize.load_s", *LAYER_CALLS,
                         *BINDING_CALLS, *COUNTERS, "linalg.eig_max_dim"], 0)
    for t in traces:
        for name, f in t["functions"].items():
            origin = f["origin"]
            for metric, origins in LAYER_TIMES.items():
                if origin in origins:
                    out[metric] += f["self_s"]
            if origin.startswith(SERIALIZE_PREFIX):
                out["serialize.load_s"] += f["self_s"]
            for metric, origins in LAYER_CALLS.items():
                if origin in origins:
                    out[metric] += f["calls"]
            for metric, names in BINDING_CALLS.items():
                if name in names:
                    out[metric] += f["calls"]
        for key in COUNTERS:
            out[key] += t["counters"].get(key, 0)
        out["linalg.eig_max_dim"] = max(out["linalg.eig_max_dim"],
                                        t["counters"].get("linalg.eig_max_dim", 0))
    lookups = out["field.design_hits"] + out["field.design_misses"]
    out["field.design_hit_ratio"] = out["field.design_hits"] / lookups if lookups else 0.0
    return out
