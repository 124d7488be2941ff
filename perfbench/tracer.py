"""In-memory tracer for the benchmark's traced run.

The tracer replaces each layer's public functions with wrappers, in every
``nesslab`` module that holds a reference to them (``ness`` calls
``ac_overlap`` through the name it imported, not through ``scattering``).
Wrapped calls of the boundary functions record a span: name, start, end,
parent span and task.  The integrand kernels run about 4e5 times per run,
so they only add to a call count and a summed busy time.  Self time is a
span's duration minus its child spans and minus the kernel time spent
directly inside it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# public functions that get a span, as module.function
SPANNED = (
    "numerics.adaptive_integrate",
    "scattering.ac_overlap",
    "scattering.pp_weight",
    "ness.s_element",
    "ness.correlation_block",
    "transport.heat_flux",
    "transport.flux_report",
    "transport.divergence_fit",
    "transport.log_decomposition",
    "oracle.build_truncation",
    "oracle.initial_two_point",
    "oracle.ness_estimate",
    "oracle.evolve_with_state",
)
# kernels: call count and busy time, no span
TIMED_KERNELS = ("model.planck_density", "model.planck_difference")
# kernels: call count only
COUNTED_KERNELS = ("numerics.geometric_sine_sum",)

# every per-layer metric the traced run reports, with its unit; per-task
# figures are totals over the traced tasks divided by their number
PER_LAYER = {
    "model.planck_density.calls": "count/task",
    "model.planck_density.busy_s": "s/task",
    "model.planck_difference.calls": "count/task",
    "model.planck_difference.busy_s": "s/task",
    "numerics.adaptive_integrate.calls": "count/task",
    "numerics.adaptive_integrate.self_s": "s/task",
    "numerics.adaptive_integrate.neval": "count/task",
    "numerics.adaptive_integrate.subdivisions": "count/task",
    "numerics.adaptive_integrate.failed": "count/task",
    "numerics.geometric_sine_sum.calls": "count/task",
    "scattering.ac_overlap.calls": "count/task",
    "scattering.ac_overlap.self_s": "s/task",
    "scattering.ac_overlap.failed": "count/task",
    "scattering.pp_weight.calls": "count/task",
    "scattering.pp_weight.self_s": "s/task",
    "scattering.pp_weight.cache_hit_ratio": "ratio",
    "ness.s_element.calls": "count/task",
    "ness.s_element.self_s": "s/task",
    "ness.correlation_block.calls": "count/task",
    "ness.correlation_block.self_s": "s/task",
    "ness.correlation_block.failed": "count/task",
    "transport.heat_flux.calls": "count/task",
    "transport.heat_flux.self_s": "s/task",
    "transport.heat_flux.failed": "count/task",
    "transport.flux_report.calls": "count/task",
    "transport.flux_report.self_s": "s/task",
    "transport.flux_report.failed": "count/task",
    "transport.divergence_fit.self_s": "s/task",
    "transport.log_decomposition.self_s": "s/task",
    "oracle.build_truncation.calls": "count/task",
    "oracle.build_truncation.self_s": "s/task",
    "oracle.factorization.calls": "count/task",
    "oracle.factorization.self_s": "s/task",
    "oracle.initial_two_point.calls": "count/task",
    "oracle.initial_two_point.self_s": "s/task",
    "oracle.initial_two_point.cache_hit_ratio": "ratio",
    "oracle.ness_estimate.self_s": "s/task",
    "oracle.evolve_with_state.self_s": "s/task",
    "oracle.dense_bytes": "bytes_computed",
    "trace.overhead_s": "s/task",
}


def dense_bytes(obj) -> int:
    """Bytes held in numpy arrays reachable from ``obj``'s attributes, computed from sizes."""
    total = 0
    stack = [vars(obj)] if hasattr(obj, "__dict__") else []
    while stack:
        item = stack.pop()
        values = item.values() if isinstance(item, dict) else item
        for value in values:
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, (dict, list, tuple)):
                stack.append(value)
    return total


class Tracer:
    """Wraps the layers of an imported ``nesslab`` and aggregates what the wrappers see."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.kernel_busy = 0.0
        self.kernels: dict[str, list] = {}
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.task = -1
        self.tasks = 0
        self.max_dense_bytes = 0
        self._undo: list = []
        self._pp_cache = None
        self._pp_info0 = None

    # -- installation -----------------------------------------------------

    def _replace(self, orig, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "nesslab" and not name.startswith("nesslab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, orig))

    def install(self) -> None:
        for qual in SPANNED:
            mod, fn = qual.split(".")
            orig = getattr(importlib.import_module(f"nesslab.{mod}"), fn)
            hook = self._state_cache_hook if qual == "oracle.initial_two_point" else None
            wrap = self._integrate_wrapper if qual == "numerics.adaptive_integrate" else self._span_wrapper
            self._replace(orig, wrap(qual, orig) if hook is None else wrap(qual, orig, hook))
        for qual in TIMED_KERNELS + COUNTED_KERNELS:
            mod, fn = qual.split(".")
            orig = getattr(importlib.import_module(f"nesslab.{mod}"), fn)
            self._replace(orig, self._kernel_wrapper(qual, orig, qual in TIMED_KERNELS))
        oracle = importlib.import_module("nesslab.oracle")
        orig = oracle.TruncatedSystem.factorization
        oracle.TruncatedSystem.factorization = self._span_wrapper("oracle.factorization", orig)
        self._undo.append((oracle.TruncatedSystem, "factorization", orig))
        scattering = importlib.import_module("nesslab.scattering")
        # private names on purpose: a library change that moves them must break this
        self._pp_cache = scattering._pp_weight_cached
        self._pp_info0 = self._pp_cache.cache_info()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, hook=None):
        stats = self.stats[name]
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(stats, args, kwargs)
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            k0 = self.kernel_busy
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats["failed"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                stats["calls"] += 1
                spans[sid] = (parent, name, t0, t1, k0, self.kernel_busy, self.task)

        return wrapper

    def _integrate_wrapper(self, name, fn):
        stats = self.stats[name]
        inner = self._span_wrapper(name, fn)

        def wrapper(f, *args, **kwargs):
            count = [0]

            def counted(t):
                count[0] += 1
                return f(t)

            try:
                result = inner(counted, *args, **kwargs)
            finally:
                stats["neval"] += count[0]
            stats["subdivisions"] += result.subdivisions_used
            return result

        return wrapper

    def _kernel_wrapper(self, name, fn, timed):
        record = self.kernels[name] = [0, 0.0]
        clock = time.perf_counter
        if not timed:

            def counter(*args, **kwargs):
                record[0] += 1
                return fn(*args, **kwargs)

            return counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                record[0] += 1
                record[1] += dt
                self.kernel_busy += dt

        return wrapper

    @staticmethod
    def _state_cache_hook(stats, args, kwargs):
        system = args[0] if args else kwargs.get("sys")
        th = args[1] if len(args) > 1 else kwargs.get("th")
        if (th.beta_l, th.beta_r) in system._state_cache:
            stats["hits"] += 1

    # -- per-task bookkeeping ---------------------------------------------

    def start_task(self) -> None:
        self.task = self.tasks
        self.tasks += 1

    def note_system(self, system) -> None:
        self.max_dense_bytes = max(self.max_dense_bytes, dense_bytes(system))

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.spans)
        child_dur = [0.0] * n
        child_kern = [0.0] * n
        for parent, _, t0, t1, k0, k1, _ in self.spans:
            if parent >= 0:
                child_dur[parent] += t1 - t0
                child_kern[parent] += k1 - k0
        out: dict[str, float] = defaultdict(float)
        for i, (_, name, t0, t1, k0, k1, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child_dur[i] - ((k1 - k0) - child_kern[i])
        return out

    def metrics(self, overhead_per_task: float) -> dict[str, float]:
        n = max(self.tasks, 1)
        self_s = self.self_times()
        values: dict[str, float] = {}
        for name in PER_LAYER:
            layer, _, metric = name.rpartition(".")
            if layer in self.kernels:
                calls, busy = self.kernels[layer]
                values[name] = (calls if metric == "calls" else busy) / n
            elif metric == "self_s":
                values[name] = self_s.get(layer, 0.0) / n
            elif metric in ("calls", "failed", "neval", "subdivisions"):
                values[name] = self.stats[layer][metric] / n
        values["scattering.pp_weight.cache_hit_ratio"] = self._pp_hit_ratio()
        its = self.stats["oracle.initial_two_point"]
        values["oracle.initial_two_point.cache_hit_ratio"] = (
            its["hits"] / its["calls"] if its["calls"] else 0.0
        )
        values["oracle.dense_bytes"] = float(self.max_dense_bytes)
        values["trace.overhead_s"] = overhead_per_task
        return values

    def _pp_hit_ratio(self) -> float:
        info = self._pp_cache.cache_info()
        hits = info.hits - self._pp_info0.hits
        misses = info.misses - self._pp_info0.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def write(self, path) -> None:
        """Spans as JSON lines ``[id, parent, name, start, end, task]``, then kernel totals."""
        with open(path, "w") as out:
            for i, (parent, name, t0, t1, _, _, task) in enumerate(self.spans):
                out.write(json.dumps([i, parent, name, t0, t1, task]) + "\n")
            out.write(json.dumps({"kernels": self.kernels}) + "\n")
