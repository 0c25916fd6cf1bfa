"""Traced runs: spans around calls into each regobs module.

The spans are recorded from the benchmark's side by replacing public
functions with timing wrappers while a traced op runs; nothing in the
package is edited.  `harness`, `observer` and `cli` bind names with
``from .x import y``, so a function is replaced in every regobs module whose
attribute is that function, not only where it is defined.
"""

from __future__ import annotations

import functools
import gzip
import os
import statistics
import sys
from time import perf_counter

# (defining module, attribute, span name).  Both predicates share one span.
TRACED = (
    ("regobs.cli", "main", "cli.main"),
    ("regobs.config", "load_config", "config.load_config"),
    ("regobs.config", "render_config", "config.render_config"),
    ("regobs.harness", "run_experiment", "harness.run_experiment"),
    ("regobs.harness", "placement_sweep", "harness.placement_sweep"),
    ("regobs.harness", "emit_outputs", "harness.emit_outputs"),
    ("regobs.harness", "emit_sweep", "harness.emit_sweep"),
    ("regobs.spectral", "assemble_exchange_model", "spectral.assemble_exchange_model"),
    ("regobs.spectral", "Propagator.__init__", "spectral.Propagator.init"),
    ("regobs.spectral", "Propagator.step", "spectral.Propagator.step"),
    ("regobs.sensing", "output_matrix", "sensing.output_matrix"),
    ("regobs.sensing", "observability_gramian", "sensing.observability_gramian"),
    ("regobs.sensing", "strategic_rank_test", "sensing.strategic_rank_test"),
    ("regobs.sensing", "nonstrategic_pointwise_predicate", "sensing.predicate"),
    ("regobs.sensing", "nonstrategic_zone_predicate", "sensing.predicate"),
    ("regobs.observer", "split_unstable_stable", "observer.split_unstable_stable"),
    ("regobs.observer", "design_gain", "observer.design_gain"),
    ("regobs.observer", "simulate_reduced_order", "observer.simulate_reduced_order"),
    ("regobs.observer", "simulate_full_order", "observer.simulate_full_order"),
    ("regobs.region", "error_norm_series", "region.error_norm_series"),
    ("regobs.region", "build_collar", "region.build_collar"),
    ("regobs.region", "fit_decay", "region.fit_decay"),
)


# Work counters read the traced call's public arguments and result.

def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _propagator_order(counts, args, kwargs, result):
    # Propagator.__init__(self, m, dt, b=None): order of the exponentiated matrix
    b = _arg(args, kwargs, 3, "b")
    order = len(_arg(args, kwargs, 1, "m")) + (b.shape[1] if b is not None and b.size else 0)
    counts["spectral.Propagator.order_max"] = max(counts.get("spectral.Propagator.order_max", 0), order)
    counts["spectral.Propagator.bytes_computed"] = counts.get("spectral.Propagator.bytes_computed", 0) + 8 * order**2


def _norm_nodes(counts, args, kwargs, result):
    # error_norm_series(err_coeffs, domain, modes, region, weight): nodes x samples
    region = _arg(args, kwargs, 3, "region")
    kind = type(region).__name__
    if kind == "CollarRegion":
        nodes = len(region.points)
    elif kind == "InternalRectangle":
        nodes = region.n_quad**2
    else:
        nodes = region.n_quad
    counts["region.error_norm_series.nodes"] = (counts.get("region.error_norm_series.nodes", 0)
                                                + nodes * len(result))


def _emitted_bytes(counts, args, kwargs, result):
    # emit_outputs(report, trajectories, cfg, out_dir) returns the manifest
    out_dir = _arg(args, kwargs, 3, "out_dir")
    size = sum(os.path.getsize(os.path.join(out_dir, name)) for name in result)
    counts["harness.emit_outputs.bytes"] = counts.get("harness.emit_outputs.bytes", 0) + size


def _sweep_bytes(counts, args, kwargs, result):
    # emit_sweep(result, out_dir) returns the path it wrote
    counts["harness.emit_sweep.bytes"] = counts.get("harness.emit_sweep.bytes", 0) + os.path.getsize(result)


COUNTERS = {
    "spectral.Propagator.init": _propagator_order,
    "region.error_norm_series": _norm_nodes,
    "harness.emit_outputs": _emitted_bytes,
    "harness.emit_sweep": _sweep_bytes,
}


class Tracer:
    """Spans (op, id, parent, name, start, end) kept in memory for one run."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, float] = {}
        self.op_walls: list[float] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((self._op, sid, parent, name, start, end))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def _install(self):
        modules = [m for key, m in sys.modules.items() if key == "regobs" or key.startswith("regobs.")]
        for module_name, attr, span in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:  # a removed function records no span
                    continue
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def _uninstall(self):
        while self._saved:
            target, key, original = self._saved.pop()
            setattr(target, key, original)

    def call(self, fn):
        """Run fn() with every traced function wrapped; returns its result
        and the op's wall time."""
        self._op += 1
        self._install()
        try:
            start = perf_counter()
            result = fn()
            wall = perf_counter() - start
        finally:
            self._uninstall()
        self.op_walls.append(wall)
        return result, wall

    def layer_totals(self):
        """Per span name: inclusive seconds, self seconds and call count."""
        child = {}
        for _, _, parent, _, start, end in self.spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        totals = {}
        for _, sid, _, name, start, end in self.spans:
            t = totals.setdefault(name, [0.0, 0.0, 0])
            t[0] += end - start
            t[1] += (end - start) - child.get(sid, 0.0)
            t[2] += 1
        return totals

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for op, sid, parent, name, start, end in sorted(self.spans, key=lambda s: s[1]):
                fh.write(f"{op},{sid},{parent},{name},{start:.9f},{end:.9f}\n")


# Per-layer metrics: (name, unit, source).  Sources: ("time", span) inclusive
# seconds per traced op; ("self", span) self seconds per op; ("calls", span)
# calls per op; ("count", key) counter per op; ("max", key) largest value.
LAYER_METRICS = (
    ("spectral.Propagator.init_s", "s/op", ("time", "spectral.Propagator.init")),
    ("spectral.Propagator.init_calls", "1/op", ("calls", "spectral.Propagator.init")),
    ("spectral.Propagator.order_max", "count", ("max", "spectral.Propagator.order_max")),
    ("spectral.Propagator.bytes_computed", "B/op", ("count", "spectral.Propagator.bytes_computed")),
    ("spectral.Propagator.step_s", "s/op", ("time", "spectral.Propagator.step")),
    ("spectral.Propagator.step_calls", "1/op", ("calls", "spectral.Propagator.step")),
    ("spectral.assemble_exchange_model_s", "s/op", ("time", "spectral.assemble_exchange_model")),
    ("sensing.observability_gramian_s", "s/op", ("time", "sensing.observability_gramian")),
    ("sensing.observability_gramian_calls", "1/op", ("calls", "sensing.observability_gramian")),
    ("sensing.strategic_rank_test_s", "s/op", ("time", "sensing.strategic_rank_test")),
    ("sensing.strategic_rank_test_calls", "1/op", ("calls", "sensing.strategic_rank_test")),
    ("sensing.output_matrix_s", "s/op", ("time", "sensing.output_matrix")),
    ("sensing.output_matrix_calls_per_op", "1/op", ("calls", "sensing.output_matrix")),
    ("sensing.predicate_s", "s/op", ("time", "sensing.predicate")),
    ("observer.split_unstable_stable_s", "s/op", ("time", "observer.split_unstable_stable")),
    ("observer.design_gain_s", "s/op", ("time", "observer.design_gain")),
    ("observer.simulate_reduced_order.self_s", "s/op", ("self", "observer.simulate_reduced_order")),
    ("observer.simulate_full_order.self_s", "s/op", ("self", "observer.simulate_full_order")),
    ("region.error_norm_series_s", "s/op", ("time", "region.error_norm_series")),
    ("region.error_norm_series_calls", "1/op", ("calls", "region.error_norm_series")),
    ("region.error_norm_series_nodes", "1/op", ("count", "region.error_norm_series.nodes")),
    ("region.build_collar_s", "s/op", ("time", "region.build_collar")),
    ("region.fit_decay_s", "s/op", ("time", "region.fit_decay")),
    ("harness.emit_outputs_s", "s/op", ("time", "harness.emit_outputs")),
    ("harness.emit_outputs_bytes", "B/op", ("count", "harness.emit_outputs.bytes")),
    ("harness.emit_sweep_s", "s/op", ("time", "harness.emit_sweep")),
    ("harness.emit_sweep_bytes", "B/op", ("count", "harness.emit_sweep.bytes")),
    ("harness.run_experiment.self_s", "s/op", ("self", "harness.run_experiment")),
    ("harness.placement_sweep.self_s", "s/op", ("self", "harness.placement_sweep")),
    ("config.load_config_s", "s/op", ("time", "config.load_config")),
    ("config.render_config_s", "s/op", ("time", "config.render_config")),
    ("cli.main.self_s", "s/op", ("self", "cli.main")),
)
# Whole-op figures of the traced run: median traced op, its excess over the
# untraced ops of the same run, and the share of traced op time that the
# spans' self times account for.
TRACE_METRICS = (
    ("trace.op_s_p50", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_share", "ratio"),
)


def layer_metrics(tracer: Tracer, untraced_walls: list[float]) -> dict:
    n_ops = len(tracer.op_walls)
    totals = tracer.layer_totals()
    metrics = {}
    for name, unit, (source, key) in LAYER_METRICS:
        inclusive, self_s, calls = totals.get(key, (0.0, 0.0, 0))
        if source == "time":
            value = inclusive / n_ops
        elif source == "self":
            value = self_s / n_ops
        elif source == "calls":
            value = calls / n_ops
        elif source == "count":
            value = tracer.counts.get(key, 0) / n_ops
        else:
            value = tracer.counts.get(key, 0)
        metrics[name] = {"value": value, "unit": unit}
    traced = statistics.median(tracer.op_walls)
    untraced = statistics.median(untraced_walls) if untraced_walls else float("nan")
    self_total = sum(t[1] for t in totals.values())
    values = (traced, traced - untraced, self_total / sum(tracer.op_walls))
    for (name, unit), value in zip(TRACE_METRICS, values):
        metrics[name] = {"value": value, "unit": unit}
    return metrics
