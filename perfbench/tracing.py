"""Spans around the calls into the package's public functions.

The tracer wraps every public function of each layer module at every
module attribute bound to it, so a call is caught whichever name the
caller uses (``fit`` is bound in ``sparsemax.linear_model``, in
``sparsemax.cli`` and in the package itself).  Spans are kept in memory
as (name, start, end, parent, tag) and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "datasets", "linear_model", "metrics", "simplex", "losses", "jacobians")
K_TAGS = ("K10", "K1000", "K100000")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.tag = None  # attached to every span that starts while it is set
        self.names: list[str] = []  # every wrapped function, called or not
        self.fit_epochs: list[tuple[int, int]] = []  # (accepted epochs, max_epochs) per fit

    def install(self, package) -> None:
        """Wrap the public functions of every layer at every binding in the package."""
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        replacements = {}
        for layer, module in modules.items():
            public = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for attr in public:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    inner = self._count_epochs(fn) if name == "linear_model.fit" else fn
                    replacements[id(fn)] = (fn, self._wrap(name, inner))
                    self.names.append(name)
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.tag)

        traced.__wrapped__ = fn
        return traced

    def _count_epochs(self, fit):
        """fit with a `history` list passed in, to count its accepted epochs."""

        def counted(data, cfg, loss_kind, init=None, history=None):
            history = [] if history is None else history
            before = len(history)
            model = fit(data, cfg, loss_kind, init=init, history=history)
            # history holds the starting objective plus one value per accepted epoch.
            self.fit_epochs.append((len(history) - before - 1, cfg.max_epochs))
            return model

        return counted

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, tag, start, end]) + "\n")


def _tail(samples):
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples above it.

    With fewer than 40 samples none qualifies, and the median is returned.
    """
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (100.0 - q) / 100.0 >= 10.0:
            return statistics.quantiles(samples, n=1000, method="inclusive")[round(q * 10) - 1]
    return statistics.median(samples)


def layer_table(tracer: Tracer, rounds: int) -> dict:
    """Calls, inclusive and self seconds per round for every wrapped function."""
    child_time = defaultdict(float)
    for name, start, end, parent, tag in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in tracer.names}
    for index, (name, start, end, parent, tag) in enumerate(tracer.spans):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[index]
    for row in table.values():
        row["calls"] = row["calls"] / rounds
        row["total_s"] /= rounds
        row["self_s"] /= rounds
    return table


def _durations_by_name(tracer):
    grouped = defaultdict(list)
    for name, start, end, parent, tag in tracer.spans:
        grouped[name].append((end - start, tag))
    return grouped


def _labelprop_cells(tracer):
    """Seconds per labelprop cell: from its cross_validate call to the next cell or data draw."""
    cells = []
    for index, span in enumerate(tracer.spans):
        if span[0] != "cli.run_labelprop":
            continue
        children = [s for s in tracer.spans if s[3] == index]
        starts = [s[1] for s in children if s[0] in ("linear_model.cross_validate", "datasets.generate_synthetic")]
        for child in children:
            if child[0] == "linear_model.cross_validate":
                later = [t for t in starts if t > child[1]]
                cells.append((min(later) if later else span[2]) - child[1])
    return cells


def per_layer_metrics(tracer: Tracer, rounds: int, counters: dict, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, per round of the workload."""
    table = layer_table(tracer, rounds)
    grouped = _durations_by_name(tracer)
    metrics = {}

    def durations(name, tag=None):
        return [d for d, t in grouped[name] if tag is None or t == tag]

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    fit_ms = [1e3 * d for d in durations("linear_model.fit")]
    put("linear_model.fit_s", table["linear_model.fit"]["total_s"], "s")
    put("linear_model.fit.calls", table["linear_model.fit"]["calls"], "count")
    put("linear_model.fit.ms_p50", statistics.median(fit_ms) if fit_ms else 0.0, "ms")
    put("linear_model.fit.ms_tail", _tail(fit_ms) if fit_ms else 0.0, "ms")
    put("linear_model.fit.epochs", sum(e for e, _ in tracer.fit_epochs) / rounds, "count")
    put("linear_model.fit.at_cap", sum(e >= cap for e, cap in tracer.fit_epochs) / rounds, "count")
    put("linear_model.cross_validate_s", table["linear_model.cross_validate"]["total_s"], "s")
    predict_us = [1e6 * d for d in durations("linear_model.predict_labels")]
    put("linear_model.predict_labels_s", table["linear_model.predict_labels"]["total_s"], "s")
    put("linear_model.predict_labels.calls", table["linear_model.predict_labels"]["calls"], "count")
    put("linear_model.predict_labels.us_p50", statistics.median(predict_us) if predict_us else 0.0, "us")
    for fn in ("mse", "js_divergence"):
        put(f"metrics.{fn}_s", table[f"metrics.{fn}"]["total_s"], "s")
        put(f"metrics.{fn}.calls", table[f"metrics.{fn}"]["calls"], "count")
    put("metrics.micro_macro_f1_s", table["metrics.micro_macro_f1"]["total_s"], "s")
    for fn in ("generate_synthetic", "standardize_features", "read_libsvm_multilabel"):
        put(f"datasets.{fn}_s", table[f"datasets.{fn}"]["total_s"], "s")
    put("cli.self_s", sum(row["self_s"] for name, row in table.items() if name.startswith("cli.")), "s")
    cells = _labelprop_cells(tracer)
    put("cli.labelprop.cell_s", statistics.median(cells) if cells else 0.0, "s")
    for method in ("logistic", "softmax", "sparsemax"):
        put(f"cli.multilabel.{method}_s", sum(durations("cli.cmd_multilabel", method)) / rounds, "s")
    for fn in ("simplex.sparsemax", "simplex.threshold_and_support", "losses.sparsemax_loss_multi", "jacobians.sparsemax_jvp"):
        for tag in K_TAGS:
            rows = durations(fn, tag)
            put(f"{fn}.{tag}.rows_per_s", len(rows) / sum(rows) if rows else 0.0, "1/s")
    put("jacobians.sparsemax_jvp.ops", counters.get("jacobians.sparsemax_jvp.ops", 0), "count")
    put("trace.overhead_s", overhead_s, "s")
    return metrics
