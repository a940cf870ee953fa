"""Span tracing of breaklens layers, installed from outside the package.

Each traced layer is a public function named ``<module>.<function>`` after
its home module in ``breaklens``. Installing the tracer replaces every
binding of that function object in the loaded ``breaklens`` modules, so a
call is caught where it is looked up (``breaklens.pipeline.parse_records``,
``breaklens.replication_audit.aggregate_series``, ...). A layer whose home
module or function no longer exists is reported as absent with zero calls.

Spans are kept in memory as ``[id, parent id, op, layer, start, end, counts]``
and written out once, when the run ends. A layer's self time is its span
time minus the time of its direct child spans (calls run on one thread, so
children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time


def _len(value):
    try:
        return len(value)
    except TypeError:
        return None


def _records_in(args, result):
    return _len(args.get("records"))


#: Traced layers and the counters recorded at their boundary. A counter takes
#: the call's bound arguments and its result and returns a number or None.
LAYERS = {
    "trade_ingest.parse_records": {"rows": lambda args, result: _len(result)},
    "trade_ingest.apply_vintage": {
        "rows_in": _records_in,
        "rows_kept": lambda args, result: _len(result),
    },
    "trade_ingest.aggregate_series": {"rows_scanned": _records_in},
    "replication_audit.search_vintage_date": {
        "candidates": lambda args, result: _len(args.get("candidate_dates")),
    },
    "replication_audit.coefficient_audit": {},
    "replication_audit.compare_series": {},
    "trend_break.fit_trend_break": {},
    "trend_break.log_transform": {},
    "trend_break.counterfactual_projection": {},
    "ols.fit_ols": {},
    "rdd_local_poly.rd_estimate": {},
    "rdd_local_poly.select_bandwidth_xy": {},
    "series.read_series_csv": {},
    "tables.render_tables": {},
    "pipeline.run_pipeline": {},
    "pipeline.export_figure_data": {},
    "pipeline.load_config": {},
}


def _home(layer: str):
    module_name, func_name = layer.split(".")
    try:
        module = importlib.import_module(f"breaklens.{module_name}")
    except ImportError:
        return None
    func = getattr(module, func_name, None)
    return func if callable(func) else None


class Tracer:
    """Wraps the traced layers while installed and records their spans."""

    def __init__(self, layers=LAYERS):
        self.layers = dict(layers)
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "breaklens" or name.startswith("breaklens."))
        ]
        for layer, counters in self.layers.items():
            original = _home(layer)
            if original is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, layer, original, counters):
        spans = self.spans
        stack = self._stack
        signature = inspect.signature(original) if counters else None
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.op, layer, clock(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = original(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if counters:
                bound = signature.bind(*args, **kwargs).arguments
                span[6] = {name: count(bound, result) for name, count in counters.items()}
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def summarize(spans, layers=LAYERS) -> dict[str, dict[str, float]]:
    """Per-layer calls, total and self seconds and summed counters."""
    child_time: dict[int, float] = {}
    for span_id, parent, _op, _layer, start, end, _counts in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {
        layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0, **dict.fromkeys(counters, 0)}
        for layer, counters in layers.items()
    }
    for span_id, _parent, _op, layer, start, end, counts in spans:
        entry = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        for name, value in (counts or {}).items():
            if value is not None:
                entry[name] = entry.get(name, 0) + value
    return out
