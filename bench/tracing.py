"""Spans around the public functions of each boxslash module.

The tracer replaces a function at every module binding of its name (the
defining module, the package namespace, and any module that imported
it by name), or on its class for a method.  Each call records a span:
metric name, parent span, start and end.  Self time is a span's
duration minus the durations of its direct children.  Per-pair hot
paths (classify_pair, LinearOrder.rank, before) are deliberately not
wrapped: their call overhead would swamp what they measure.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _edges(graph) -> int:
    return len(graph.edges)


#: (target, metric, counters): target is "module:function" or
#: "module:Class.method"; counters map a counter metric to a function of
#: the call's result.  Several targets may share one time metric.
TARGETS = (
    ("boxslash.product:boxslash_product", "product.build",
     {"product.edges": _edges}),
    ("boxslash.product:restrict_subtree", "product.restrict_subtree",
     {"product.edges": lambda r: _edges(r[0])}),
    ("boxslash.layout:three_queue_layout", "layout.three_queue_layout", {}),
    ("boxslash.layout:validate_queue_layout", "layout.validate_queue",
     {"layout.violations": lambda r: len(r.violations)}),
    ("boxslash.layout:validate_stack_layout", "layout.validate_stack",
     {"layout.violations": lambda r: len(r.violations)}),
    ("boxslash.layout:queues_for_order", "layout.queues_for_order", {}),
    ("boxslash.layout:stack_pages_for_order", "layout.stack_pages_for_order",
     {"layout.stack_pages": lambda r: r.count}),
    ("boxslash.solver:stack_number", "solver.stack_number",
     {"solver.nodes_explored": lambda r: r.nodes_explored}),
    ("boxslash.solver:queue_number", "solver.queue_number",
     {"solver.nodes_explored": lambda r: r.nodes_explored}),
    ("boxslash.passes:run_passes", "passes.run_passes",
     {"passes.kept_vertices": lambda r: len(r.graph.vertices)}),
    ("boxslash.passes:pass_colour", "passes.pass_colour", {}),
    ("boxslash.passes:pass_order", "passes.pass_order", {}),
    ("boxslash.passes:pass_lex", "passes.pass_lex", {}),
    ("boxslash.passes:transport_order", "passes.transport", {}),
    ("boxslash.passes:transport_coloring", "passes.transport", {}),
    ("boxslash.passes:check_child_symmetry", "passes.check_child_symmetry",
     {"passes.checks_run": lambda r: r.checked}),
    ("boxslash.passes:check_related_sequence_families",
     "passes.check_related_sequence_families",
     {"passes.checks_run": lambda r: r.checked}),
    ("boxslash.passes:extract_direction_table", "passes.extract_direction_table", {}),
    ("boxslash.sequences:is_related", "sequences.is_related", {}),
    ("boxslash.hexgrid:trace_boundary", "hexgrid.trace_boundary",
     {"hexgrid.boundary_pairs": lambda r: sum(line.length for line in r)}),
    ("boxslash.hexgrid:BoundaryLine.verify", "hexgrid.line_verify", {}),
    ("boxslash.hexgrid:monochromatic_spanning_path", "hexgrid.spanning_path", {}),
    ("boxslash.hexgrid:maximal_boundaries", "hexgrid.maximal_boundaries", {}),
    ("boxslash.hexgrid:top_or_long", "hexgrid.top_or_long", {}),
    ("boxslash.cli:main", "cli.main", {}),
)

#: Every time metric is a self time, "<metric>_s"; the two outermost
#: calls say so in their names, as most of their time is in children.
TIME_METRICS = sorted({metric for _, metric, _ in TARGETS})
OUTER = ("cli.main", "passes.run_passes")
CALL_METRICS = ("hexgrid.trace_boundary", "sequences.is_related")
COUNT_METRICS = sorted({c for _, _, counters in TARGETS for c in counters})


def time_metric_name(metric: str) -> str:
    return f"{metric}_self_s" if metric in OUTER else f"{metric}_s"


class Tracer:
    """Installs span-recording wrappers and turns spans into self times."""

    def __init__(self):
        self.spans: list = []  # (metric, parent index, start, end)
        self.counts: dict = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, metric: str, counters: dict):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (metric, parent, start, end)
            for name, count in counters.items():
                counts[name] += count(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", metric)
        return traced

    def install(self) -> None:
        self.absent = []
        for target, metric, counters in TARGETS:
            module_name, _, attr = target.partition(":")
            owner_name, _, method = attr.rpartition(".")
            module = sys.modules.get(module_name)
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            name = method if owner_name else attr
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(fn, metric, counters)
            if owner_name:
                self._undo.append((owner, name, fn))
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "boxslash" and getattr(mod, name, None) is fn:
                    self._undo.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, since: int = 0) -> tuple[dict, dict]:
        """Self time and call count per metric over the spans after `since`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for metric, parent, start, end in spans[since:]:
            if parent >= since:
                child[parent] += end - start
        out: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for k in range(since, len(spans)):
            metric, _, start, end = spans[k]
            out[metric] += end - start - child[k]
            calls[metric] += 1
        return out, calls

    def durations(self, metric: str, since: int, until: int) -> list[float]:
        return [end - start for name, _, start, end in self.spans[since:until] if name == metric]
