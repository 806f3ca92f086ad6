"""Exact stack and queue numbers of small graphs by exhaustive order search.

Both solvers iterate a colour budget k = 1, 2, ... and scan vertex
orders until one fits, so the witness at the minimum comes for free.
Crossing structure is invariant under rotating and reversing the order,
hence the stack search fixes the first vertex and skips reversals.
Nesting survives reversal but not rotation, so the queue search prunes
reversals only.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SizeLimitError
from .layout import (
    EdgeColoring,
    LinearOrder,
    _conflict_masks,
    _nesting_depths,
    graph_vertices_edges,
    layout_to_json,
    queues_for_order,
    stack_pages_for_order,
    try_color,
)

#: Exhaustive search refuses graphs with more vertices than this.
EXHAUSTIVE_VERTEX_LIMIT = 10


@dataclass
class SolveResult:
    value: int
    order: LinearOrder
    coloring: EdgeColoring
    exact: bool
    nodes_explored: int
    edges: tuple = ()

    def to_json(self) -> dict:
        doc = layout_to_json(self.order, self.coloring, self.edges)
        doc.update(value=self.value, exact=self.exact, nodes_explored=self.nodes_explored)
        return doc


def _check_size(vertices) -> None:
    if len(vertices) > EXHAUSTIVE_VERTEX_LIMIT:
        raise SizeLimitError(
            f"exhaustive search is limited to {EXHAUSTIVE_VERTEX_LIMIT} vertices, "
            f"got {len(vertices)}"
        )


def _stack_orders(vertices: list) -> Iterator[tuple]:
    """All orders up to rotation and reversal: first vertex pinned."""
    first, rest = vertices[0], vertices[1:]
    if len(rest) < 2:
        yield tuple(vertices)
        return
    pos = {v: i for i, v in enumerate(rest)}
    for perm in itertools.permutations(rest):
        if pos[perm[0]] > pos[perm[-1]]:
            continue
        yield (first,) + perm


def _queue_orders(vertices: list) -> Iterator[tuple]:
    """All orders up to reversal."""
    if len(vertices) < 2:
        yield tuple(vertices)
        return
    pos = {v: i for i, v in enumerate(vertices)}
    for perm in itertools.permutations(vertices):
        if pos[perm[0]] > pos[perm[-1]]:
            continue
        yield perm


class _Budget:
    def __init__(self, budget_ms: float | None):
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


def _solve(graph, upper_limit, budget_ms, kind: str) -> SolveResult:
    vertices, edges = graph_vertices_edges(graph)
    _check_size(vertices)
    explored = 0
    if not edges:
        order = LinearOrder(vertices)
        return SolveResult(0, order, EdgeColoring({}), True, explored, tuple(edges))

    budget = _Budget(budget_ms)
    enumerate_orders = _stack_orders if kind == "stack" else _queue_orders
    top = len(edges) if upper_limit is None else min(upper_limit, len(edges))
    counter = [0]

    for k in range(1, top + 1):
        for perm in enumerate_orders(vertices):
            explored += 1
            if explored % 64 == 0 and budget.expired():
                return _fallback(vertices, edges, kind, explored)
            order = LinearOrder(perm)
            if kind == "stack":
                masks = _conflict_masks(edges, order)
                assignment = try_color(masks, k, counter)
                if assignment is not None:
                    colors = EdgeColoring(
                        {e: c for e, c in zip(edges, assignment)}, k=k
                    )
                    return SolveResult(
                        k, order, colors, True, explored + counter[0], tuple(edges)
                    )
            else:
                depth_max, _ = _nesting_depths(edges, order)
                if depth_max <= k:
                    result = queues_for_order(edges, order)
                    return SolveResult(
                        result.count, order, result.colors, True,
                        explored + counter[0], tuple(edges),
                    )
    # Deepening was capped before any order fit: report an upper bound.
    return _fallback(vertices, edges, kind, explored + counter[0])


def _fallback(vertices, edges, kind: str, explored: int) -> SolveResult:
    order = LinearOrder(vertices)
    if kind == "stack":
        result = stack_pages_for_order(edges, order)
    else:
        result = queues_for_order(edges, order)
    return SolveResult(result.count, order, result.colors, False, explored, tuple(edges))


def stack_number(graph, upper_limit: int | None = None, budget_ms: float | None = None) -> SolveResult:
    """Minimum stack pages over all vertex orders.

    Exhaustive for graphs with at most EXHAUSTIVE_VERTEX_LIMIT vertices.
    When the budget expires or the deepening cap cuts the search short,
    the result is an upper bound from the input order with exact=False.
    """
    return _solve(graph, upper_limit, budget_ms, "stack")


def queue_number(graph, upper_limit: int | None = None, budget_ms: float | None = None) -> SolveResult:
    """Minimum queues over all vertex orders.  Same caveats as stack_number."""
    return _solve(graph, upper_limit, budget_ms, "queue")


@dataclass
class ProbeReport:
    exceeded: bool
    index: int | None
    instance: object
    result: SolveResult | None
    checked: int


def probe_queue_lower_bound(
    graph_family: Iterable, q: int, budget_ms: float | None = None
) -> ProbeReport:
    """Scan a family for the first member with queue number above q.

    Returns a report naming that member, or an exhaustion report when
    every member stays within q (checked counts how many were solved).
    """
    checked = 0
    for index, instance in enumerate(graph_family):
        result = queue_number(instance, budget_ms=budget_ms)
        checked += 1
        if result.value > q:
            return ProbeReport(True, index, instance, result, checked)
    return ProbeReport(False, None, None, None, checked)
