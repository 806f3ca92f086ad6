"""Exact stack and queue numbers of small graphs by exhaustive order search.

Both solvers scan the vertex orders once and keep the best layout found
so far (the incumbent): an order is scored only against page counts
below the incumbent's, and the scan stops early when one page suffices.
The first order in scan order that reaches the minimum is the witness.
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
    fewest_colours,
    graph_vertices_edges,
    layout_to_json,
    queues_for_order,
    stack_pages_for_order,
)

#: Exhaustive search refuses graphs with more vertices than this.
EXHAUSTIVE_VERTEX_LIMIT = 10


@dataclass
class SolveResult:
    """Page count with its witness layout.

    ``nodes_explored`` counts the vertex orders scanned plus the nodes
    of the colouring search (stack only).
    """

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


def _orders(vertices: list, pin_first: bool) -> Iterator[tuple]:
    """All orders up to reversal, and up to rotation when ``pin_first``.

    A reversal is skipped by keeping only permutations whose first
    vertex precedes their last in the input; rotations by pinning it.
    """
    head, rest = (tuple(vertices[:1]), vertices[1:]) if pin_first else ((), vertices)
    if len(rest) < 2:
        yield tuple(vertices)
        return
    pos = {v: i for i, v in enumerate(rest)}
    for perm in itertools.permutations(rest):
        if pos[perm[0]] < pos[perm[-1]]:
            yield head + perm


def _solve(graph, upper_limit, budget_ms, kind: str) -> SolveResult:
    if upper_limit is not None and upper_limit < 1:
        raise ValueError(f"upper_limit must be at least 1, got {upper_limit}")
    vertices, edges = graph_vertices_edges(graph)
    _check_size(vertices)
    if not edges:
        return SolveResult(0, LinearOrder(vertices), EdgeColoring({}), True, 0, ())

    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    # The incumbent: page counts at or above it are not worth finding.
    best = (len(edges) if upper_limit is None else min(upper_limit, len(edges))) + 1
    winner = assignment = None
    expired = False
    explored = 0
    counter = [0]
    for perm in _orders(vertices, pin_first=kind == "stack"):
        explored += 1
        if explored % 64 == 0 and deadline is not None and time.monotonic() > deadline:
            expired = True
            break
        order = LinearOrder(perm)
        if kind == "stack":
            found = fewest_colours(_conflict_masks(edges, order), best, counter)
            pages = best if found is None else max(found) + 1
        else:
            found, pages = None, _nesting_depths(edges, order)[0]
        if pages < best:
            best, winner, assignment = pages, order, found
        if best == 1:
            break
    explored += counter[0]
    if winner is None or expired:
        # Not a proven minimum: the input order's count bounds it too,
        # and whichever bound is lower is returned.
        fallback = _fallback(vertices, edges, kind, explored)
        if winner is None or fallback.value < best:
            return fallback
    if kind == "stack":
        colors = EdgeColoring(dict(zip(edges, assignment)), k=best)
    else:
        colors = queues_for_order(edges, winner).colors
    return SolveResult(best, winner, colors, not expired, explored, tuple(edges))


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
    ``upper_limit`` (at least 1) caps the page counts searched for.  When
    no order fits within the cap, the result is an upper bound from the
    input order with exact=False.  When the budget expires, it is the
    lower of that bound and the best layout found before the deadline,
    again with exact=False.
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
