"""Linear vertex orders, edge colourings, and stack/queue validation.

A stack page forbids same-colour crossings, a queue forbids same-colour
nestings.  Everything here works over an explicit LinearOrder, so all
positional notions (crossing, nesting, sidedness) are relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Iterator, Mapping

from .product import EdgeKind, ProductGraph, PVertex

Vertex = Hashable
EdgePair = tuple[Vertex, Vertex]


class PairRelation(Enum):
    SEPARATED = "separated"
    NEST = "nest"
    CROSS = "cross"
    SHARES_ENDPOINT = "shares_endpoint"


class LinearOrder:
    """A total order on a finite vertex set, held as rank lookup."""

    def __init__(self, vertices: Iterable[Vertex]):
        self._seq = tuple(vertices)
        self._rank = {v: i for i, v in enumerate(self._seq)}
        if len(self._rank) != len(self._seq):
            raise ValueError("duplicate vertices in order")

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._seq

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._seq)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._rank

    def rank(self, v: Vertex) -> int:
        try:
            return self._rank[v]
        except KeyError:
            raise ValueError(f"vertex {v!r} not in order") from None

    def before(self, u: Vertex, v: Vertex) -> bool:
        return self.rank(u) < self.rank(v)

    def reversed(self) -> "LinearOrder":
        return LinearOrder(reversed(self._seq))

    def restrict(self, kept: Iterable[Vertex]) -> "LinearOrder":
        kept_set = set(kept)
        return LinearOrder(v for v in self._seq if v in kept_set)

    def sorted_edge(self, e: EdgePair) -> tuple[int, int]:
        a, b = self.rank(e[0]), self.rank(e[1])
        return (a, b) if a < b else (b, a)


def _edge_key(e) -> frozenset:
    u, v = e
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    return frozenset((u, v))


class EdgeColoring:
    """Colour assignment on undirected edges, keyed independent of direction."""

    def __init__(self, colors: Mapping, k: int | None = None):
        self._colors: dict[frozenset, int] = {}
        for e, c in colors.items():
            key = e if isinstance(e, frozenset) else _edge_key(e)
            if len(key) != 2:
                raise ValueError(f"self-loop edge key {key!r}")
            self._colors[key] = int(c)
        used = max(self._colors.values(), default=-1) + 1
        self.k = used if k is None else int(k)
        if self.k < used:
            raise ValueError(f"k={k} too small for {used} colours in use")

    def __len__(self) -> int:
        return len(self._colors)

    def __contains__(self, e) -> bool:
        u, v = e
        if u == v:
            return False
        return frozenset((u, v)) in self._colors

    def color(self, u: Vertex, v: Vertex) -> int:
        try:
            return self._colors[frozenset((u, v))]
        except KeyError:
            raise ValueError(f"edge {u!r} -- {v!r} has no colour") from None

    def get(self, u: Vertex, v: Vertex):
        if u == v:
            return None
        return self._colors.get(frozenset((u, v)))

    def edges(self) -> Iterator[tuple[frozenset, int]]:
        return iter(self._colors.items())


def classify_pair(e1: EdgePair, e2: EdgePair, order: LinearOrder) -> PairRelation:
    """Relation of two edges under the order.

    Exactly one of separated, nest, cross holds for disjoint edge pairs;
    edges sharing an endpoint get their own bucket.  Self-loops are
    rejected.
    """
    u1, v1 = e1
    u2, v2 = e2
    if u1 == v1 or u2 == v2:
        raise ValueError("self-loops cannot be classified")
    if {u1, v1} & {u2, v2}:
        return PairRelation.SHARES_ENDPOINT
    a, b = order.sorted_edge(e1)
    c, d = order.sorted_edge(e2)
    if b < c or d < a:
        return PairRelation.SEPARATED
    if (a < c and d < b) or (c < a and b < d):
        return PairRelation.NEST
    return PairRelation.CROSS


@dataclass
class Violation:
    edge_a: EdgePair
    edge_b: EdgePair
    relation: PairRelation
    color: int


@dataclass
class LayoutReport:
    valid: bool
    violations: list[Violation]


def _as_vertices_edges(pair):
    """A 2-tuple read as (vertices, edges), or None when it is an edge list.

    It is (vertices, edges) only when every item of its second entry is
    a pair whose endpoints both lie in its first entry; two edges such
    as ((1, 2), (3, 4)) or (("ab", "cd"), ("ef", "gh")) are not.
    """
    try:
        vertices, edges = list(pair[0]), list(pair[1])
        members = set(vertices)
        if all(len(e) == 2 and members.issuperset(e) for e in edges):
            return vertices, [(u, v) for u, v in edges]
    except TypeError:
        pass
    return None


def graph_vertices_edges(graph) -> tuple[list[Vertex], list[EdgePair]]:
    """Vertices and edge pairs of any graph input the package accepts.

    A graph is a ProductGraph, a (vertices, edges) pair, or an iterable
    of edge pairs, whose vertices are listed in order of first mention.
    """
    if isinstance(graph, ProductGraph):
        return list(graph.vertices), list(graph.edge_pairs())
    if isinstance(graph, tuple) and len(graph) == 2:
        split = _as_vertices_edges(graph)
        if split is not None:
            return split
    edges = [(u, v) for u, v in graph]
    return list(dict.fromkeys(w for e in edges for w in e)), edges


def _validate(edges, order, coloring, forbidden: PairRelation) -> LayoutReport:
    pairs = graph_vertices_edges(edges)[1]
    by_color: dict[int, list[EdgePair]] = {}
    for e in pairs:
        c = coloring.get(*e)
        if c is None:
            raise ValueError(f"edge {e} is uncoloured")
        by_color.setdefault(c, []).append(e)
    violations: list[Violation] = []
    for c, bucket in sorted(by_color.items()):
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                rel = classify_pair(bucket[i], bucket[j], order)
                if rel is forbidden:
                    violations.append(Violation(bucket[i], bucket[j], rel, c))
    return LayoutReport(valid=not violations, violations=violations)


def validate_stack_layout(edges, order: LinearOrder, coloring: EdgeColoring) -> LayoutReport:
    """Check that no two same-colour edges cross."""
    return _validate(edges, order, coloring, PairRelation.CROSS)


def validate_queue_layout(edges, order: LinearOrder, coloring: EdgeColoring) -> LayoutReport:
    """Check that no two same-colour edges nest."""
    return _validate(edges, order, coloring, PairRelation.NEST)


# ---------------------------------------------------------------------------
# The canonical product order and its three-queue layout.

def canonical_key(v: PVertex):
    """Sort key ordering product vertices by position, depth, then address."""
    return (v.pos, v.node.depth, v.node.path)


def canonical_order(graph: ProductGraph) -> LinearOrder:
    return LinearOrder(sorted(graph.vertices, key=canonical_key))


QUEUE_OF_KIND = {
    EdgeKind.VERTICAL: 0,
    EdgeKind.HORIZONTAL: 1,
    EdgeKind.DIAGONAL: 2,
}


def three_queue_layout(graph: ProductGraph) -> tuple[LinearOrder, EdgeColoring]:
    """Queue layout with one queue per edge kind under the canonical order."""
    if not isinstance(graph, ProductGraph):
        raise TypeError("three_queue_layout needs a ProductGraph")
    order = canonical_order(graph)
    colors = {(u, v): QUEUE_OF_KIND[kind] for u, v, kind in graph.edges}
    return order, EdgeColoring(colors, k=3)


# ---------------------------------------------------------------------------
# Page/queue counts for a fixed order.

@dataclass
class ColoringResult:
    count: int
    colors: EdgeColoring
    exact: bool


#: Largest conflict-graph component that still gets exact page counting.
EXACT_PAGE_LIMIT = 24


def _conflict_masks(pairs: list[EdgePair], order: LinearOrder) -> list[int]:
    n = len(pairs)
    spans = [order.sorted_edge(e) for e in pairs]
    ends = [set(e) for e in pairs]
    masks = [0] * n
    for i in range(n):
        a, b = spans[i]
        for j in range(i + 1, n):
            if ends[i] & ends[j]:
                continue
            c, d = spans[j]
            # crossing test on canonical spans
            if (a < c < b < d) or (c < a < d < b):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def try_color(masks: list[int], k: int, counter: list[int] | None = None):
    """Backtracking k-colouring of a conflict graph given as adjacency masks.

    Vertices are picked by saturation (count of distinct neighbour
    colours), ties by degree.  Colour symmetry is broken by allowing at
    most one fresh colour per step.  Returns an assignment list or None.
    """
    n = len(masks)
    if n == 0:
        return []
    if k <= 0:
        return None
    colors = [-1] * n
    neighbor_used: list[set[int]] = [set() for _ in range(n)]
    degrees = [m.bit_count() for m in masks]

    def rec(assigned: int, max_used: int) -> bool:
        if counter is not None:
            counter[0] += 1
        if assigned == n:
            return True
        best, best_key = -1, None
        for v in range(n):
            if colors[v] == -1:
                key = (len(neighbor_used[v]), degrees[v])
                if best_key is None or key > best_key:
                    best, best_key = v, key
        v = best
        limit = min(max_used + 2, k)
        for c in range(limit):
            if c in neighbor_used[v]:
                continue
            colors[v] = c
            touched = []
            mask = masks[v]
            while mask:
                w = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if c not in neighbor_used[w]:
                    neighbor_used[w].add(c)
                    touched.append(w)
            if rec(assigned + 1, max(max_used, c)):
                return True
            colors[v] = -1
            for w in touched:
                neighbor_used[w].remove(c)
        return False

    if rec(0, -1):
        return list(colors)
    return None


def fewest_colours(masks: list[int], below: int, counter: list[int] | None = None):
    """try_color's assignment for the first k = 1, 2, ... below ``below``
    that succeeds, which uses exactly k colours; None when none does."""
    for k in range(1, below):
        assignment = try_color(masks, k, counter)
        if assignment is not None:
            return assignment
    return None


def _components(masks: list[int]) -> list[list[int]]:
    n = len(masks)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            mask = masks[v]
            while mask:
                w = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _greedy_color(masks: list[int]) -> list[int]:
    n = len(masks)
    order_by_degree = sorted(range(n), key=lambda v: -masks[v].bit_count())
    colors = [-1] * n
    for v in order_by_degree:
        used = set()
        mask = masks[v]
        while mask:
            w = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if colors[w] != -1:
                used.add(colors[w])
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def stack_pages_for_order(
    edges, order: LinearOrder, exact_limit: int = EXACT_PAGE_LIMIT
) -> ColoringResult:
    """Fewest stack pages for a fixed order.

    Exact when every connected component of the crossing-conflict graph
    has at most ``exact_limit`` edges; beyond that a greedy bound is
    returned with ``exact`` set to False.
    """
    pairs = graph_vertices_edges(edges)[1]
    if not pairs:
        return ColoringResult(0, EdgeColoring({}), True)
    masks = _conflict_masks(pairs, order)
    assignment = [0] * len(pairs)
    exact = True
    best = 0
    for comp in _components(masks):
        local_index = {v: i for i, v in enumerate(comp)}
        local_masks = []
        for v in comp:
            lm = 0
            mask = masks[v]
            while mask:
                w = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                lm |= 1 << local_index[w]
            local_masks.append(lm)
        if len(comp) <= exact_limit:
            local = fewest_colours(local_masks, len(comp) + 1)
        else:
            local = _greedy_color(local_masks)
            exact = False
        for v, c in zip(comp, local):
            assignment[v] = c
        best = max(best, max(local) + 1)
    colors = EdgeColoring({e: c for e, c in zip(pairs, assignment)}, k=best)
    return ColoringResult(best, colors, exact)


def max_rainbow(edges, order: LinearOrder) -> int:
    """Size of the largest set of pairwise nesting edges."""
    pairs = graph_vertices_edges(edges)[1]
    return _nesting_depths(pairs, order)[0]


def _nesting_depths(pairs: list[EdgePair], order: LinearOrder) -> tuple[int, list[int]]:
    spans = [order.sorted_edge(e) for e in pairs]
    idx = sorted(range(len(pairs)), key=lambda i: (spans[i][0], -spans[i][1]))
    depth = [1] * len(pairs)
    for pos, i in enumerate(idx):
        a, b = spans[i]
        for j in idx[:pos]:
            c, d = spans[j]
            if c < a and b < d:
                depth[i] = max(depth[i], depth[j] + 1)
    return (max(depth, default=0), depth)


def queues_for_order(edges, order: LinearOrder) -> ColoringResult:
    """Fewest queues for a fixed order: the maximum rainbow size.

    The witness colours each edge by its nesting depth, which uses
    exactly that many colours and never nests two equal colours.
    """
    pairs = graph_vertices_edges(edges)[1]
    if not pairs:
        return ColoringResult(0, EdgeColoring({}), True)
    count, depth = _nesting_depths(pairs, order)
    colors = EdgeColoring({e: d - 1 for e, d in zip(pairs, depth)}, k=count)
    return ColoringResult(count, colors, True)


# ---------------------------------------------------------------------------
# Layout serialization: {"order": [...], "colors": {"u--v": c}, "k": k}

def layout_to_json(order: LinearOrder, coloring: EdgeColoring, edges) -> dict:
    """Serialize a layout; ``edges`` fixes the key direction u--v."""
    colors = {}
    for u, v in graph_vertices_edges(edges)[1]:
        colors[f"{u}--{v}"] = coloring.color(u, v)
    return {
        "order": [str(v) for v in order],
        "colors": colors,
        "k": coloring.k,
    }


def layout_from_json(doc: Mapping, parse_vertex=PVertex.parse) -> tuple[LinearOrder, EdgeColoring]:
    order = LinearOrder(parse_vertex(s) for s in doc["order"])
    colors = {}
    for key, c in doc["colors"].items():
        u_text, sep, v_text = key.partition("--")
        if not sep:
            raise ValueError(f"bad edge key {key!r}")
        colors[(parse_vertex(u_text), parse_vertex(v_text))] = int(c)
    return order, EdgeColoring(colors, k=doc.get("k"))
