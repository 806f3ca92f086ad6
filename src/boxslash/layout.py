"""Linear vertex orders, edge colourings, and stack/queue validation.

A stack page forbids same-colour crossings, a queue forbids same-colour
nestings.  Everything here works over an explicit LinearOrder, so all
positional notions (crossing, nesting, sidedness) are relative to it.

For a fixed order the kernels run in O(E log E) plus their output: the
validators and the stack page count find each edge's partners with one
sweep over rank spans (``_sweep``), and the nesting depths, whose
maximum is the queue count (the largest rainbow, Heath & Rosenberg
1992), come from patience sorting.  ``stack_pages_for_order`` costs
O(E log E + crossings) plus an exact search on each crossing-conflict
component of at most ``exact_limit`` edges.  ``classify_pair`` is the
per-pair reference for callers that hold just two edges.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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

    def ranks_of(self, vertices: Iterable[Vertex]) -> list:
        """The rank of each vertex, None for one outside the order."""
        return list(map(self._rank.get, vertices))

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
    key = frozenset((u, v))
    if len(key) == 1:
        raise ValueError(f"self-loop at {u!r}")
    return key


class EdgeColoring:
    """Colour assignment on undirected edges, keyed independent of
    direction by two-member sets, so no self-loop is ever found."""

    def __init__(self, colors: Mapping, k: int | None = None):
        self._colors: dict[frozenset, int] = {}
        for e, c in colors.items():
            key = e if isinstance(e, frozenset) else _edge_key(e)
            if len(key) != 2:
                raise ValueError(f"self-loop edge key {key!r}")
            c = int(c)
            if c < 0:
                raise ValueError(f"edge {e!r} has a negative colour {c}")
            self._colors[key] = c
        used = max(self._colors.values(), default=-1) + 1
        self.k = used if k is None else int(k)
        if self.k < used:
            raise ValueError(f"k={k} too small for {used} colours in use")

    def __len__(self) -> int:
        return len(self._colors)

    def __contains__(self, e) -> bool:
        u, v = e
        return frozenset((u, v)) in self._colors

    def color(self, u: Vertex, v: Vertex) -> int:
        try:
            return self._colors[frozenset((u, v))]
        except KeyError:
            raise ValueError(f"edge {u!r} -- {v!r} has no colour") from None

    def get(self, u: Vertex, v: Vertex):
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

    A graph is a ProductGraph, a (vertices, edges) pair, an iterable of
    edge pairs, whose vertices are listed in order of first mention, or
    a graph document (a dict): a product descriptor, one under "graph",
    or "edges", a list of vertex pairs whose ids are read as strings.
    """
    if isinstance(graph, dict):
        if "graph" in graph or "tree_degrees" in graph:
            graph = ProductGraph.from_descriptor(graph.get("graph", graph))
        elif "edges" in graph:
            edges = graph["edges"]
            if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
                raise ValueError("graph 'edges' must be a list of vertex pairs")
            graph = [(str(u), str(v)) for u, v in edges]
        else:
            raise ValueError("graph document needs 'graph', 'tree_degrees', or 'edges'")
    if isinstance(graph, ProductGraph):
        return list(graph.vertices), list(graph.edge_pairs())
    if isinstance(graph, tuple) and len(graph) == 2:
        split = _as_vertices_edges(graph)
        if split is not None:
            return split
    edges = [(u, v) for u, v in graph]
    return list(dict.fromkeys(w for e in edges for w in e)), edges


def _sweep(spans: list[tuple[int, int]], relation: PairRelation) -> Iterator[tuple[int, list[int]]]:
    """Each span index with the indices of earlier-swept spans in
    ``relation`` (CROSS or NEST) with it; every such pair occurs once.

    Spans are (left, right) ranks, left < right.  The sweep takes spans
    by left rank and keeps the open ones sorted by right rank, so a
    span's crossing partners (right end strictly inside it) and nesting
    partners (right end beyond it) are one slice each: O(E log E)
    comparisons plus the pairs listed (inserting into the open list
    shifts it by a memmove).  Equal left ranks are taken widest first for
    crossings and narrowest first for nestings, so that spans sharing an
    endpoint, which share a rank, are never listed.
    """
    crossing = relation is PairRelation.CROSS
    sign = -1 if crossing else 1
    rights: list[int] = []
    ids: list[int] = []
    for i in sorted(range(len(spans)), key=lambda i: (spans[i][0], sign * spans[i][1])):
        a, b = spans[i]
        closed = bisect_right(rights, a)
        if closed:
            del rights[:closed], ids[:closed]
        end = bisect_right(rights, b)
        hits = ids[:bisect_left(rights, b)] if crossing else ids[end:]
        if hits:
            yield i, hits
        rights.insert(end, b)
        ids.insert(end, i)


def _validate(edges, order, coloring, forbidden: PairRelation) -> LayoutReport:
    """Every same-colour pair in the ``forbidden`` relation, by colour,
    then by input position of the pair's first and second edge.

    Every edge is ranked, so an edge with an endpoint outside the order
    raises ValueError.  O(E log E) plus the violations listed.
    """
    pairs = graph_vertices_edges(edges)[1]
    by_color: dict[int, list[EdgePair]] = {}
    for e in pairs:
        c = coloring.get(*e)
        if c is None:
            raise ValueError(f"edge {e} is uncoloured")
        by_color.setdefault(c, []).append(e)
    violations: list[Violation] = []
    for c, bucket in sorted(by_color.items()):
        spans = [order.sorted_edge(e) for e in bucket]
        found = sorted(
            (j, i) if j < i else (i, j) for i, hits in _sweep(spans, forbidden) for j in hits
        )
        violations.extend(Violation(bucket[i], bucket[j], forbidden, c) for i, j in found)
    return LayoutReport(valid=not violations, violations=violations)


def validate_stack_layout(edges, order: LinearOrder, coloring: EdgeColoring) -> LayoutReport:
    """Check that no two same-colour edges cross; list every pair that does."""
    return _validate(edges, order, coloring, PairRelation.CROSS)


def validate_queue_layout(edges, order: LinearOrder, coloring: EdgeColoring) -> LayoutReport:
    """Check that no two same-colour edges nest; list every pair that does."""
    return _validate(edges, order, coloring, PairRelation.NEST)


# ---------------------------------------------------------------------------
# The canonical product order and its three-queue layout.

def canonical_order(graph: ProductGraph) -> LinearOrder:
    """Vertices by position, depth, then address: their id order."""
    return LinearOrder(graph.vertices)


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


def _crossing_lists(pairs: list[EdgePair], order: LinearOrder) -> list[list[int]]:
    """Crossing-conflict adjacency lists: j in adj[i] when edges i and j
    cross, each partner once.  O(E log E) plus the crossings."""
    adj: list[list[int]] = [[] for _ in pairs]
    for i, hits in _sweep([order.sorted_edge(e) for e in pairs], PairRelation.CROSS):
        adj[i].extend(hits)
        for j in hits:
            adj[j].append(i)
    return adj


def _components(adj: list[list[int]]) -> list[list[int]]:
    """Connected components of an adjacency-list graph, each sorted,
    listed by smallest member."""
    seen = [False] * len(adj)
    comps = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _greedy_color(adj: list[list[int]], comp: list[int], colors: list[int]) -> None:
    """Colour the sorted component ``comp`` into ``colors`` (-1 where
    uncoloured), most conflicts first, ties by index, each edge taking
    the least colour its coloured neighbours leave free."""
    for v in sorted(comp, key=lambda v: -len(adj[v])):
        used = {colors[w] for w in adj[v]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c


def stack_pages_for_order(
    edges, order: LinearOrder, exact_limit: int = EXACT_PAGE_LIMIT
) -> ColoringResult:
    """Fewest stack pages for a fixed order.

    Exact when every connected component of the crossing-conflict graph
    has at most ``exact_limit`` edges; beyond that a greedy bound is
    returned with ``exact`` set to False.  The conflict graph is held as
    adjacency lists from one rank sweep, so everything but the exact
    search costs O(E log E + crossings); only the components searched
    exactly become bitmasks, of at most ``exact_limit`` bits.
    """
    pairs = graph_vertices_edges(edges)[1]
    if not pairs:
        return ColoringResult(0, EdgeColoring({}), True)
    adj = _crossing_lists(pairs, order)
    assignment = [-1] * len(pairs)
    exact = True
    for comp in _components(adj):
        if len(comp) <= exact_limit:
            local_index = {v: i for i, v in enumerate(comp)}
            masks = [sum(1 << local_index[w] for w in adj[v]) for v in comp]
            for v, c in zip(comp, fewest_colours(masks, len(comp) + 1)):
                assignment[v] = c
        else:
            _greedy_color(adj, comp, assignment)
            exact = False
    best = max(assignment) + 1
    colors = EdgeColoring({e: c for e, c in zip(pairs, assignment)}, k=best)
    return ColoringResult(best, colors, exact)


def _nesting_depths(pairs: list[EdgePair], order: LinearOrder) -> tuple[int, list[int]]:
    """Each edge's depth, the most edges in a chain nesting around it
    (itself included), and the largest depth, the biggest rainbow.

    Patience sorting in O(E log E): taken by (left, right) rank, a chain
    is a strictly decreasing run of right ranks, and ``tails[k]`` is
    minus the largest right rank that ends a chain of k + 1 edges so far.
    """
    spans = [order.sorted_edge(e) for e in pairs]
    depth = [0] * len(pairs)
    tails: list[int] = []
    for i in sorted(range(len(pairs)), key=spans.__getitem__):
        x = -spans[i][1]
        k = bisect_left(tails, x)
        if k == len(tails):
            tails.append(x)
        else:
            tails[k] = x
        depth[i] = k + 1
    return len(tails), depth


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
    if not isinstance(doc.get("order"), list):
        raise ValueError("layout 'order' must be a list of vertices")
    if not isinstance(doc.get("colors"), dict):
        raise ValueError("layout 'colors' must be an object of edge colours")
    order = LinearOrder(parse_vertex(s) for s in doc["order"])
    colors = {}
    for key, c in doc["colors"].items():
        u_text, sep, v_text = key.partition("--")
        if not sep:
            raise ValueError(f"bad edge key {key!r}")
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"colour of edge {key!r} must be an integer, got {c!r}")
        colors[(parse_vertex(u_text), parse_vertex(v_text))] = c
    k = doc.get("k")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
        raise ValueError(f"layout 'k' must be an integer, got {k!r}")
    return order, EdgeColoring(colors, k=k)
