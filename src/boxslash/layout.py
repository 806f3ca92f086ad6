"""Linear vertex orders, edge colourings, and stack/queue validation.

A stack page forbids same-colour crossings, a queue forbids same-colour
nestings.  Everything here works over an explicit LinearOrder, so all
positional notions (crossing, nesting, sidedness) are relative to it.
A graph is a ProductGraph, an iterable of vertex pairs, or a graph
document (``graph_vertices_edges``); a vertex is in it only as the end
of an edge.

Each entry point reads its inputs once into integer lists (``_spans``):
each edge's lower and upper endpoint rank and its colour, which a
colouring built on the same edge sequence hands over as it is: no object
per edge.  An order on a product's own vertex view (``canonical_order``)
ranks each vertex by its id, so its spans are the product's span table
(``ProductGraph.spans``), handed over as it is; an order made by
``from_ranks`` on that view ranks by id too.  The kernels read their
lists and never change them, since the span table is shared by every
call on its product.  They run in
O(E log E) plus their output: the validators, like the stack page
count, sort the spans once and find each edge's partners in one sweep
(``_sweep``), which decides a valid queue layout before it lists
anything and appends each span of a valid stack layout; a failed
layout's pairs are ordered when the first is read.  The nesting
depths, whose maximum is the queue count (the largest rainbow, Heath &
Rosenberg 1992), come from patience sorting.
``stack_pages_for_order`` holds the crossing conflicts of at most
``CROSSING_ROW_LIMIT`` edges as one bit row per edge
(``_crossing_rows``): O(E²/64) word operations and E²/8 bytes, with no
Python work per crossing.  Past that limit rows would outgrow memory on
large sparse inputs, so it holds adjacency lists from the crossing
sweep (``_crossing_lists``): O(E log E + crossings).  Either way an
exact search runs on each crossing-conflict component of at most
``EXACT_PAGE_LIMIT`` edges.

The solver's stack search colours its conflict graphs (adjacency
bitmasks) here too: by ``fewest_colours``, which runs ``try_color`` for
k upward from ``colours_lower_bound``.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, islice

from .errors import integer
from .product import EdgeKind, ProductEdges, ProductGraph, ProductVertices, PVertex

Vertex = Hashable
EdgePair = tuple[Vertex, Vertex]


class PairRelation(Enum):
    NEST = "nest"
    CROSS = "cross"


class LinearOrder:
    """A total order on a finite vertex set.  An order on a product's
    vertex view (``canonical_order``, ``from_ranks``) keeps the view, whose
    vertices are distinct by construction, and builds its rank map only
    when a vertex outside that view is looked up; any other order keeps a
    tuple and its rank map."""

    def __init__(self, vertices: Iterable[Vertex]):
        if isinstance(vertices, ProductVertices):
            self._seq, self._rank = vertices, None
            return
        self._seq = tuple(vertices)
        self._rank = {v: i for i, v in enumerate(self._seq)}
        if len(self._rank) != len(self._seq):
            raise ValueError("duplicate vertices in order")

    @classmethod
    def from_ranks(cls, vertices: Sequence[Vertex], ranks: list) -> "LinearOrder":
        """vertices sorted by ranks, one distinct number per vertex; a
        product's vertex view is reordered, not read."""
        ids = sorted(range(len(vertices)), key=ranks.__getitem__)
        return cls(vertices.reordered(ids) if isinstance(vertices, ProductVertices) else map(vertices.__getitem__, ids))

    @property
    def vertices(self) -> Sequence[Vertex]:
        return self._seq

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._seq)

    def __contains__(self, v: Vertex) -> bool:
        return v in (self._seq if self._rank is None else self._rank)

    def _lookup(self) -> dict:
        if self._rank is None:
            self._rank = {v: i for i, v in enumerate(self._seq)}
        return self._rank

    def ranks_of(self, vertices: Sequence[Vertex]) -> list[int]:
        """The rank of each vertex; the first one outside the order raises.
        The order's own sequence is ranked without a lookup, and so is the
        product's vertex view under an order on that view: by id.  Other
        vertices are looked up in the rank map, a product view's by their
        plain (node, pos) tuples, so no vertex object is made."""
        seq = self._seq
        if vertices is seq:
            return list(range(len(seq)))
        if isinstance(seq, ProductVertices) and vertices is seq.base:
            return seq.positions()
        keys = vertices.tuples() if isinstance(vertices, ProductVertices) else vertices
        ranks = list(map(self._lookup().get, keys))
        if None in ranks:
            raise ValueError(f"vertex {_text(vertices[ranks.index(None)])} not in order")
        return ranks


_PAIR = operator.itemgetter(slice(2))  # an edge's endpoints, from (u, v) or (u, v, kind)


class EdgeColoring:
    """A colour per edge of a sequence of undirected edges, found in either
    direction; an edge given twice keeps its first direction, last colour."""

    def __init__(self, colors: Mapping, k: int | None = None):
        self._edges, self._colors, self._index = [], [], None
        for e, c in colors.items():
            u, v = _vertex_pair(e, "edge key {!r} is a vertex, not a vertex pair")
            self._edges.append((u, v))
            self._colors.append(integer(c, lambda: f"colour of edge {e!r}", 0))
        used = max(self._lookup().values(), default=-1) + 1
        self.k = used if k is None else integer(k, "k", used)

    @classmethod
    def from_lists(cls, edges: Sequence, colors: list, k: int) -> "EdgeColoring":
        """Colour colors[i] on edges[i], kept as given: no edge object is made."""
        self = cls.__new__(cls)
        self._edges, self._colors, self._index, self.k = edges, colors, None, k
        return self

    def _lookup(self) -> dict:
        if self._index is None:
            index = self._index = {}
            for (u, v), c in zip(map(_PAIR, self._edges), self._colors):
                index[(v, u) if (v, u) in index else (u, v)] = c
        return self._index

    def get(self, u: Vertex, v: Vertex):
        index = self._lookup()
        return index.get((u, v), index.get((v, u)))

    def edges(self) -> Iterator[tuple[EdgePair, int]]:
        return iter(self._lookup().items())

    def colors_of(self, edges: Sequence) -> list:
        """Each edge's colour; the first edge without one raises.  A colouring
        built on this very sequence gives its own list (not to be changed); any
        other is read by one lookup per edge, misses retried reversed, a
        product's edge view by plain tuple pairs, so no edge object is made."""
        if self._edges is edges:
            colors = self._colors
        else:
            get = self._lookup().get
            pairs = edges.pairs if isinstance(edges, ProductEdges) else lambda: map(_PAIR, edges)
            colors = list(map(get, pairs()))
            if None in colors:
                colors = [get((v, u)) if c is None else c for (u, v), c in zip(pairs(), colors)]
        if None in colors:
            u, v = _PAIR(edges[colors.index(None)])
            raise ValueError(f"edge {_text(u)} -- {_text(v)} has no colour")
        return colors


@dataclass(slots=True)
class Violation:
    edge_a: EdgePair
    edge_b: EdgePair
    relation: PairRelation
    color: int


class _Violations(Sequence):
    """Violating pairs, kept as the sweep's (i, partners) rows, none for a
    valid layout, and counted when made.  A row lists its partners in the
    sweep's order, by right rank; the first item read orders all pairs by
    key (colour * E + i) * E + j, i < j, and each becomes a Violation when
    read."""

    def __init__(self, rows: list, edges: Sequence, colors: list, relation: PairRelation):
        self._rows, self._keys, self._edges, self._colors, self._relation = rows, None, edges, colors, relation
        self._count = sum(len(hits) for _, hits in rows)

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __getitem__(self, at):
        if isinstance(at, slice):
            return [self[i] for i in range(*at.indices(len(self)))]
        if self._keys is None:
            n, colors = len(self._edges), self._colors
            self._keys = sorted((colors[i] * n + i) * n + j if i < j else (colors[i] * n + j) * n + i
                                for i, hits in self._rows for j in hits)
            self._rows = None
        i, j = divmod(self._keys[at] % len(self._edges) ** 2, len(self._edges))
        return Violation(_PAIR(self._edges[i]), _PAIR(self._edges[j]), self._relation, self._colors[i])


@dataclass
class LayoutReport:
    valid: bool
    violations: Sequence[Violation]


def graph_vertices_edges(graph) -> tuple[list[Vertex], list[EdgePair]]:
    """Vertices and edge pairs of any graph input the package accepts.

    A graph is a ProductGraph, an iterable of vertex pairs, whose
    vertices are listed in order of first mention, or a graph document
    (a dict): a product descriptor, one under "graph", or "edges", a
    list of vertex pairs whose ids are read as strings.  A loop, an edge
    from a vertex to itself, raises ValueError.
    """
    if isinstance(graph, dict):
        if "graph" in graph or "tree_degrees" in graph:
            graph = ProductGraph.from_descriptor(graph.get("graph", graph))
        elif "edges" in graph:
            edges = graph["edges"]
            if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
                raise ValueError("graph 'edges' must be a list of vertex pairs")
            graph = [(str(u), str(v)) for u, v in edges]
            _check_key_ids(w for e in graph for w in e)
        else:
            raise ValueError("graph document needs 'graph', 'tree_degrees', or 'edges'")
    if isinstance(graph, ProductGraph):
        vertices = list(graph.vertices)
        return vertices, list(graph.edges._pairs(vertices))
    edges = [_vertex_pair(e, "graph item {!r} is not a vertex pair") for e in graph]
    return list(dict.fromkeys(w for e in edges for w in e)), edges


def _vertex_pair(item, message: str) -> EdgePair:
    """The two ends of an edge given as a pair.  A string, a product
    vertex (a tuple, but one vertex), a set (whose order follows the
    string hash seed) or anything that does not unpack to exactly two
    values raises ValueError(message.format(item)); a loop, an edge from
    a vertex to itself, raises ValueError too."""
    try:
        if isinstance(item, (str, bytes, PVertex, set, frozenset)):
            raise TypeError
        u, v = item
    except (TypeError, ValueError):
        raise ValueError(message.format(item)) from None
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    return u, v


def _check_key_ids(ids: Iterable[str]) -> None:
    """Reject an id that an edge key u--v, split at its first '--', would not give back."""
    for v in ids:
        if "--" in v or v.endswith("-"):
            raise ValueError(f"vertex id {v!r} cannot be written in an edge key: it contains '--' or ends in '-'")


def _text(v: Vertex) -> str:
    """A vertex as errors name it: a product vertex in its 2.2@1 form."""
    return str(v) if isinstance(v, PVertex) else repr(v)


def _spans(graph, order: LinearOrder, coloring: EdgeColoring | None = None):
    """(edges, colours or None, lo, hi): the lower and upper rank of each
    edge's ends.  Under an order on a ProductGraph's own vertex view the
    ranks are the ids, so lo and hi are the product's span table, handed
    over as it is: no list is made.  Any other order on a product ranks
    the table's ids."""
    edges = graph.edges if isinstance(graph, ProductGraph) else graph_vertices_edges(graph)[1]
    colors = None if coloring is None else coloring.colors_of(edges)
    if isinstance(graph, ProductGraph):
        lo, hi = graph.spans()
        if order.vertices is graph.vertices:  # ids are ranks
            return edges, colors, lo, hi
        ranks = order.ranks_of(graph.vertices)
        a, b = (list(map(ranks.__getitem__, ids)) for ids in (lo, hi))
    else:
        flat = order.ranks_of([w for e in edges for w in e])
        a, b = flat[0::2], flat[1::2]
    return edges, colors, list(map(min, a, b)), list(map(max, a, b))


def _by_span(lo: list[int], hi: list[int], sign: int) -> list[int]:
    """Edge ids by left rank, then by ``sign`` times right rank."""
    r = max(hi, default=0) + 1
    key = [a * r + sign * b for a, b in zip(lo, hi)]
    return sorted(range(len(lo)), key=key.__getitem__)


def _sweep(lo: list[int], hi: list[int], crossing: bool) -> Iterator[tuple[int, list[int]]]:
    """Each edge id with the ids of earlier-swept edges that cross it
    (``crossing``) or nest with it; every such pair occurs once.

    Spans are taken by left rank, widest first among equal left ranks
    for crossings and narrowest first for nestings, so that spans sharing
    an endpoint, which share a rank, are never listed.  Nestings are
    decided first: none when the right ranks never fall in that order.
    Otherwise the spans are kept sorted by right rank, ascending for
    nestings and descending for crossings, whose closed spans are popped
    off the end.  A span's partners (right end beyond it, or strictly
    inside it) are then the slice after its own place, so it is inserted
    past every span but its partners: O(E log E) plus the pairs listed,
    and a span with none is appended.
    """
    sign = -1 if crossing else 1
    swept = _by_span(lo, hi, sign)
    if not crossing:
        right = list(map(hi.__getitem__, swept))
        if all(map(operator.le, right, islice(right, 1, None))):
            return
    keys, ids = [], []  # sign times the right rank of the spans kept, ascending
    for i in swept:
        a, b = lo[i], sign * hi[i]
        while crossing and keys and keys[-1] >= -a:  # closed: right rank a or below
            keys.pop()
            ids.pop()
        at = bisect_right(keys, b)
        if at < len(ids):
            yield i, ids[at:]
        keys.insert(at, b)
        ids.insert(at, i)


def _validate(graph, order, coloring, forbidden: PairRelation) -> LayoutReport:
    """Every same-colour pair in the ``forbidden`` relation, by colour,
    then by input position of the pair's first and second edge.

    Every edge is ranked, so an edge with an endpoint outside the order
    raises ValueError.  Colour c's spans are shifted by c times the rank
    range, so one pass keeps colours apart.  One sweep over the spans,
    sorted once, decides the layout and lists its pairs: O(E log E) plus
    the pairs, which are ordered when the first one is read.
    """
    edges, colors, lo, hi = _spans(graph, order, coloring)
    r = max(hi, default=0) + 1
    lo, hi = ([c * r + x for c, x in zip(colors, xs)] for xs in (lo, hi))
    rows = list(_sweep(lo, hi, forbidden is PairRelation.CROSS))
    violations = _Violations(rows, edges, colors, forbidden)
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
    """Vertices by position, depth, then address: their id order.  The
    order holds the product's vertex view, so every product check under
    it ranks by id and reads the product's span table as it is."""
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
    colors = []  # edges come kind-major, a run per kind
    for kind, count in graph.edge_counts().items():
        colors += [QUEUE_OF_KIND[kind]] * count
    return canonical_order(graph), EdgeColoring.from_lists(graph.edges, colors, 3)


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
    colours, a bitmask per vertex), ties by degree, then by index.
    Colour symmetry is broken by allowing at most one fresh colour per
    step.  ``counter[0]`` gains one per search node.  Returns an
    assignment list or None.
    """
    n = len(masks)
    if n == 0:
        return []
    if k <= 0:
        return None
    colors = [0] * n
    seen = [0] * n  # bit c of seen[v]: an uncoloured v has a neighbour of colour c
    degrees = [m.bit_count() for m in masks]
    width = max(degrees) + 1

    def rec(left: int, top: int) -> bool:
        # left: the uncoloured vertices; top: the largest colour used.
        if counter is not None:
            counter[0] += 1
        if not left:
            return True
        key, todo = -1, left
        while todo:
            low = todo & -todo
            todo ^= low
            w = low.bit_length() - 1
            at = seen[w].bit_count() * width + degrees[w]
            if at > key:
                v, key = w, at
        left ^= 1 << v
        saved = seen[:]
        free = ~seen[v] & ((1 << min(top + 2, k)) - 1)
        while free:
            bit = free & -free
            free ^= bit
            todo = masks[v] & left
            while todo:
                low = todo & -todo
                todo ^= low
                seen[low.bit_length() - 1] |= bit
            colors[v] = c = bit.bit_length() - 1
            if rec(left, max(top, c)):
                return True
            seen[:] = saved
        return False

    return colors if rec((1 << n) - 1, -1) else None


def colours_lower_bound(masks: list[int], below: int, straddled: Sequence[int] = ()) -> int:
    """A lower bound on the colours of a conflict graph: ``masks`` plus
    one vertex adjacent to each set in ``straddled``, none of them empty.
    0 without vertices, 1 without edges; otherwise 2, raised to 3 when
    ``below`` exceeds 2 and it has an odd cycle (tested breadth-first
    over bitmasks)."""
    if not straddled and not any(masks):
        return min(len(masks), 1)
    if below <= 2:
        return 2
    adj = list(masks) + list(straddled)
    for k, group in enumerate(straddled, len(masks)):
        bit = 1 << k
        while group:
            low = group & -group
            adj[low.bit_length() - 1] |= bit
            group ^= low
    todo = (1 << len(adj)) - 1
    while todo:
        side = todo & -todo
        todo ^= side
        other, frontier = 0, side
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            if reach & side:
                return 3
            frontier = reach & todo
            todo ^= frontier
            side, other = other | frontier, side
    return 2


def fewest_colours(masks: list[int], below: int, counter: list[int] | None = None):
    """try_color's assignment for the first k below ``below`` that
    succeeds, trying k upward from ``colours_lower_bound``; it uses
    exactly k colours.  None when none does."""
    for k in range(colours_lower_bound(masks, below), below):
        assignment = try_color(masks, k, counter)
        if assignment is not None:
            return assignment
    return None


def _crossing_lists(lo: list[int], hi: list[int]) -> list[list[int]]:
    """Crossing-conflict adjacency lists: j in adj[i] when edges i and j
    cross, each partner once.  O(E log E) plus the crossings."""
    adj: list[list[int]] = [[] for _ in lo]
    for i, hits in _sweep(lo, hi, True):
        adj[i].extend(hits)
        for j in hits:
            adj[j].append(i)
    return adj


def _crossing_rows(lo: list[int], hi: list[int]) -> list[int]:
    """Crossing-conflict rows: bit j of rows[i] is set when edges i and j
    cross.

    Over the distinct endpoint ranks, ``inc[k]`` holds the edges with an
    end at the k-th and ``xor[k]`` the XOR of ``inc[0..k]``.  If edge i
    has its ends at the a-th and b-th, ``xor[b] ^ xor[a]`` holds the
    edges with exactly one end among the (a+1)-th to b-th; those with no
    end at either of i's cross it.  O(E²/64) word operations, and no work
    per pair."""
    ranks = {r: k for k, r in enumerate(sorted(set(lo).union(hi)))}
    a, b = list(map(ranks.__getitem__, lo)), list(map(ranks.__getitem__, hi))
    inc = [0] * len(ranks)
    for i, (x, y) in enumerate(zip(a, b)):
        inc[x] |= 1 << i
        inc[y] |= 1 << i
    xor = list(accumulate(inc, operator.xor))
    return [(xor[y] ^ xor[x]) & ~(inc[x] | inc[y]) for x, y in zip(a, b)]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


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


def _row_components(rows: list[int]) -> Iterator[list[int]]:
    """Connected components of a graph given as bit rows, each sorted,
    listed by smallest member: breadth first from the lowest edge left."""
    left = (1 << len(rows)) - 1
    while left:
        comp = frontier = left & -left
        members = []
        while frontier:
            reach = 0
            for v in _bits(frontier):
                members.append(v)
                reach |= rows[v]
            frontier = reach & ~comp
            comp |= frontier
        left ^= comp
        members.sort()
        yield members


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


def _greedy_rows(rows: list[int], comp: list[int], colors: list[int]) -> None:
    """``_greedy_color`` on bit rows: each page is the mask of its edges,
    and an edge takes the first page its row does not meet."""
    pages: list[int] = []
    for _, v in sorted(zip([-rows[v].bit_count() for v in comp], comp)):
        row = rows[v]
        for c, page in enumerate(pages):
            if not row & page:
                pages[c] = page | 1 << v
                break
        else:
            c = len(pages)
            pages.append(1 << v)
        colors[v] = c


#: Most edges whose crossings ``stack_pages_for_order`` holds as bit rows.
#: Rows and their prefix XORs take about E²/8 bytes or more whatever the
#: crossings, so larger inputs keep adjacency lists, which grow with them.
CROSSING_ROW_LIMIT = 4096


def stack_pages_for_order(edges, order: LinearOrder) -> ColoringResult:
    """Fewest stack pages for a fixed order.

    Exact when every connected component of the crossing-conflict graph
    has at most EXACT_PAGE_LIMIT edges; beyond that a greedy bound is
    returned with ``exact`` set to False.  Up to CROSSING_ROW_LIMIT edges
    the conflict graph is one bit row per edge (``_crossing_rows``), so
    the components, the masks of the exact search and the greedy's pages
    are word operations, O(E²/64), with no Python work per crossing.
    Rows cost about E²/8 bytes or more however few the crossings: 149 GB
    for the 1,090,779 edges of (60,60)×100.  So a larger input is held as
    adjacency lists from one rank sweep (``_crossing_lists``), and all
    but the exact search costs O(E log E + crossings).  Both give the
    same components, counts and colours: components by smallest member,
    each small one searched on its own masks of at most EXACT_PAGE_LIMIT
    bits, and each larger one coloured greedily, most conflicts first,
    ties by index.
    """
    pairs, _, lo, hi = _spans(edges, order)
    if len(pairs) <= CROSSING_ROW_LIMIT:
        conflicts = _crossing_rows(lo, hi)
        comps, neighbours, greedy = _row_components(conflicts), lambda v: _bits(conflicts[v]), _greedy_rows
    else:
        conflicts = _crossing_lists(lo, hi)
        comps, neighbours, greedy = _components(conflicts), conflicts.__getitem__, _greedy_color
    assignment = [-1] * len(pairs)
    exact = True
    for comp in comps:
        if len(comp) <= EXACT_PAGE_LIMIT:
            local_index = {v: i for i, v in enumerate(comp)}
            masks = [sum(1 << local_index[w] for w in neighbours(v)) for v in comp]
            for v, c in zip(comp, fewest_colours(masks, len(comp) + 1)):
                assignment[v] = c
        else:
            greedy(conflicts, comp, assignment)
            exact = False
    best = max(assignment, default=-1) + 1
    return ColoringResult(best, EdgeColoring.from_lists(pairs, assignment, best), exact)


def _nesting_depths(lo: list[int], hi: list[int]) -> tuple[int, list[int]]:
    """Each edge's depth, the most edges in a chain nesting around it
    (itself included), and the largest depth, the biggest rainbow.

    Patience sorting in O(E log E): taken by (left, right) rank, a chain
    is a strictly decreasing run of right ranks, and ``tails[k]`` is
    minus the largest right rank that ends a chain of k + 1 edges so far.
    """
    depth = [0] * len(lo)
    tails: list[int] = []
    for i in _by_span(lo, hi, 1):
        x = -hi[i]
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
    pairs, _, lo, hi = _spans(edges, order)
    count, depth = _nesting_depths(lo, hi)
    return ColoringResult(count, EdgeColoring.from_lists(pairs, [d - 1 for d in depth], count), True)


# ---------------------------------------------------------------------------
# Layout serialization: {"order": [...], "colors": {"u--v": c}, "k": k}

def layout_to_json(order: LinearOrder, coloring: EdgeColoring, edges) -> dict:
    """Serialize a layout; ``edges`` fixes the key direction u--v."""
    pairs = edges.edges if isinstance(edges, ProductGraph) else graph_vertices_edges(edges)[1]
    colors = {f"{e[0]}--{e[1]}": c for e, c in zip(pairs, coloring.colors_of(pairs))}
    return {"order": [str(v) for v in order], "colors": colors, "k": coloring.k}


def layout_from_json(doc: Mapping, parse_vertex=PVertex.parse) -> tuple[LinearOrder, EdgeColoring]:
    """The order and colouring of a layout document.  Each vertex of the
    order is parsed once, and a colour key's end that the order holds is
    taken from it, not parsed again."""
    if not isinstance(doc.get("order"), list):
        raise ValueError("layout 'order' must be a list of vertices")
    if not isinstance(doc.get("colors"), dict):
        raise ValueError("layout 'colors' must be an object of edge colours")
    _check_key_ids(map(str, doc["order"]))
    order = LinearOrder(parse_vertex(s) for s in doc["order"])
    known = dict(zip(map(str, doc["order"]), order))  # a key's end in the order is not parsed again

    def parse(text: str) -> Vertex:
        return known[text] if text in known else parse_vertex(text)

    colors = {}
    for key, c in doc["colors"].items():
        u_text, sep, v_text = key.partition("--")
        if not sep:
            raise ValueError(f"bad edge key {key!r}")
        colors[(parse(u_text), parse(v_text))] = integer(c, f"colour of edge {key!r}", 0)
    k = doc.get("k")
    return order, EdgeColoring(colors, k=None if k is None else integer(k, "layout 'k'"))
