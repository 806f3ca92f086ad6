"""Exact stack and queue numbers of small graphs by branch and bound.

Both solvers search the vertex orders depth-first over order prefixes
and keep the best layout found so far (the incumbent).  Complete
orders come in lexicographic order of input positions.  Crossings are
invariant under rotating and reversing the order, so the stack search
pins the first vertex; nestings survive reversal but not rotation, so
the queue search pins none.  Both skip reversals by requiring the first
free vertex to precede the last.

A prefix is pruned when what it fixes already forces the incumbent's
count.  A placed vertex has its rank, and an edge with one placed end
(an open edge) gets the right end n, so two open edges never nest or
cross each other, and every nesting or crossing among these spans holds
in every completion.

* Queue: the largest rainbow of these spans, kept incrementally by
  left rank; an open edge can only be its outermost edge.  Placed
  vertices at ranks l1 < ... < lj with j unplaced neighbours in common
  raise it: however those neighbours are ordered, j open edges close
  into a rainbow around every closed edge right of lj.
* Stack: the fixed crossings are the closed-closed pairs plus the
  closed edges straddling an open edge's left end.  The search asks
  only what is cheap to ask of this conflict graph, by
  ``layout.colours_lower_bound``: whether it has an edge (one page) and
  an odd cycle (two pages), so it prunes while the incumbent is 2 or 3.
  A complete order's pages are ``layout.fewest_colours`` of its
  crossing graph, which starts at the same bound.

A prefix is pruned only when its bound reaches the incumbent, so no
order under it could have replaced the incumbent: the incumbents, and
with them the witness order and colouring, are those of a scan of every
order in sequence.  The search stops once the incumbent meets a floor,
E counting distinct edges: ceil(E / (2n - 3)), since a page or a queue
holds at most 2n - 3 of them (Heath & Rosenberg 1992); for stacks also
ceil((E - n) / (n - 3)), since k pages hold at most n + k(n - 3) edges,
and 3 when the graph is not planar, since two-page graphs are planar
(both Bernhart & Kainen 1979).  Planarity is decided exactly, as one
GF(2) system by the Hanani–Tutte theorem (see ``_nonplanar``), and only
when the stack incumbent first reaches 3 above the edge-count floors:
the one moment its answer can end the search.  What stays exponential:
the number of prefixes where the bounds are weak (stack layouts of more
than three pages are never pruned, so a graph whose stack number
exceeds its floor is searched in full when that number exceeds 3 or the
graph is planar), and the colouring search at each complete order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import SizeLimitError, integer, real
from .layout import (
    EdgeColoring,
    LinearOrder,
    _crossing_rows,
    colours_lower_bound,
    fewest_colours,
    graph_vertices_edges,
    layout_to_json,
    queues_for_order,
    stack_pages_for_order,
)
from .product import descriptor_size

#: Exhaustive search refuses graphs with more vertices than this.
EXHAUSTIVE_VERTEX_LIMIT = 10


@dataclass
class SolveResult:
    """Page count with its witness layout.

    ``nodes_explored`` counts the order prefixes expanded, the complete
    orders scored and the nodes of the colouring search (stack only).
    Prefixes pruned by their bound are not counted.
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


def _check_size(count: int) -> None:
    if count > EXHAUSTIVE_VERTEX_LIMIT:
        raise SizeLimitError(
            f"exhaustive search is limited to {EXHAUSTIVE_VERTEX_LIMIT} vertices, got {count}"
        )


def _solve(graph, upper_limit, budget_ms, kind: str) -> SolveResult:
    if upper_limit is not None:
        upper_limit = integer(upper_limit, "upper_limit", 1)
    if budget_ms is not None:
        budget_ms = real(budget_ms, "budget_ms")
    if isinstance(graph, dict) and ("graph" in graph or "tree_degrees" in graph):
        # A product descriptor is refused by its count, before its product is built.
        _check_size(descriptor_size(graph.get("graph", graph)))
    vertices, edges = graph_vertices_edges(graph)
    _check_size(len(vertices))
    start = LinearOrder(vertices)
    if not edges:
        return SolveResult(0, start, EdgeColoring({}), True, 0, ())

    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    # The incumbent: page counts at or above it are not worth finding.
    best = (len(edges) if upper_limit is None else min(upper_limit, len(edges))) + 1
    n = len(vertices)
    flat = start.ranks_of([w for e in edges for w in e])
    pairs = list(zip(flat[0::2], flat[1::2]))
    floor = _floor(n, pairs, kind == "stack")

    def settled(k):
        # Whether no order has fewer than k pages or queues.  Planarity
        # settles only k == 3, and is asked at most once: the incumbent
        # falls, and a search capped at 3 finds only smaller counts.
        return k <= floor or kind == "stack" and k == 3 and _nonplanar(n, pairs)

    winner = assignment = None
    expired = False
    explored = 0
    if not settled(best):
        best, winner, assignment, expired, explored = _branch_and_bound(
            n, pairs, kind == "stack", best, settled, deadline
        )
    if winner is None:
        # No order beats the cap: the input order's count is the bound
        # returned.  A search cut by the deadline has a winner no worse
        # than that count, since the input order is scored first and is
        # pruned only when its count exceeds the cap.
        result = (stack_pages_for_order if kind == "stack" else queues_for_order)(edges, start)
        return SolveResult(result.count, start, result.colors, False, explored, tuple(edges))
    order = LinearOrder(vertices[i] for i in winner)
    if kind == "stack":
        # The colouring EdgeColoring's checked constructor would build from
        # this dict, without checking what the search produced.
        colors = dict(zip(edges, assignment))
        colors = EdgeColoring.from_lists(list(colors), list(colors.values()), best)
    else:
        colors = queues_for_order(edges, order).colors
    return SolveResult(best, order, colors, not expired, explored, tuple(edges))


class _Stop(Exception):
    """Unwinds the search once the budget expires or the incumbent is optimal."""


def _branch_and_bound(n: int, pairs: list, stack: bool, best: int, settled, deadline):
    """Depth-first search over order prefixes for fewer than ``best``
    pages (``stack``) or queues; see the module docstring.  It stops at
    the first incumbent ``k`` for which ``settled(k)`` holds.

    Returns (best, winner, assignment, expired, explored): the final
    incumbent, its order as a tuple of vertex indices (None when no
    order beats the initial ``best``), its page assignment (stack
    only), whether the deadline ended the search, and the nodes
    explored.  The deadline is checked every 64 units, a unit being a
    scored order or a pruned prefix, each covering at least one order.
    """
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    neighbours = [0] * n
    for i, (a, b) in enumerate(pairs):
        incident[a].append((i, b))
        incident[b].append((i, a))
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a
    first = 1 if stack else 0
    mirror = n - first >= 2
    rank = [-1] * n
    seq = list(range(first))
    for v in seq:
        rank[v] = v
    winner = assignment = None
    expired = False
    units = 0
    counter = [0]

    def queue_extend(v, d, depth):
        # depth[r]: the largest rainbow of closed edges whose left end
        # has rank r or more.  A new closed edge (c, d) nests around
        # exactly the closed edges with left end above c, and the new
        # ones share the right end d, so none nests another.
        grown = depth
        for _, u in incident[v]:
            c = rank[u]
            if c >= 0:
                inner = depth[c + 1] + 1
                if grown is depth:
                    grown = depth[:]
                while c >= 0 and grown[c] < inner:
                    grown[c] = inner
                    c -= 1
        return grown

    def queue_bound(depth, d, rest):
        # Placed vertices at ranks l1 < ... < lj with j unplaced
        # neighbours in common force a rainbow of j open edges, whatever
        # the order of those neighbours, around every closed edge that
        # starts right of lj.  The chain is grown greedily by rank; its
        # first link is the leftmost open edge.
        bound, common, j = depth[0], rest, 0
        for r in range(d + 1):
            shared = common & neighbours[seq[r]]
            if shared.bit_count() > j:
                common, j = shared, j + 1
                bound = max(bound, j + depth[r + 1])
        return bound

    def queue_score(depth):
        nonlocal best, winner
        if depth[0] < best:
            best, winner = depth[0], tuple(seq)
            if settled(best):
                raise _Stop

    def stack_extend(v, d, state):
        # masks: closed-closed crossings, bit j of masks[i] set when
        # edges i and j cross; cover[r]: the closed edges (c, e) with
        # c < r < e.  A new closed edge (c, d) crosses exactly cover[c].
        masks, cover = state
        new_masks, new_cover = masks, cover
        for i, u in incident[v]:
            c = rank[u]
            if c < 0:
                continue
            hit = cover[c]
            bit = 1 << i
            if hit:
                if new_masks is masks:
                    new_masks = masks[:]
                new_masks[i] |= hit
                while hit:
                    low = hit & -hit
                    new_masks[low.bit_length() - 1] |= bit
                    hit ^= low
            if c + 1 < d:
                if new_cover is cover:
                    new_cover = cover[:]
                for r in range(c + 1, d):
                    new_cover[r] |= bit
        return new_masks, new_cover

    def stack_bound(state, d, rest):
        if best > 3:
            return 0
        masks, cover = state
        straddled = [cover[r] for r in range(d) if cover[r] and neighbours[seq[r]] & rest]
        return colours_lower_bound(masks, best, straddled)

    def stack_score(state):
        nonlocal best, winner, assignment
        found = fewest_colours(state[0], best, counter)
        if found is not None:
            best, winner, assignment = max(found) + 1, tuple(seq), found
            if settled(best):
                raise _Stop

    extend, bound, score = (
        (stack_extend, stack_bound, stack_score) if stack
        else (queue_extend, queue_bound, queue_score)
    )

    def tick():
        nonlocal units, expired
        units += 1
        if units % 64 == 0 and deadline is not None and time.monotonic() > deadline:
            expired = True
            raise _Stop

    def expand(d, unplaced, state):
        counter[0] += 1
        cand = unplaced
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            rest = unplaced ^ low
            # Some completion must end in a vertex above the first free
            # one (the largest left, or v when it is last); otherwise the
            # prefix holds only reversals of orders visited elsewhere.
            if mirror:
                last = rest.bit_length() - 1 if rest else v
                if last <= (seq[first] if d > first else v):
                    continue
            rank[v] = d
            seq.append(v)
            child = extend(v, d, state)
            if rest & (rest - 1) == 0:
                leaf(d + 1, rest, child)
            elif bound(child, d, rest) >= best:
                tick()
            else:
                expand(d + 1, rest, child)
            seq.pop()
            rank[v] = -1

    def leaf(d, rest, state):
        # At most one vertex is left, and its place is forced.
        if rest:
            w = rest.bit_length() - 1
            rank[w] = d
            seq.append(w)
            state = extend(w, d, state)
        tick()
        counter[0] += 1
        score(state)
        if rest:
            seq.pop()
            rank[w] = -1

    root = ([0] * len(pairs), [0] * n) if stack else [0] * (n + 1)
    try:
        expand(first, ((1 << n) - 1) >> first << first, root)
    except _Stop:
        pass
    return best, winner, assignment, expired, counter[0]


def _floor(n: int, pairs: list, stack: bool) -> int:
    """A lower bound on the pages (``stack``) or queues of the graph on
    vertices 0..n-1 with edges ``pairs``, from its edge count; see the
    module docstring."""
    distinct = len({frozenset(e) for e in pairs})
    floor = -(-distinct // (2 * n - 3))
    if stack and distinct > n:  # so n > 3: k pages hold at most n + k(n - 3) edges
        floor = max(floor, -(-(distinct - n) // (n - 3)))
    return floor


def _nonplanar(n: int, pairs: list) -> bool:
    """Whether the graph on vertices 0..n-1 with edges ``pairs`` is not
    planar; exact, so False proves the graph planar.

    Vertices of degree at most 1 are deleted and those of degree 2
    smoothed (their two neighbours joined) until none is left, which
    keeps planarity either way.  What is left with fewer than 9 edges or
    6 vertices is planar unless it is K5, since K3,3 has 9 edges on 6
    vertices; with more than 3n - 6 edges on n vertices it is not.

    The rest is the Hanani–Tutte theorem (Hanani 1934; Tutte, "Toward a
    theory of crossing numbers", JCT 1970; Schaefer, "Hanani–Tutte and
    related results", 2013): a graph is planar exactly when some drawing
    of it has every two independent edges (sharing no end) cross an even
    number of times.  Drawn with its vertices on a circle in index order,
    two independent edges cross once exactly when their ends interleave.
    Moving edge e across a vertex v off e flips the crossing parity of e
    with every edge at v independent of e.  Such moves reach every
    drawing's parities: move the vertices to their places, each passing
    over edges, then deform each edge into its new curve, as the plane is
    simply connected; other crossings of independent edges come and go in
    twos.  So the graph is planar exactly when the circle's parities are
    a sum of moves over GF(2): when the system with one unknown per move
    and one equation per independent pair has a solution.  Elimination
    decides it, failing when a row reduces to 0 = 1."""
    adj = [0] * n
    for a, b in pairs:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    todo = (1 << n) - 1
    while todo:
        bit = todo & -todo
        todo ^= bit
        v = bit.bit_length() - 1
        ends = adj[v]
        rest = ends & (ends - 1)  # ends without its lowest neighbour
        if ends and not rest & (rest - 1):  # degree 1 or 2
            adj[v] = 0
            todo |= ends
            low = ends ^ rest
            u = low.bit_length() - 1
            if rest:
                w = rest.bit_length() - 1
                adj[u] = adj[u] ^ bit | rest
                adj[w] = adj[w] ^ bit | low
            else:
                adj[u] ^= bit
    size, k = sum(map(int.bit_count, adj)) // 2, n - adj.count(0)
    if size < 9 or k < 6:
        return size == 10  # K5
    if size > 3 * k - 6:
        return True
    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if adj[u] >> w & 1]
    # On the circle vertex v has rank v, and the pairs crossing once
    # interleave: bit f of drawn[i] is set when edges f and i do.
    drawn = _crossing_rows(*zip(*edges))
    # The row of independent pair {f, i}: the moves that flip it, edge e
    # across v as bit e * n + v + 1, and its parity as bit 0.  Rows are
    # reduced by those kept before, and kept under their leading bit.
    rows = {}
    for i, (a, b) in enumerate(edges):
        for f, (u, w) in enumerate(edges[:i]):
            if a != u and a != w and b != u and b != w:
                x = (drawn[i] >> f & 1 | 2 << i * n + u | 2 << i * n + w
                     | 2 << f * n + a | 2 << f * n + b)
                while row := rows.get(x.bit_length() - 1):
                    x ^= row
                if x == 1:
                    return True
                if x:
                    rows[x.bit_length() - 1] = x
    return False


def stack_number(graph, upper_limit: int | None = None, budget_ms: float | None = None) -> SolveResult:
    """Minimum stack pages over all vertex orders.

    Exhaustive for graphs with at most EXHAUSTIVE_VERTEX_LIMIT vertices.
    ``upper_limit`` (at least 1) caps the page counts searched for.  When
    no order fits within the cap, the result is an upper bound from the
    input order with exact=False.  When the budget expires, it is the
    best layout found before the deadline, again with exact=False; the
    input order is scored first, so it is never worse than that bound.
    """
    return _solve(graph, upper_limit, budget_ms, "stack")


def queue_number(graph, upper_limit: int | None = None, budget_ms: float | None = None) -> SolveResult:
    """Minimum queues over all vertex orders.  Same caveats as stack_number."""
    return _solve(graph, upper_limit, budget_ms, "queue")
