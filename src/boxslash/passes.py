"""Subtree thinning passes and the tables they leave behind.

Three passes restrict a tree-path product, each one keeping, per tree
level, a uniform subset of children so that the surviving graph is a
smaller product of the same shape:

* pass_colour makes the edge colour depend only on (depth, position,
  kind), summarized in a ColorTable;
* pass_order makes every node's child subtrees order-isomorphic under
  the vertex order, so comparisons transfer between same-depth nodes;
* pass_lex makes each (level, position) rank array lex-monotone, which
  pins down a per-level direction recorded in a DirectionTable.

The pipeline's values travel together in one PassState: the current
graph, its vertex order and edge colouring, and the map from original
to current tree nodes.  A pass only decides which children to keep;
restrict() applies that choice to the whole state at once.

The colour and order passes bucket the children of every node by a
positional profile of the child's whole cone, keep the largest bucket
(ties broken by the lexicographically smallest child set), and truncate
to the requested target.  They run bottom-up so a profile always
describes an already thinned cone.  The lex pass instead cuts each
level to the index sets of lex-monotone witnesses: it reads each
(level, position) rank array once and tests a candidate subarray of C
cells with one sort, in O(C log C), though it still tries every axis
order, sign vector and index set in turn.  Quantitative survival
guarantees are out of scope; a level that cannot meet its target raises
PassStarvation instead.

The passes do not verify their own output.  run_passes checks every
property once, on the final state it returns.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    InconsistencyError,
    PassStarvation,
    PreconditionError,
    SizeLimitError,
)
from .layout import EdgeColoring, LinearOrder
from .product import (
    EdgeKind,
    NodeIndex,
    ProductGraph,
    PVertex,
    restrict_subtree,
)
from .sequences import Direction


@dataclass
class CheckReport:
    """Outcome of an exhaustive property check."""

    violations: list
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Tables.

class ColorTable:
    """Edge colour as a function of (deeper depth, smaller position, kind)."""

    def __init__(self, entries: Mapping[tuple[int, int, EdgeKind], int]):
        self.entries = dict(entries)

    @staticmethod
    def signature(u: PVertex, v: PVertex, kind: EdgeKind) -> tuple[int, int, EdgeKind]:
        return (max(u.node.depth, v.node.depth), min(u.pos, v.pos), kind)

    @classmethod
    def from_layout(cls, graph: ProductGraph, coloring: EdgeColoring) -> "ColorTable":
        """Build the table, insisting every edge agrees with it."""
        entries: dict[tuple[int, int, EdgeKind], int] = {}
        for u, v, kind in graph.edges:
            sig = cls.signature(u, v, kind)
            c = coloring.color(u, v)
            if sig in entries and entries[sig] != c:
                raise InconsistencyError(
                    f"edges with signature {sig} use colours "
                    f"{entries[sig]} and {c}"
                )
            entries.setdefault(sig, c)
        return cls(entries)

    def color_of(self, depth: int, pos: int, kind: EdgeKind) -> int:
        try:
            return self.entries[(depth, pos, kind)]
        except KeyError:
            raise ValueError(f"no table entry for {(depth, pos, kind)}") from None

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "entries": {
                f"{d},{p},{kind.value}": c
                for (d, p, kind), c in sorted(
                    self.entries.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value)
                )
            }
        }


class DirectionTable:
    """Direction of the child-choice sequences, per (level, length, position).

    Entry (i, j, p) is the common direction of every vertex sequence
    obtained by varying the child choice at level i of an address of
    total length j, viewed at path position p.  The domain is exactly
    the triangle 1 <= i <= j <= height, 1 <= p <= path length.
    """

    def __init__(self, height: int, path_len: int, entries: Mapping):
        self.height = height
        self.path_len = path_len
        self.entries = dict(entries)
        expected = {
            (i, j, p)
            for i in range(1, height + 1)
            for j in range(i, height + 1)
            for p in range(1, path_len + 1)
        }
        if set(self.entries) != expected:
            missing = expected - set(self.entries)
            extra = set(self.entries) - expected
            raise ValueError(
                f"direction table domain mismatch: missing {sorted(missing)[:4]}, "
                f"extra {sorted(extra)[:4]}"
            )
        for key, value in self.entries.items():
            if not isinstance(value, Direction):
                raise ValueError(f"entry {key} is not a Direction: {value!r}")

    def direction(self, i: int, j: int, p: int) -> Direction:
        try:
            return self.entries[(i, j, p)]
        except KeyError:
            raise ValueError(f"({i},{j},{p}) outside the table domain") from None

    def to_json(self) -> dict:
        return {
            "height": self.height,
            "path_len": self.path_len,
            "entries": {
                f"{i},{j},{p}": d.value for (i, j, p), d in sorted(self.entries.items())
            },
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "DirectionTable":
        entries = {}
        for key, value in doc["entries"].items():
            i, j, p = (int(part) for part in key.split(","))
            entries[(i, j, p)] = Direction(value)
        return cls(int(doc["height"]), int(doc["path_len"]), entries)


# ---------------------------------------------------------------------------
# Monotone extraction.

def find_monotone_subsequence(values: Sequence[int], target: int) -> Optional[list]:
    """Longest increasing or decreasing subsequence, if it reaches target.

    Patience sorting in both directions; the increasing run wins ties.
    Any list of length at least (target-1)^2 + 1 must succeed.
    """
    values = list(values)
    if len(set(values)) != len(values):
        raise ValueError("values must be distinct")
    if target < 1:
        raise ValueError("target must be positive")

    def longest(seq: list) -> list:
        import bisect

        tails: list = []
        tail_index: list[int] = []
        prev = [-1] * len(seq)
        for idx, x in enumerate(seq):
            spot = bisect.bisect_left(tails, x)
            if spot == len(tails):
                tails.append(x)
                tail_index.append(idx)
            else:
                tails[spot] = x
                tail_index[spot] = idx
            prev[idx] = tail_index[spot - 1] if spot > 0 else -1
        out = []
        at = tail_index[-1] if tail_index else -1
        while at != -1:
            out.append(seq[at])
            at = prev[at]
        return out[::-1]

    if not values:
        return None
    rising = longest(values)
    falling = [-x for x in longest([-x for x in values])]
    best = rising if len(rising) >= len(falling) else falling
    return best if len(best) >= target else None


@dataclass(frozen=True)
class LexMonotoneWitness:
    """Axis permutation, per-axis signs, and kept index sets per axis."""

    sigma: tuple[int, ...]
    signs: tuple[Direction, ...]
    index_sets: tuple[tuple[int, ...], ...]


MAX_ARRAY_DIMS = 3
MAX_ARRAY_SIDE = 12


def _array_dims(array) -> tuple[int, ...]:
    dims = []
    probe = array
    while isinstance(probe, (list, tuple)):
        dims.append(len(probe))
        probe = probe[0]
    return tuple(dims)


def _array_values(array, cells: Iterable[tuple[int, ...]]) -> dict:
    """The nested array read once into a dict from index cell to value."""
    return {cell: functools.reduce(operator.getitem, cell, array) for cell in cells}


def _lex_key(cell, sigma, signs) -> tuple:
    return tuple(
        cell[axis] if signs[axis] is Direction.INC else -cell[axis]
        for axis in sigma
    )


def _is_lex_monotone(values: Mapping, cells: list, sigma, signs) -> bool:
    """Value order equals lex-key order: sorted by value, both strictly rise."""
    ranked = sorted((values[c], _lex_key(c, sigma, signs)) for c in cells)
    return all(x < y and kx < ky for (x, kx), (y, ky) in zip(ranked, ranked[1:]))


def _search_lex(
    dims: tuple[int, ...], values: Mapping, targets: tuple[int, ...]
) -> Optional[LexMonotoneWitness]:
    axes = range(len(dims))
    for sigma in itertools.permutations(axes):
        for signs in itertools.product((Direction.INC, Direction.DEC), repeat=len(dims)):
            for index_sets in itertools.product(
                *[itertools.combinations(range(dims[k]), targets[k]) for k in axes]
            ):
                cells = list(itertools.product(*index_sets))
                if _is_lex_monotone(values, cells, sigma, signs):
                    return LexMonotoneWitness(tuple(sigma), tuple(signs), tuple(index_sets))
    return None


def lex_monotone_subarray(array, target: int) -> Optional[LexMonotoneWitness]:
    """Find an all-axes target-sized lex-monotone subarray.

    The search runs over every axis permutation (identity first), sign
    vector (all increasing first) and index combination, and accepts
    the first candidate whose cells, sorted by value, also sort by lex
    key.  Returns None when no subarray of that size qualifies.
    """
    dims = _array_dims(array)
    if len(dims) > MAX_ARRAY_DIMS or any(s > MAX_ARRAY_SIDE for s in dims):
        raise SizeLimitError(
            f"array of shape {dims} exceeds the {MAX_ARRAY_DIMS}-dimensional, "
            f"side-{MAX_ARRAY_SIDE} search limit"
        )
    values = _array_values(array, itertools.product(*[range(s) for s in dims]))
    if len(set(values.values())) != len(values):
        raise ValueError("array values must be distinct")
    return _search_lex(dims, values, (target,) * len(dims))


def verify_lex_monotone(array, witness: LexMonotoneWitness) -> bool:
    """Recheck a witness against the array: its values must be distinct
    and sort its cells exactly as the witness's lex key does."""
    cells = list(itertools.product(*witness.index_sets))
    return _is_lex_monotone(_array_values(array, cells), cells, witness.sigma, witness.signs)


# ---------------------------------------------------------------------------
# Pass scaffolding.

def _resolve_targets(targets, height: int) -> list:
    if targets is None:
        return [None] * height
    if isinstance(targets, int):
        return [targets] * height
    out = list(targets)
    if len(out) != height:
        raise ValueError(f"need {height} per-level targets, got {len(out)}")
    return out


def _full_keep(graph: ProductGraph) -> dict[NodeIndex, tuple[int, ...]]:
    tree = graph.tree
    keep = {}
    for depth in range(tree.height):
        d = tree.spec.degrees[depth]
        for node in tree.nodes_at_depth(depth):
            keep[node] = tuple(range(1, d + 1))
    return keep


def _prune_by_profiles(
    graph: ProductGraph, profile_fn: Callable, targets, stage: str
) -> dict[NodeIndex, tuple[int, ...]]:
    """Bottom-up bucket-and-truncate shared by the colour and order passes.

    profile_fn(node, child_number, keep) must describe the child's cone
    positionally, so that equal profiles mean interchangeable children.
    """
    tree = graph.tree
    levels = _resolve_targets(targets, tree.height)
    keep = _full_keep(graph)
    for depth in range(tree.height - 1, -1, -1):
        chosen: dict[NodeIndex, list[int]] = {}
        for node in tree.nodes_at_depth(depth):
            buckets: dict = {}
            for c in keep[node]:
                buckets.setdefault(profile_fn(node, c, keep), []).append(c)
            size = max(len(b) for b in buckets.values())
            best = min(sorted(b) for b in buckets.values() if len(b) == size)
            chosen[node] = best
        available = min(len(b) for b in chosen.values())
        wanted = levels[depth]
        if wanted is None:
            wanted = available
        if wanted > available:
            raise PassStarvation(stage, depth, available, wanted)
        for node, best in chosen.items():
            keep[node] = tuple(best[:wanted])
    return keep


def _cone_nodes(root: NodeIndex, keep: Mapping, height: int):
    """Kept cone of a node, breadth first, with positional addresses."""
    out = [((), root)]
    queue = deque(out)
    while queue:
        addr, node = queue.popleft()
        if node.depth >= height:
            continue
        for rank, c in enumerate(keep[node]):
            entry = (addr + (rank,), node.child(c))
            out.append(entry)
            queue.append(entry)
    return out


@dataclass(frozen=True)
class PassState:
    """Where the thinning pipeline stands.

    ``graph`` is the current product, ``order`` and ``coloring`` its
    layout, and ``node_map`` sends every surviving node of the original
    tree to its current address (pruned nodes are absent).
    """

    graph: ProductGraph
    order: LinearOrder
    coloring: EdgeColoring
    node_map: dict[NodeIndex, NodeIndex]

    @classmethod
    def initial(
        cls, graph: ProductGraph, order: LinearOrder, coloring: EdgeColoring
    ) -> "PassState":
        return cls(graph, order, coloring, {n: n for n in graph.tree.nodes})


def restrict(state: PassState, keep: Mapping[NodeIndex, Iterable[int]]) -> PassState:
    """Keep the given children (see restrict_subtree) and carry the layout over.

    The order and the colouring are read back through the inverse of the
    renumbering, and the node map is composed with it.
    """
    graph, step = restrict_subtree(state.graph, keep)
    previous = {new: old for old, new in step.items()}

    def old(v: PVertex) -> PVertex:
        return PVertex(previous[v.node], v.pos)

    rank = state.order.rank
    order = LinearOrder(sorted(graph.vertices, key=lambda v: rank(old(v))))
    color = state.coloring.color
    coloring = EdgeColoring(
        {(u, v): color(old(u), old(v)) for u, v in graph.edge_pairs()},
        k=state.coloring.k,
    )
    node_map = {
        orig: step[cur] for orig, cur in state.node_map.items() if cur in step
    }
    return PassState(graph, order, coloring, node_map)


# ---------------------------------------------------------------------------
# The colour pass.

def pass_colour(state: PassState, targets=None) -> PassState:
    """Thin the tree until edge colour is a function of (depth, pos, kind).

    A child's profile is the colour of every edge in its kept cone plus
    the edges joining the child to its parent, keyed by positional
    address, so equal profiles mean positionally identical colourings.
    """
    graph, coloring = state.graph, state.coloring
    m = graph.path_len
    height = graph.tree.height

    def profile(node: NodeIndex, c: int, keep) -> tuple:
        child = node.child(c)
        entries = []
        for addr, cur in _cone_nodes(child, keep, height):
            for i in range(1, m):
                entries.append(
                    (("H", addr, i), coloring.color(PVertex(cur, i), PVertex(cur, i + 1)))
                )
            par = node if addr == () else cur.parent
            for i in range(1, m + 1):
                entries.append(
                    (("V", addr, i), coloring.color(PVertex(cur, i), PVertex(par, i)))
                )
            for i in range(1, m):
                entries.append(
                    (("D", addr, i), coloring.color(PVertex(cur, i), PVertex(par, i + 1)))
                )
        return tuple(sorted(entries))

    return restrict(state, _prune_by_profiles(graph, profile, targets, "colour"))


# ---------------------------------------------------------------------------
# The order pass.

def _rank_pattern(ranks: list[int]) -> tuple[int, ...]:
    by_rank = {r: i for i, r in enumerate(sorted(ranks))}
    return tuple(by_rank[r] for r in ranks)


def _cone_pattern(cone: list, order: LinearOrder, m: int) -> tuple[int, ...]:
    """Rank pattern of a cone's vertices, nodes in cone order, positions 1..m."""
    return _rank_pattern(
        [order.rank(PVertex(cur, i)) for _, cur in cone for i in range(1, m + 1)]
    )


def check_child_symmetry(graph: ProductGraph, order: LinearOrder) -> CheckReport:
    """Exhaustively verify that comparisons transfer between same-depth nodes.

    A spot (x, i) is a descendant suffix x (child choices, possibly
    empty) at path position i.  For every two same-depth nodes a, b and
    every two spots, the order must compare a.x@i with a.y@j the way it
    compares b.x@i with b.y@j.  Ranks within a cone are distinct, so all
    these comparisons agree exactly when a and b have the same rank
    pattern over their full cones (the profile pass_order buckets by);
    equality being transitive, each node's pattern is compared with the
    first node's of its depth.

    ``checked`` counts the pairwise conditions this decides: per depth,
    C(nodes, 2) * C(spots, 2).  Each node b whose pattern differs from
    the first node a's is reported once, as (a, b, x, i, y, j) for the
    spots (x, i) before (y, j) of a pair the two order differently.
    """
    tree = graph.tree
    m = graph.path_len
    keep = _full_keep(graph)
    violations = []
    checked = 0
    for depth in range(1, tree.height + 1):
        first, *rest = tree.nodes_at_depth(depth)
        cone = _cone_nodes(first, keep, tree.height)
        checked += math.comb(len(rest) + 1, 2) * math.comb(len(cone) * m, 2)
        want = _cone_pattern(cone, order, m)
        for node in rest:
            got = _cone_pattern(_cone_nodes(node, keep, tree.height), order, m)
            if got == want:
                continue
            spots = range(len(want))
            k = next(s for s in spots if want[s] != got[s])
            other = next(s for s in spots if (want[s] < want[k]) != (got[s] < got[k]))
            (x, i), (y, j) = (
                (cone[s // m][1].path[depth:], s % m + 1) for s in sorted((k, other))
            )
            violations.append((str(first), str(node), x, i, y, j))
    return CheckReport(violations, checked)


def pass_order(state: PassState, targets=None) -> PassState:
    """Thin the tree until sibling cones are order-isomorphic.

    A child's profile is the relative rank pattern of its cone's
    vertices in canonical positional enumeration.
    """
    graph, order = state.graph, state.order
    m = graph.path_len
    height = graph.tree.height

    def profile(node: NodeIndex, c: int, keep) -> tuple:
        return _cone_pattern(_cone_nodes(node.child(c), keep, height), order, m)

    return restrict(state, _prune_by_profiles(graph, profile, targets, "order"))


# ---------------------------------------------------------------------------
# The lex pass.

def pass_lex(state: PassState, targets=None) -> tuple[PassState, dict]:
    """Thin the tree until every (level, position) rank array is lex-monotone.

    The array for (level L, position p) is indexed by the child choices
    along the first L levels and holds the order rank of that node at
    position p.  Arrays are processed level by level, position by
    position; each witness's kept index sets cut the corresponding tree
    levels for all later arrays (lex-monotonicity survives taking
    subarrays, so earlier witnesses stay valid).  With targets omitted
    every child is kept, or PassStarvation raised.  Returns the thinned
    state and the witness of each (level, position).
    """
    graph, order = state.graph, state.order
    tree = graph.tree
    m = graph.path_len
    levels = _resolve_targets(targets, tree.height)
    kept_choices: list[tuple[int, ...]] = [
        tuple(range(1, d + 1)) for d in tree.spec.degrees
    ]
    witnesses: dict = {}
    for level in range(1, tree.height + 1):
        for p in range(1, m + 1):
            axes = kept_choices[:level]
            dims = tuple(len(a) for a in axes)
            goal = tuple(
                dims[k] if levels[k] is None else min(levels[k], dims[k])
                for k in range(level)
            )
            ranks = {
                cell: order.rank(PVertex(NodeIndex(tuple(a[c] for a, c in zip(axes, cell))), p))
                for cell in itertools.product(*[range(d) for d in dims])
            }
            witness = _search_lex(dims, ranks, goal)
            if witness is None:
                raise PassStarvation("lex", (level, p), dims, goal)
            witnesses[(level, p)] = witness
            for k in range(level):
                axes_k = axes[k]
                kept_choices[k] = tuple(axes_k[t] for t in witness.index_sets[k])
    keep = {}
    for depth in range(tree.height):
        for node in tree.nodes_at_depth(depth):
            keep[node] = kept_choices[depth]
    return restrict(state, keep), witnesses


# ---------------------------------------------------------------------------
# Direction extraction and its consistency checks.

def _observed_directions(
    graph: ProductGraph, order: LinearOrder, i: int, j: int, p: int
) -> set[Direction]:
    """Directions of all child-choice sequences for (level i, length j, pos p)."""
    tree = graph.tree
    degrees = tree.spec.degrees
    out: set[Direction] = set()
    suffix_space = itertools.product(
        *[range(1, degrees[lvl] + 1) for lvl in range(i, j)]
    )
    suffixes = [tuple(s) for s in suffix_space]
    for prefix in tree.nodes_at_depth(i - 1):
        for suffix in suffixes:
            ranks = [
                order.rank(PVertex(NodeIndex(prefix.path + (g,) + suffix), p))
                for g in range(1, degrees[i - 1] + 1)
            ]
            if all(a < b for a, b in zip(ranks, ranks[1:])):
                out.add(Direction.INC)
            elif all(a > b for a, b in zip(ranks, ranks[1:])):
                out.add(Direction.DEC)
            else:
                raise InconsistencyError(
                    f"child sequence at level {i}, length {j}, position {p} "
                    f"under {prefix} is not monotone"
                )
    return out


def extract_direction_table(graph: ProductGraph, order: LinearOrder) -> DirectionTable:
    """Read the per-(level, length, position) direction off the order.

    Every witness sequence for an entry must agree; disagreement (or a
    non-monotone witness) raises InconsistencyError, which signals that
    the lex pass did not actually succeed on this order.
    """
    tree = graph.tree
    if any(d < 2 for d in tree.spec.degrees):
        bad = [lvl for lvl, d in enumerate(tree.spec.degrees) if d < 2]
        raise PreconditionError(
            f"directions need at least two children per level; levels {bad} are thinner"
        )
    entries = {}
    for i in range(1, tree.height + 1):
        for j in range(i, tree.height + 1):
            for p in range(1, graph.path_len + 1):
                dirs = _observed_directions(graph, order, i, j, p)
                if len(dirs) != 1:
                    raise InconsistencyError(
                        f"witnesses disagree at level {i}, length {j}, position {p}"
                    )
                entries[(i, j, p)] = dirs.pop()
    return DirectionTable(tree.height, graph.path_len, entries)


def check_identity_permutation(graph: ProductGraph, order: LinearOrder) -> CheckReport:
    """Verify the first-difference comparison rule on same-depth nodes.

    Two same-depth addresses at one position must compare by their
    first differing child choice, read in the direction the table gives
    that level.  Equivalent to every level's axis permutation being the
    identity.  Violations are reported, not raised.
    """
    tree = graph.tree
    m = graph.path_len
    violations = []
    checked = 0
    cache: dict = {}
    for depth in range(1, tree.height + 1):
        for a, b in itertools.combinations(tree.nodes_at_depth(depth), 2):
            t = next(k for k in range(depth) if a.path[k] != b.path[k])
            for p in range(1, m + 1):
                key = (t + 1, depth, p)
                if key not in cache:
                    try:
                        dirs = _observed_directions(graph, order, *key)
                    except InconsistencyError:
                        dirs = set()
                    cache[key] = dirs
                dirs = cache[key]
                checked += 1
                if len(dirs) != 1:
                    violations.append(("ambiguous-direction",) + key)
                    continue
                (d,) = dirs
                smaller_first = a.path[t] < b.path[t]
                if d is Direction.DEC:
                    smaller_first = not smaller_first
                if order.before(PVertex(a, p), PVertex(b, p)) != smaller_first:
                    violations.append((str(a), str(b), p, d.value))
    return CheckReport(violations, checked)


def check_direction_consistency(table: DirectionTable) -> CheckReport:
    """Check the three cross-level propagation rules of the table.

    (a) equal directions across lengths propagate one level up;
    (b) the same across a length/position diagonal; (c) the same across
    adjacent positions.  Returns every violating triple.
    """
    violations = []
    checked = 0
    n, m = table.height, table.path_len
    get = table.direction
    for k in range(2, n + 1):
        for i in range(k, n + 1):
            for p in range(1, m + 1):
                if i + 1 <= n:
                    checked += 1
                    if get(k, i + 1, p) == get(k, i, p) and get(k - 1, i + 1, p) != get(
                        k - 1, i, p
                    ):
                        violations.append(("vertical", k, i, p))
                if i + 1 <= n and p + 1 <= m:
                    checked += 1
                    if get(k, i + 1, p) == get(k, i, p + 1) and get(
                        k - 1, i + 1, p
                    ) != get(k - 1, i, p + 1):
                        violations.append(("diagonal", k, i, p))
                if p + 1 <= m:
                    checked += 1
                    if get(k, i, p) == get(k, i, p + 1) and get(k - 1, i, p) != get(
                        k - 1, i, p + 1
                    ):
                        violations.append(("horizontal", k, i, p))
    return CheckReport(violations, checked)


def check_related_sequence_families(
    graph: ProductGraph,
    order: LinearOrder,
    coloring: EdgeColoring,
    table: ColorTable,
) -> CheckReport:
    """After the passes, child-choice sequences must pair up as related.

    Three shapes are checked exhaustively: a sequence against its
    extension by one child (vertical pairing edges), against that
    extension at the next position (diagonal), and against itself at
    the next position (horizontal).  Each pair must be related with
    exactly the colour the table prescribes for its pairing edges.
    """
    from .sequences import is_related

    tree = graph.tree
    degrees = tree.spec.degrees
    m = graph.path_len
    violations = []
    checked = 0
    for star in range(1, tree.height + 1):
        for prefix in tree.nodes_at_depth(star - 1):
            for tail_len in range(tree.height - star + 1):
                tails = itertools.product(
                    *[range(1, degrees[lvl] + 1) for lvl in range(star, star + tail_len)]
                )
                for tail in tails:
                    tail = tuple(tail)
                    base = [
                        NodeIndex(prefix.path + (g,) + tail)
                        for g in range(1, degrees[star - 1] + 1)
                    ]
                    depth = star + tail_len

                    def seq(nodes, p):
                        return tuple(PVertex(nd, p) for nd in nodes)

                    if depth < tree.height:
                        for v in range(1, degrees[depth] + 1):
                            extended = [nd.child(v) for nd in base]
                            for p in range(1, m + 1):
                                checked += 1
                                got = is_related(
                                    seq(extended, p), seq(base, p), order, coloring
                                )
                                want = table.color_of(depth + 1, p, EdgeKind.VERTICAL)
                                if got is None or got[1] != want:
                                    violations.append(
                                        ("vertical", str(prefix), tail, v, p)
                                    )
                            for p in range(1, m):
                                checked += 1
                                got = is_related(
                                    seq(extended, p), seq(base, p + 1), order, coloring
                                )
                                want = table.color_of(depth + 1, p, EdgeKind.DIAGONAL)
                                if got is None or got[1] != want:
                                    violations.append(
                                        ("diagonal", str(prefix), tail, v, p)
                                    )
                    for p in range(1, m):
                        checked += 1
                        got = is_related(
                            seq(base, p), seq(base, p + 1), order, coloring
                        )
                        want = table.color_of(depth, p, EdgeKind.HORIZONTAL)
                        if got is None or got[1] != want:
                            violations.append(("horizontal", str(prefix), tail, p))
    return CheckReport(violations, checked)


# ---------------------------------------------------------------------------
# Pipeline.

@dataclass
class PipelineResult:
    graph: ProductGraph
    node_map: dict
    order: LinearOrder
    coloring: EdgeColoring
    color_table: ColorTable
    direction_table: Optional[DirectionTable]
    order_report: CheckReport
    lex_witnesses: dict
    related_report: CheckReport


def run_passes(
    graph: ProductGraph,
    order: LinearOrder,
    coloring: EdgeColoring,
    colour_targets=None,
    order_targets=None,
    lex_targets=None,
) -> PipelineResult:
    """Colour, order and lex passes in sequence, then one verification.

    The passes thread a single PassState and do not check their own
    work.  Every property is verified once, on the final state, which
    is what is returned: the colour table is built (raising on any
    clash), child symmetry is checked exhaustively, and the
    related-sequence check ties both to the table.  The direction table
    is extracted when every surviving level keeps at least two
    children, else left None.
    """
    state = PassState.initial(graph, order, coloring)
    state = pass_colour(state, colour_targets)
    state = pass_order(state, order_targets)
    state, witnesses = pass_lex(state, lex_targets)

    final_graph, final_order, final_coloring = state.graph, state.order, state.coloring
    color_table = ColorTable.from_layout(final_graph, final_coloring)
    order_report = check_child_symmetry(final_graph, final_order)
    related_report = check_related_sequence_families(
        final_graph, final_order, final_coloring, color_table
    )
    if all(d >= 2 for d in final_graph.tree.spec.degrees):
        direction_table = extract_direction_table(final_graph, final_order)
    else:
        direction_table = None
    return PipelineResult(
        final_graph,
        state.node_map,
        final_order,
        final_coloring,
        color_table,
        direction_table,
        order_report,
        witnesses,
        related_report,
    )
