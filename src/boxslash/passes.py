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

The pipeline runs on the integer ids of the `product` docstring.  A
PassState holds a rank per vertex id, a colour per edge id and the
current id of each input node; restrict() maps a pass's choice of
children to the old ids of the new nodes and re-indexes both lists.
Lists are the pipeline's only form between its input and its result:
PassState.initial reads the caller's order and colouring into lists
once, checking coverage there (a vertex the order lacks, or an edge
without a colour, raises before any work), and run_passes builds its
result's objects from the final lists once.
Costs, on n nodes, m positions, height h, E edges: restrict O(nm + E),
O(1) when every child is kept; pass_colour O(E), as each node's profile
is numbered once from its own colours and its kept children's numbers;
pass_order O(h nm log nm), a cone argsort per child and level; pass_lex
O(C) per candidate subarray of C cells, walked in lex-key order and left
at the first descent, over every axis order, sign vector and index set
in turn.  Each check is one kernel over slices of the lists; it builds a
tree only to name what fails, from the indices of the comparisons that
fail.  The colour table reads one slice of the colour list per (kind,
depth, position), O(E); the related families read no colour, as the
table's uniformity is their colour clause.
Child symmetry sorts the spots of each depth's first cone by rank and
compares, per pair of consecutive spots, the two rank-list slices that
hold every node's copy, O(nm log nm) per depth.  The related families
and the direction entries compare whole depth blocks of the rank list,
each block at one position, O(h) passes per block, O(h nm) in all;
naming what fails takes O(h nm) more.

The colour and order passes bucket the children of every node by a
positional profile of the child's whole cone, keep the largest bucket
(ties broken by the lexicographically smallest child set), and truncate
to the requested target.  They run bottom-up so a profile always
describes an already thinned cone.  The lex pass cuts each level to
the index sets of lex-monotone witnesses.  Quantitative survival
guarantees are out of scope; a level that cannot meet its target
raises PassStarvation instead.

The passes do not verify their own output.  run_passes checks every
property once, on the final state it returns.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .errors import InconsistencyError, PassStarvation, integer
from .layout import EdgeColoring, LinearOrder
from .product import (EdgeKind, ProductGraph, _name, boxslash_product, build_tree, edge_runs,
                      level_starts, restrict_ids)
from .sequences import Direction, single_direction, step_bits


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

    @classmethod
    def from_colors(cls, degrees, path_len: int, colors: list) -> "ColorTable":
        """Build the table from a colour per edge id; every edge must agree.

        An edge's signature is (the deeper end's depth, the smaller
        position, its kind), and the edges of one signature are one slice
        of the colour list: one kind, the nodes of one depth, one
        position.  A clash names the first edge, by id, whose colour
        differs from its signature's first, the signature keyed as in
        `to_json`.
        """
        m, starts = path_len, level_starts(degrees)
        entries: dict[tuple[int, int, EdgeKind], int] = {}
        clashes = []
        for kind, (first, width) in zip(EdgeKind, edge_runs(starts[-1], m)):
            top = 0 if kind is EdgeKind.HORIZONTAL else 1
            for depth in range(top, len(degrees) + 1):
                lo, hi = first + starts[depth] * width, first + starts[depth + 1] * width
                for p in range(1, width + 1):
                    run = colors[lo + p - 1 : hi + p - 1 : width]
                    entries[(depth, p, kind)] = run[0]
                    if run.count(run[0]) != len(run):
                        at = next(t for t, c in enumerate(run) if c != run[0])
                        clashes.append((lo + p - 1 + at * width, f"{depth},{p},{kind.value}", run[0]))
        if clashes:
            e, sig, c = min(clashes)  # edge ids differ, so the first edge wins
            raise InconsistencyError(f"edges with signature {sig} use colours {c} and {colors[e]}")
        return cls(entries)

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
        self.height = height = integer(height, "height", 1)
        self.path_len = path_len = integer(path_len, "path_len", 1)
        self.entries = dict(entries)
        expected = {(i, j, p) for i in range(1, height + 1) for j in range(i, height + 1)
                    for p in range(1, path_len + 1)}
        if set(self.entries) != expected:
            missing, extra = sorted(expected - set(self.entries)), sorted(set(self.entries) - expected)
            raise ValueError(f"direction table domain mismatch: missing {missing[:4]}, extra {extra[:4]}")
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


# ---------------------------------------------------------------------------
# Lex-monotone subarrays.

@dataclass(frozen=True)
class LexMonotoneWitness:
    """Axis permutation, per-axis signs, and kept index sets per axis."""

    sigma: tuple[int, ...]
    signs: tuple[Direction, ...]
    index_sets: tuple[tuple[int, ...], ...]


def _rises(values: list, offsets: list) -> bool:
    """Values strictly rise along the walk over the product of the
    per-axis offset lists, the last axis fastest; the walk stops at the
    first step that does not rise."""
    *outer, inner = offsets
    prev = -math.inf
    for base in map(sum, itertools.product(*outer)):
        for o in inner:
            value = values[base + o]
            if value <= prev:
                return False
            prev = value
    return True


def _search_lex(
    dims: tuple[int, ...], values: list, targets: tuple[int, ...]
) -> Optional[LexMonotoneWitness]:
    """The first lex-monotone subarray of targets[k] indices per axis k of
    the array whose cells, in row-major order, hold the distinct numbers
    ``values``: axis orders, then sign vectors (all INC first), then index
    sets, each in itertools order.  A candidate is lex-monotone when its
    values rise along its cells in lex-key order: axes taken in sigma
    order, each read backwards on DEC."""
    axes = range(len(dims))
    steps = [math.prod(dims[k + 1:]) for k in axes]
    for sigma in itertools.permutations(axes):
        for signs in itertools.product((Direction.INC, Direction.DEC), repeat=len(dims)):
            for index_sets in itertools.product(
                *[itertools.combinations(range(dims[k]), targets[k]) for k in axes]
            ):
                offsets = [[i * steps[k] for i in index_sets[k]] for k in sigma]
                for offs, k in zip(offsets, sigma):
                    if signs[k] is Direction.DEC:
                        offs.reverse()
                if _rises(values, offsets):
                    return LexMonotoneWitness(tuple(sigma), tuple(signs), tuple(index_sets))
    return None


# ---------------------------------------------------------------------------
# Pass scaffolding.

def _resolve_targets(targets, height: int, stage: str) -> list:
    """Per-level targets: None keeps as many children as possible, one
    positive int serves every level, or a list gives one per level."""
    if targets is None or isinstance(targets, str) or not isinstance(targets, Iterable):
        levels = [targets] * height
    else:
        levels = list(targets)
    if len(levels) != height:
        raise ValueError(f"need {height} per-level targets, got {len(levels)}")
    return [None if t is None else integer(t, f"{stage} pass: level {depth} target", 1)
            for depth, t in enumerate(levels)]


def _prune_by_profiles(degrees, profile: Callable, levels: list, stage: str) -> dict:
    """Bottom-up bucket-and-truncate shared by the colour and order passes:
    the kept child numbers per node id.  profile(x, depth, keep) must
    describe the cone of node x positionally, so that equal profiles
    mean interchangeable children."""
    starts = level_starts(degrees)
    keep: dict[int, tuple[int, ...]] = {}
    for depth in range(len(degrees) - 1, -1, -1):
        d = degrees[depth]
        chosen = []
        for first in range(starts[depth + 1], starts[depth + 2], d):
            buckets: dict = {}
            for c in range(1, d + 1):
                buckets.setdefault(profile(first + c - 1, depth + 1, keep), []).append(c)
            size = max(map(len, buckets.values()))
            chosen.append(min(b for b in buckets.values() if len(b) == size))
        available = min(map(len, chosen))
        wanted = available if levels[depth] is None else levels[depth]
        if wanted > available:
            raise PassStarvation(stage, depth, available, wanted)
        for x, best in enumerate(chosen, start=starts[depth]):
            keep[x] = tuple(best[:wanted])
    return keep


def _cone(x: int, depth: int, keep: Mapping, degrees, starts: list) -> list[int]:
    """Kept cone of node x at that depth, breadth first (unlisted: all)."""
    cone, level = [x], [x]
    for k in range(depth, len(degrees)):
        d, full = degrees[k], range(1, degrees[k] + 1)
        shift = starts[k + 1] - starts[k] * d - 1
        level = [shift + y * d + c for y in level for c in keep.get(y, full)]
        cone += level
    return cone


@dataclass(frozen=True, eq=False)
class PassState:
    """Where the thinning pipeline stands: the product's ``degrees`` and
    ``path_len``, a rank per vertex id (any increasing numbers), a
    colour per edge id, and the current id of every node of the input
    tree (-1 once pruned).  Lists are never changed in place, as the
    colour list may be the input colouring's own.
    """

    degrees: tuple[int, ...]
    path_len: int
    ranks: list
    colors: list
    node_ids: list

    @classmethod
    def initial(cls, graph: ProductGraph, order: LinearOrder, coloring: EdgeColoring) -> PassState:
        return cls(graph.tree.spec.degrees, graph.path_len, order.ranks_of(graph.vertices),
                   coloring.colors_of(graph.edges), list(range(len(graph.tree))))


def restrict(state: PassState, keep: Mapping[int, Iterable[int]]) -> PassState:
    """Keep the given children (see restrict_ids) and carry the layout over.

    The rank and colour lists are re-indexed through the old ids of the
    new nodes, and the node ids are composed with the renumbering.  When
    every child is kept, the state itself is returned.
    """
    degrees, old = restrict_ids(state.degrees, keep)
    m, n_old = state.path_len, len(state.ranks) // state.path_len
    if len(old) == n_old:
        return state
    vertex_ids = [x + t for t in range(0, m * n_old, n_old) for x in old]
    ranks = list(map(state.ranks.__getitem__, vertex_ids))
    edge_ids = [first + x * width + i
                for (first, width), nodes in zip(edge_runs(n_old, m), (old[1:], old, old[1:]))
                for x in nodes for i in range(width)]
    colors = list(map(state.colors.__getitem__, edge_ids))
    new_id = dict(zip(old, range(len(old))))
    node_ids = [new_id.get(x, -1) for x in state.node_ids]
    return PassState(degrees, m, ranks, colors, node_ids)


# ---------------------------------------------------------------------------
# The colour pass.

def pass_colour(state: PassState, targets=None) -> PassState:
    """Thin the tree until edge colour is a function of (depth, pos, kind).

    A child's profile is the colour of every edge in its kept cone plus
    the edges joining the child to its parent, keyed by positional
    address, so equal profiles mean positionally identical colourings.
    Each node's profile is numbered once: its own horizontal, vertical
    and diagonal colours followed by the numbers of its kept children.
    """
    degrees, m, colors = state.degrees, state.path_len, state.colors
    levels = _resolve_targets(targets, len(degrees), "colour")
    starts = level_starts(degrees)
    vertical, horizontal, diagonal = edge_runs(starts[-1], m)
    numbers, number_of = {}, {}  # profile -> number, node id -> its profile's number

    def profile(x: int, depth: int, keep) -> int:
        key = [c for first, width in (horizontal, vertical, diagonal)
               for c in colors[first + x * width : first + (x + 1) * width]]
        if depth < len(degrees):
            first = starts[depth + 1] + (x - starts[depth]) * degrees[depth] - 1
            key += [number_of[first + c] for c in keep[x]]
        number_of[x] = numbers.setdefault(tuple(key), len(numbers))
        return number_of[x]

    return restrict(state, _prune_by_profiles(degrees, profile, levels, "colour"))


# ---------------------------------------------------------------------------
# The order pass.

def check_child_symmetry(degrees, path_len: int, ranks: list) -> CheckReport:
    """Exhaustively verify that comparisons transfer between same-depth nodes,
    on a rank per vertex id of the product of ``degrees`` and ``path_len``.

    A spot (x, i) is a descendant suffix x (child choices, possibly
    empty) at path position i.  For every two same-depth nodes a, b and
    every two spots, the order must compare a.x@i with a.y@j the way it
    compares b.x@i with b.y@j.  Ranks within a cone are distinct, so all
    these comparisons agree exactly when a and b have the same rank
    pattern over their full cones (the profile pass_order buckets by);
    equality being transitive, each node's pattern is compared with the
    first node's of its depth.

    The t-th node's copy of the first node's cone member c of depth k is
    c + t * step, step being the product of the degrees between, so one
    spot of every node of the depth is one slice of the rank list.  Taking
    the first node's spots in rank order, node t fails exactly where its
    entry of a slice is not below its entry of the next.

    ``checked`` counts the pairwise conditions this decides: per depth,
    C(nodes, 2) * C(spots, 2).  Each failing node b is reported once, as
    (a, b, x, i, y, j), a the first node of its depth: of the spots in
    cone order (nodes breadth first, positions 1..m), the first whose
    place in the two patterns differs and the first that the two order
    differently against it, the earlier first.  The tree that names them
    is built on the first one.
    """
    starts, m = level_starts(degrees), path_len
    n, checked, violations, nodes = starts[-1], 0, [], None
    for depth in range(1, len(degrees) + 1):
        count, step_of = starts[depth + 1] - starts[depth], {}
        for k in range(depth, len(degrees) + 1):  # the first node's cone, member id -> its step
            step = math.prod(degrees[depth:k])
            step_of.update(dict.fromkeys(range(starts[k], starts[k] + step), step))
        checked += math.comb(count, 2) * math.comb(len(step_of) * m, 2)
        if count < 2:
            continue
        failing, below = set(), None
        for v in sorted((o + x for o in range(0, m * n, n) for x in step_of), key=ranks.__getitem__):
            step = step_of[v % n]
            spot = ranks[v : v + count * step : step]
            if below is not None and not all(map(operator.lt, below, spot)):
                failing.update(itertools.compress(itertools.count(), map(operator.ge, below, spot)))
            below = spot
        for t in sorted(failing):
            a, b = ([ranks[o + x + u * step] for x, step in step_of.items() for o in range(0, m * n, n)]
                    for u in (0, t))
            place_a, place_b = (dict(zip(sorted(values), itertools.count())) for values in (a, b))
            k = next(s for s, (x, y) in enumerate(zip(a, b)) if place_a[x] != place_b[y])
            other = next(s for s, (x, y) in enumerate(zip(a, b)) if (x < a[k]) != (y < b[k]))
            nodes = nodes or build_tree(degrees).nodes
            (x, i), (y, j) = ((nodes[[*step_of][s // m]].path[depth:], s % m + 1) for s in sorted((k, other)))
            violations.append((str(nodes[starts[depth]]), str(nodes[starts[depth] + t]), x, i, y, j))
    return CheckReport(violations, checked)


def pass_order(state: PassState, targets=None) -> PassState:
    """Thin the tree until sibling cones are order-isomorphic.

    A child's profile is the argsort of its cone's ranks in canonical
    positional enumeration, equal exactly when their rank patterns are.
    """
    degrees, ranks = state.degrees, state.ranks
    levels = _resolve_targets(targets, len(degrees), "order")
    starts = level_starts(degrees)
    n = starts[-1]

    def profile(x: int, depth: int, keep) -> tuple:
        values = [r for y in _cone(x, depth, keep, degrees, starts) for r in ranks[y::n]]
        return tuple(sorted(range(len(values)), key=values.__getitem__))

    return restrict(state, _prune_by_profiles(degrees, profile, levels, "order"))


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
    degrees, m, ranks = state.degrees, state.path_len, state.ranks
    height, starts = len(degrees), level_starts(degrees)
    levels = _resolve_targets(targets, height, "lex")
    kept_choices: list[tuple[int, ...]] = [tuple(range(1, d + 1)) for d in degrees]
    witnesses: dict = {}
    for level in range(1, height + 1):
        for p in range(1, m + 1):
            axes = kept_choices[:level]
            dims = tuple(len(a) for a in axes)
            goal = tuple(d if t is None else min(t, d) for d, t in zip(dims, levels))
            # Level indices of the array's nodes, cells in product order.
            index = [0]
            for d, axis in zip(degrees, axes):
                index = [i * d + c - 1 for i in index for c in axis]
            base = (p - 1) * starts[-1] + starts[level]
            witness = _search_lex(dims, [ranks[base + i] for i in index], goal)
            if witness is None:
                raise PassStarvation("lex", (level, p), dims, goal)
            witnesses[(level, p)] = witness
            kept_choices[:level] = [
                tuple(axis[t] for t in kept) for axis, kept in zip(axes, witness.index_sets)
            ]
    keep = {x: kept_choices[depth] for depth in range(height)
            for x in range(starts[depth], starts[depth + 1])}
    return restrict(state, keep), witnesses


# ---------------------------------------------------------------------------
# Direction extraction and its consistency checks.

def _mixed(values: list, d: int, stride: int) -> set[int]:
    """The sequences q = b * stride + s, of entries (b * d + c) * stride + s
    for c < d, whose entries of ``values`` are not all equal."""
    within = ([True] * (stride * (d - 1)) + [False] * stride) * (len(values) // (d * stride))
    differ = map(operator.and_, within, map(operator.ne, values, values[stride:]))
    return {x // (d * stride) * stride + x % stride for x in itertools.compress(itertools.count(), differ)}


def _directions(degrees, m: int, ranks: list) -> tuple[dict, list]:
    """Per (level i, length j), the directions of the child-choice
    sequences at each position, (bits, bent), and the depth blocks read,
    blocks[j][p - 1].  A sequence varies the level-i choice of a depth-j
    address, stepping its node id by ``stride``, the number of choice
    combinations below level i: sequence q = b * stride + s starts at the
    s-th node under the b-th node of depth i - 1, as `_mixed` lays out.
    ``bits``, `step_bits` of all their steps, is nonzero exactly when they
    all run one way; ``bent`` holds the sequences not monotone.
    """
    height, starts = len(degrees), level_starts(degrees)
    n, observed = starts[-1], {}
    blocks = [[ranks[o + starts[j] : o + starts[j + 1]] for o in range(0, m * n, n)] for j in range(height + 1)]
    for i in range(1, height + 1):
        d = degrees[i - 1]
        for j in range(i, height + 1):
            stride = math.prod(degrees[i:j])
            within = ([True] * (stride * (d - 1)) + [False] * stride) * ((starts[j + 1] - starts[j]) // (d * stride))
            observed[i, j] = []
            for block in blocks[j]:
                bits = step_bits(set(itertools.compress(map(operator.lt, block, block[stride:]), within)))
                bent = () if bits else _mixed(
                    list(itertools.compress(map(operator.lt, block, block[stride:]), within)), d - 1, stride)
                observed[i, j].append((bits, bent))
    return observed, blocks


def _direction_table(degrees, m: int, observed: dict) -> DirectionTable:
    """The per-(level, length, position) direction, from `_directions`.

    Every sequence of an entry must run the one way; a sequence that is
    not monotone (the first is named), or two that disagree, raise
    InconsistencyError, which signals that the lex pass did not actually
    succeed on this order.
    """
    starts, entries = level_starts(degrees), {}
    for (i, j), at_p in observed.items():
        for p, (bits, bent) in enumerate(at_p, start=1):
            if bent:
                under = min(bent) // math.prod(degrees[i:j])
                raise InconsistencyError(
                    f"child sequence at level {i}, length {j}, position {p} "
                    f"under {_name(degrees, starts[i - 1] + under)} is not monotone"
                )
            direction = single_direction(bits)
            if direction is None:
                raise InconsistencyError(f"witnesses disagree at level {i}, length {j}, position {p}")
            entries[(i, j, p)] = direction
    return DirectionTable(len(degrees), m, entries)


def check_direction_consistency(table: DirectionTable) -> CheckReport:
    """Check the three cross-level propagation rules of the table.

    (a) equal directions across lengths propagate one level up;
    (b) the same across a length/position diagonal; (c) the same across
    adjacent positions.  Returns every violating triple.

    On the grids of `hexgrid.direction_layer`: a boundary edge of layer
    k - 1 below row 1 stays one row up in layer k.  Violation (kind, k,
    i, p) is the layer-(k - 1) edge at row r = i - k + 2: vertical
    (r + 1, p)-(r, p), horizontal (r, p)-(r, p + 1), diagonal
    (r + 1, p)-(r, p + 1).
    """
    violations, checked = [], 0
    n, m = table.height, table.path_len
    get = table.direction
    for k in range(2, n + 1):
        for i in range(k, n + 1):
            for p in range(1, m + 1):
                # Each rule compares entries (i + di, p) and (i, p + dp) of levels k and k - 1.
                for kind, di, dp in (("vertical", 1, 0), ("diagonal", 1, 1), ("horizontal", 0, 1)):
                    if i + di <= n and p + dp <= m:
                        checked += 1
                        x, y = (i + di, p), (i, p + dp)
                        if get(k, *x) == get(k, *y) and get(k - 1, *x) != get(k - 1, *y):
                            violations.append((kind, k, i, p))
    return CheckReport(violations, checked)


def _related_families(degrees, m: int, observed: dict, blocks: list) -> CheckReport:
    """After the passes, child-choice sequences must pair up as related.

    Two sequences of equal length, paired position by position, are
    related when both are monotone, every pairing edge has the one
    colour, and every pair lies on the same side: the first sequence's
    vertex is below the second's throughout, or above it throughout.
    The paper calls a related pair bundled when the two run the same way
    and rainbow when they run opposite ways; no check here needs that.

    Three shapes are checked exhaustively: a sequence against its
    extension by one child (vertical pairing edges), against that
    extension at the next position (diagonal), and against itself at
    the next position (horizontal).  A shape's pairing edges at one
    position share a signature, so the colour clause is the colour
    table's, decided before this check runs: it reads no colour.

    The sides compare depth blocks of `_directions`, the ranks of depth
    j's nodes at one position: for the horizontal shape, the block at p
    against the block at p + 1; for the others with child v, the v-th
    child of every node, at p, against the block at p and at p + 1.  The
    levels' sequences link every two nodes of depth j, so on passing
    lists the answer is one for the whole block.  A failing pair is read
    off the sequences not monotone (``observed``) and those whose answers
    differ (`_mixed`), and named by its prefix (the node of depth i - 1),
    its tail of child choices, its child v and its position, in the naive
    check's order; the tree that names them is built on the first one.
    """
    height, starts = len(degrees), level_starts(degrees)
    shapes = (EdgeKind.VERTICAL, EdgeKind.DIAGONAL, EdgeKind.HORIZONTAL)  # in the order a sequence's pairs are named
    bent = any(map(operator.itemgetter(1), itertools.chain.from_iterable(observed.values())))
    failing = set()  # (level, prefix, depth, tail, horizontal, child, shape, position) of each failing pair
    for j in range(1, height + 1):
        for p, block in enumerate(blocks[j]):
            # (the first sequence's ranks, the base's, shape, child, the first's depth and its degree)
            pairs = [(block, blocks[j][p + 1], 2, 1, j, 1)] if p + 1 < m else []
            if j < height:
                g = degrees[j]
                pairs += [(blocks[j + 1][p][v::g], blocks[j][p + up], shape, v + 1, j + 1, g)
                          for shape, up in ((0, 0), (1, 1)) if p + up < m for v in range(g)]
            if not (bent or any(len(set(map(operator.lt, a, b))) != 1 for a, b, _, _, _, _ in pairs)):
                continue
            for a, b, shape, v, row, g in pairs:
                answers = list(map(operator.lt, a, b))
                mixed = len(set(answers)) != 1
                for i in range(1, j + 1):
                    d, stride = degrees[i - 1], math.prod(degrees[i:j])
                    seqs = _mixed(answers, d, stride) if mixed else set()
                    seqs.update(observed[i, j][p + (shape > 0)][1])  # the base, at p only when vertical
                    seqs.update(q // g for q in observed[i, row][p][1] if q % g == v - 1)
                    failing.update((i, q // stride, j, q % stride, shape == 2, v, shape, p + 1) for q in seqs)
    nodes = build_tree(degrees).nodes if failing else None
    violations = []
    for i, b, j, s, horizontal, v, shape, p in sorted(failing):
        tail = nodes[starts[j] + (b * degrees[i - 1] * math.prod(degrees[i:j])) + s].path[i:]
        violations.append((shapes[shape].value, str(nodes[starts[i - 1] + b]), tail, *(() if horizontal else (v,)), p))
    # Level i has (nodes of depth j) / degrees[i - 1] sequences of length j, each in
    # degrees[j] * (2m - 1) vertical and diagonal pairs (below the last depth) and m - 1 horizontal.
    checked = sum((starts[j + 1] - starts[j]) // degrees[i - 1]
                  * ((degrees[j] * (2 * m - 1) if j < height else 0) + m - 1)
                  for i in range(1, height + 1) for j in range(i, height + 1))
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

    All three target sets are checked before any work.  The passes
    thread a single PassState and do not check their own work.  Every
    property is verified once, on the final state's lists: the colour
    table is built (raising on any clash, which also decides the related
    pairs' colour clause), child symmetry is checked exhaustively, and
    `_directions` reads the bits of every child-choice sequence once.
    The related-sequence check (`_related_families`) reads them, and,
    when every surviving level keeps at least two children, so does the
    direction table (`_direction_table`, which raises
    InconsistencyError on a sequence that is not monotone or an entry
    whose sequences disagree), else left None.  The checks compare ranks
    only within a cone or a sequence, so the state's sparse ranks serve
    as they are.  The result's graph is the input graph when nothing was
    pruned; its order, colouring and node map are built from the lists,
    the colouring with the input colouring's k.
    """
    stages = {"colour": colour_targets, "order": order_targets, "lex": lex_targets}
    for stage, targets in stages.items():
        _resolve_targets(targets, len(graph.tree.spec.degrees), stage)
    state = PassState.initial(graph, order, coloring)
    state = pass_colour(state, colour_targets)
    state = pass_order(state, order_targets)
    state, witnesses = pass_lex(state, lex_targets)

    degrees, m, ranks, colors = state.degrees, state.path_len, state.ranks, state.colors
    color_table = ColorTable.from_colors(degrees, m, colors)
    order_report = check_child_symmetry(degrees, m, ranks)
    observed, blocks = _directions(degrees, m, ranks)
    related_report = _related_families(degrees, m, observed, blocks)
    direction_table = _direction_table(degrees, m, observed) if all(d >= 2 for d in degrees) else None
    final = graph if degrees == graph.tree.spec.degrees else boxslash_product(degrees, m)
    nodes = final.tree.nodes
    node_map = {old: nodes[x] for old, x in zip(graph.tree.nodes, state.node_ids) if x >= 0}
    return PipelineResult(final, node_map, LinearOrder.from_ranks(final.vertices, ranks),
                          EdgeColoring.from_lists(final.edges, colors, coloring.k), color_table,
                          direction_table, order_report, witnesses, related_report)
