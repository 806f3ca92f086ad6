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
result's objects from the final lists once.  The checks read lists too,
and build a tree only to name what fails.
Costs, on n nodes, m positions, height h, E edges: restrict O(nm + E),
O(1) when every child is kept; pass_colour O(E), as each node's profile
is numbered once from its own colours and its kept children's numbers;
pass_order O(h nm log nm), a cone argsort per child and level;
pass_lex O(C) per candidate subarray of C cells, walked in lex-key order
and left at the first descent, over every axis order, sign vector and
index set in turn.  The checks run on the lists too, and decide their
verdicts in whole-list passes; what fails is listed only when a check
does.  The colour table reads one slice of the colour list per (kind,
depth, position), O(E), and so do the related families' pairing edges.
Child symmetry sorts the spots of each depth's first cone by rank and
compares, per pair of consecutive spots, the two rank-list slices that
hold every node's copy, O(nm log nm) per depth.  The related families
and the direction entries compare whole depth blocks of the rank list,
each block at one position, O(h) passes per block, O(h nm) in all.
Listing reads every child-choice sequence as one slice of the rank list
and its directions once per position, O(h nm) sequence entries, a level
at a time; each pair is tested from those, and the direction table
reads the bits the listing read.

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

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .errors import InconsistencyError, PassStarvation, integer
from .layout import EdgeColoring, LinearOrder
from .product import (EdgeKind, ProductGraph, _name, boxslash_product, build_tree, edge_runs,
                      level_starts, restrict_ids)
from .sequences import Direction, direction_bits, single_direction, step_bits


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
        differs from its signature's first.
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
                        clashes.append((lo + p - 1 + at * width, (depth, p, kind), run[0]))
        if clashes:
            e, sig, c = min(clashes)  # edge ids differ, so the first edge wins
            raise InconsistencyError(f"edges with signature {sig} use colours {c} and {colors[e]}")
        return cls(entries)

    def color_of(self, depth: int, pos: int, kind: EdgeKind) -> int:
        try:
            return self.entries[(depth, pos, kind)]
        except KeyError:
            raise ValueError(f"no table entry for {(depth, pos, kind)}") from None

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

def _cone_pattern(cone: list[int], ranks: list, n: int) -> tuple[int, ...]:
    """Rank pattern of a cone's vertices, nodes in cone order, positions 1..m."""
    values = [r for x in cone for r in ranks[x::n]]
    by_rank = {r: i for i, r in enumerate(sorted(values))}
    return tuple(by_rank[r] for r in values)


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

    ``checked`` counts the pairwise conditions this decides: per depth,
    C(nodes, 2) * C(spots, 2).  The verdict is decided whole, over
    slices of the rank list (`_symmetry_decided`); only when it fails
    are the nodes listed (`_symmetry_listed`).  Each node b whose
    pattern differs from the first node a's is reported once, as
    (a, b, x, i, y, j) for the spots (x, i) before (y, j) of a pair the
    two order differently; the tree that names them is built on the
    first one.
    """
    return _symmetry_decided(degrees, path_len, ranks) or _symmetry_listed(degrees, path_len, ranks)


def _symmetry_decided(degrees, m: int, ranks: list) -> Optional[CheckReport]:
    """check_child_symmetry's report when every node of every depth has
    the first node's pattern, else None.  The copy of the first node's
    cone member c of depth k under the t-th node of its depth is
    c + t * step, step being the product of the degrees between, so one
    spot of every node of the depth is one slice of the rank list.  The
    patterns agree exactly when, taking the first node's spots in rank
    order, every slice lies wholly below the next."""
    starts, height = level_starts(degrees), len(degrees)
    n, checked = starts[-1], 0
    for depth in range(1, height + 1):
        count, step_of = starts[depth + 1] - starts[depth], {}
        for k in range(depth, height + 1):  # the first node's cone, member id -> its step
            step = math.prod(degrees[depth:k])
            step_of.update(dict.fromkeys(range(starts[k], starts[k] + step), step))
        checked += math.comb(count, 2) * math.comb(len(step_of) * m, 2)
        if count < 2:
            continue
        below = None
        for v in sorted((o + x for o in range(0, m * n, n) for x in step_of), key=ranks.__getitem__):
            step = step_of[v % n]
            spot = ranks[v : v + count * step : step]
            if below is not None and not all(map(operator.lt, below, spot)):
                return None
            below = spot
    return CheckReport([], checked)


def _symmetry_listed(degrees, m: int, ranks: list) -> CheckReport:
    """check_child_symmetry's report, node by node against the first of its depth."""
    starts = level_starts(degrees)
    violations, checked, nodes = [], 0, None
    for depth in range(1, len(degrees) + 1):
        first, end = starts[depth], starts[depth + 1]
        cone = _cone(first, depth, {}, degrees, starts)
        checked += math.comb(end - first, 2) * math.comb(len(cone) * m, 2)
        want = _cone_pattern(cone, ranks, starts[-1])
        for node in range(first + 1, end):
            got = _cone_pattern(_cone(node, depth, {}, degrees, starts), ranks, starts[-1])
            if got == want:
                continue
            nodes = nodes or build_tree(degrees).nodes
            spots = range(len(want))
            k = next(s for s in spots if want[s] != got[s])
            other = next(s for s in spots if (want[s] < want[k]) != (got[s] < got[k]))
            (x, i), (y, j) = (
                (nodes[cone[s // m]].path[depth:], s % m + 1) for s in sorted((k, other))
            )
            violations.append((str(nodes[first]), str(nodes[node]), x, i, y, j))
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

def _sequence_families(degrees, m: int, ranks: list):
    """Every child-choice sequence, listed once for all the checks.  Per
    level i it yields a dict from each length j to the rank lists
    seqs[p - 1][q] and their direction bits bits[p - 1][q], 0 for one
    not monotone; one level's rank lists are held at a time.  Varying
    the level-i choice of a depth-j node steps its id by ``stride``, the
    number of choice combinations below level i, so sequence
    q = b * stride + s starts at the s-th node under the b-th node of
    depth i - 1."""
    starts = level_starts(degrees)
    n = starts[-1]
    for i in range(1, len(degrees) + 1):
        family = {}
        for j in range(i, len(degrees) + 1):
            stride = math.prod(degrees[i:j])
            step = degrees[i - 1] * stride
            firsts = [x for block in range(starts[j], starts[j + 1], step)
                      for x in range(block, block + stride)]
            seqs = [[ranks[o + x : o + x + step : stride] for x in firsts] for o in range(0, m * n, n)]
            family[j] = seqs, [list(map(direction_bits, at_p)) for at_p in seqs]
        yield family


def _direction_table(degrees, m: int, observed: dict) -> DirectionTable:
    """The per-(level, length, position) direction, from direction bits
    by (level, length): per position, those of every child-choice
    sequence, or one bit set for all of them.

    Every sequence of an entry must run the one way; a sequence that is
    not monotone, or two that disagree, raise InconsistencyError, which
    signals that the lex pass did not actually succeed on this order.
    """
    starts, entries = level_starts(degrees), {}
    for (i, j), bits_by_p in observed.items():
        for p, bits in enumerate(bits_by_p, start=1):
            if 0 in bits:
                under = bits.index(0) // math.prod(degrees[i:j])
                raise InconsistencyError(
                    f"child sequence at level {i}, length {j}, position {p} "
                    f"under {_name(degrees, starts[i - 1] + under)} is not monotone"
                )
            direction = single_direction(functools.reduce(operator.or_, set(bits)))
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


def _related_families(degrees, m: int, ranks: list, colors: list,
                      table: ColorTable) -> tuple[CheckReport, dict]:
    """After the passes, child-choice sequences must pair up as related.

    Two sequences of equal length, paired position by position, are
    related when both are monotone (`sequences.direction_bits` is
    nonzero), every pairing edge has the one colour, and every pair lies
    on the same side: the first sequence's vertex is below the second's
    throughout, or above it throughout.  The paper calls a related pair
    bundled when the two run the same way and rainbow when they run
    opposite ways; no check here needs that distinction.

    Three shapes are checked exhaustively: a sequence against its
    extension by one child (vertical pairing edges), against that
    extension at the next position (diagonal), and against itself at
    the next position (horizontal).  Each pair must be related with
    exactly the colour the table prescribes for its pairing edges.

    The verdict is decided whole, in passes over the rank list's depth
    blocks (`_related_decided`), which also demand that the sequences
    of every (level, length, position) run one way, as the direction
    table does.  Only when that fails are the sequences listed one by
    one (`_related_listed`).  Returns the report and the direction bits
    read, by (level, length): per position, one bit set for the whole
    entry when decided, or those of every sequence when listed.
    """
    # The table colour of each (kind, row) per position, in the order the checks first read them.
    height, wants = len(degrees), {}
    for depth in range(1, height + 1):
        for kind, row, end in ((EdgeKind.VERTICAL, depth + 1, m + 1), (EdgeKind.DIAGONAL, depth + 1, m),
                               (EdgeKind.HORIZONTAL, depth, m)):
            if row <= height:
                wants[kind, row] = [table.color_of(row, p, kind) for p in range(1, end)]
    return (_related_decided(degrees, m, ranks, colors, wants)
            or _related_listed(degrees, m, colors, wants, _sequence_families(degrees, m, ranks)))


def _related_decided(degrees, m: int, ranks: list, colors: list,
                     wants: dict) -> Optional[tuple[CheckReport, dict]]:
    """_related_families's result when no pair fails and the sequences
    of every (level, length, position) entry run one way, else None.

    The pairing edges of a (kind, row, position) are one slice of the
    colour list, which must hold the table's colour only.  Every rank
    test is one pass over whole depth blocks, the ranks of the nodes of
    depth j at one position.  Level i's sequences there step by
    ``stride`` through runs of degrees[i - 1] * stride ids, so they all
    rise exactly when each rank within a run is below the one a stride
    on; likewise they all fall.  The pairs of a shape lie on one side
    exactly when comparing its two lists gives one answer along every
    sequence.  Every level's sequences are checked, and between them
    they link every two nodes of a depth, so that answer must be one
    for the whole block: for the horizontal shape, the block at p
    against the block at p + 1; for the vertical and diagonal shapes
    with child v, the v-th child of every node, at p, against the block
    at p and at p + 1.
    """
    height, starts = len(degrees), level_starts(degrees)
    n = starts[-1]
    runs = dict(zip(EdgeKind, edge_runs(n, m)))
    for (kind, row), want in wants.items():
        first, width = runs[kind]
        lo, hi = first + starts[row] * width, first + starts[row + 1] * width
        for p, colour in enumerate(want):
            edges = colors[lo + p : hi + p : width]
            if edges.count(colour) != len(edges):
                return None
    blocks = [[ranks[o + starts[j] : o + starts[j + 1]] for o in range(0, m * n, n)]
              for j in range(height + 1)]
    observed = {}
    for i in range(1, height + 1):
        d = degrees[i - 1]
        for j in range(i, height + 1):
            stride = math.prod(degrees[i:j])
            within = ([True] * (stride * (d - 1)) + [False] * stride) * (len(blocks[j][0]) // (d * stride))
            observed[i, j] = []
            for block in blocks[j]:
                bits = step_bits(set(itertools.compress(map(operator.lt, block, block[stride:]), within)))
                if not bits:
                    return None
                observed[i, j].append([bits])
    for j in range(1, height + 1):
        for p, block in enumerate(blocks[j]):
            pairs = [(block, blocks[j][p + 1])] if p + 1 < m else []
            if j < height:
                g = degrees[j]
                pairs += [(blocks[j + 1][p][v::g], base) for base in blocks[j][p:p + 2] for v in range(g)]
            if any(len(set(map(operator.lt, a, b))) != 1 for a, b in pairs):
                return None
    # Level i has (nodes of depth j) / degrees[i - 1] sequences of length j, each in
    # degrees[j] * (2m - 1) vertical and diagonal pairs (below the last depth) and m - 1 horizontal.
    checked = sum((starts[j + 1] - starts[j]) // degrees[i - 1]
                  * ((degrees[j] * (2 * m - 1) if j < height else 0) + m - 1)
                  for i in range(1, height + 1) for j in range(i, height + 1))
    return CheckReport([], checked), observed


def _related_listed(degrees, m: int, colors: list, wants: dict, families) -> tuple[CheckReport, dict]:
    """_related_families's result, sequence by sequence.

    The sequences are the `_sequence_families` of the rank list, so each
    one read is a slice of it, and its pairing edges are a slice of
    ``colors``, the colour list; the tree that names a violation's prefix
    is built on the first one.
    The extension by child v of sequence q at depth j is sequence
    q * degrees[j] + v - 1 at depth j + 1, so each sequence's directions
    are computed once per position.
    """
    height, starts, nodes = len(degrees), level_starts(degrees), None
    vertical, horizontal, diagonal = ((k, *run) for k, run in zip(EdgeKind, edge_runs(starts[-1], m)))
    violations, checked, observed = [], 0, {}
    for star, family in enumerate(families, start=1):
        observed.update(((star, j), bits) for j, (_, bits) in family.items())
        d = degrees[star - 1]
        for b, prefix in enumerate(range(starts[star - 1], starts[star])):
            for depth in range(star, height + 1):
                seqs, bits = family[depth]
                stride = math.prod(degrees[star:depth])
                tails = itertools.product(*[range(1, g + 1) for g in degrees[star:depth]])
                for s, tail in enumerate(tails):
                    q, first = b * stride + s, starts[depth] + b * d * stride + s
                    base = (seqs, bits, q, first, stride)
                    # (label, sequence, shape, position shift of base, positions)
                    shapes = []
                    if depth < height:
                        g = degrees[depth]
                        for v in range(1, g + 1):
                            extended = (*family[depth + 1], q * g + v - 1,
                                        starts[depth + 1] + (first - starts[depth]) * g + v - 1, stride * g)
                            shapes.append(((tail, v), extended, vertical, 0, m + 1))
                            shapes.append(((tail, v), extended, diagonal, 1, m))
                    shapes.append(((tail,), base, horizontal, 1, m))
                    for label, (seq_a, bits_a, qa, x, step), (kind, edge0, width), up, end in shapes:
                        want = wants[kind, depth if kind is EdgeKind.HORIZONTAL else depth + 1]
                        step *= width
                        checked += end - 1
                        for p in range(1, end):
                            e = edge0 + x * width + p - 1
                            if not (bits_a[p - 1][qa] and bits[p - 1 + up][q]
                                    and colors[e : e + d * step : step].count(want[p - 1]) == d
                                    and len(set(map(operator.lt, seq_a[p - 1][qa], seqs[p - 1 + up][q]))) == 1):
                                nodes = nodes or build_tree(degrees).nodes
                                violations.append((kind.value, str(nodes[prefix]), *label, p))
    return CheckReport(violations, checked), observed


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
    table is built (raising on any clash), child symmetry is checked
    exhaustively, and the related-sequence check (`_related_families`)
    ties both to the table.  Each check decides its verdict in
    whole-list passes and lists failures only when there are some.  The
    direction table is read from the direction bits the related check
    read, one set per entry when it decided whole (`_direction_table`,
    which raises InconsistencyError on a sequence that is not monotone
    or an entry whose sequences disagree) when every surviving level
    keeps at least two children, else left None.  The checks compare
    ranks only within a cone or a sequence, so the state's sparse ranks
    serve as they are.  The result's graph is the input graph when nothing was
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
    related_report, observed = _related_families(degrees, m, ranks, colors, color_table)
    direction_table = _direction_table(degrees, m, observed) if all(d >= 2 for d in degrees) else None
    final = graph if degrees == graph.tree.spec.degrees else boxslash_product(degrees, m)
    nodes = final.tree.nodes
    node_map = {old: nodes[x] for old, x in zip(graph.tree.nodes, state.node_ids) if x >= 0}
    return PipelineResult(final, node_map, LinearOrder.from_ranks(final.vertices, ranks),
                          EdgeColoring.from_lists(final.edges, colors, coloring.k), color_table,
                          direction_table, order_report, witnesses, related_report)
