"""Balanced rooted trees, paths, and their one-diagonal strong product.

Tree nodes are addressed by arrays of 1-based child choices.  An address
is the tuple (path,) and a product vertex the tuple (node, position), so
both hash and compare as plain tuples.  An address renders as a dotted
string ("1.2.2", the root as "r"), and a product vertex as
"<node>@<path position>", for example "1.2.2@3" or "r@1".

The product of a tree T and a path on m vertices has vertex set
(node, position) and three kinds of edges:

* vertical:   (A+v, i) -- (A, i)      child to parent, same position
* horizontal: (A, i)   -- (A, i+1)    same node, consecutive positions
* diagonal:   (A+v, i) -- (A, i+1)    child to parent, next position

Stored edges always put the endpoint with the larger tree depth first,
or the smaller path position when depths agree.

Integer ids: tree nodes are numbered breadth first, so each node's
children are consecutive, `level_starts` gives each depth's first id,
and parent and child ids follow by mixed-radix arithmetic on the
degrees.  Vertex (node, pos) is (pos - 1) * |T| + node, its index in
ProductGraph.vertices; an edge's id is its index in ProductGraph.edges,
as laid out by `edge_runs`, and `edge_ends` lists its endpoints' ids.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import mul
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import ShapeError, SizeLimitError, integer

#: Hard cap on product vertices; construction fails beyond this.
VERTEX_LIMIT = 10**6


class NodeIndex(namedtuple("NodeIndex", "path")):
    """Tree-node address: the sequence of child choices from the root."""

    __slots__ = ()

    def __new__(cls, path: Iterable[int] = ()):
        return super().__new__(cls, tuple(integer(v, "child choice", 1) for v in path))

    def child(self, choice: int) -> "NodeIndex":
        return NodeIndex(self.path + (choice,))

    def __str__(self) -> str:
        if not self.path:
            return "r"
        return ".".join(str(v) for v in self.path)

    @classmethod
    def parse(cls, text: str) -> "NodeIndex":
        if text == "r":
            return cls()
        try:
            return cls(tuple(int(part) for part in text.split(".")))
        except ValueError as exc:
            raise ValueError(f"bad node address {text!r}") from exc


ROOT = NodeIndex()


@dataclass(frozen=True)
class TreeSpec:
    """Degree sequence of a balanced tree, one entry per level."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        degrees = tuple(integer(d, "degree", 1) for d in self.degrees)
        object.__setattr__(self, "degrees", degrees)
        if len(degrees) < 1:
            raise ValueError("degree sequence needs at least one level")

    def vertex_count(self) -> int:
        total, width = 1, 1
        for d in self.degrees:
            width *= d
            total += width
            if total > VERTEX_LIMIT:
                raise SizeLimitError(
                    f"tree {self.degrees} exceeds the {VERTEX_LIMIT} vertex limit"
                )
        return total


class Tree:
    """A balanced rooted tree with explicit node enumeration.

    Nodes are listed breadth first, which is also sorted order by
    (depth, lexicographic address); depth k is the slice from
    `level_starts(degrees)[k]` to the next start.
    """

    def __init__(self, spec: TreeSpec):
        self.spec = spec
        spec.vertex_count()
        nodes, level = [ROOT], [ROOT]
        for d in spec.degrees:
            level = [node.child(v) for node in level for v in range(1, d + 1)]
            nodes += level
        self.nodes: tuple[NodeIndex, ...] = tuple(nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def build_tree(degrees) -> Tree:
    """Build a balanced tree from its degree sequence."""
    return Tree(TreeSpec(degrees))


class PVertex(NamedTuple):
    """Product vertex: a tree node at a path position (1-based)."""

    node: NodeIndex
    pos: int

    def __str__(self) -> str:
        return f"{self.node}@{self.pos}"

    @classmethod
    def parse(cls, text: str) -> "PVertex":
        if not isinstance(text, str):
            raise ValueError(f"vertex id must be a string, got {text!r}")
        node_part, sep, pos_part = text.rpartition("@")
        if not sep:
            raise ValueError(f"bad vertex id {text!r}")
        vertex = cls(NodeIndex.parse(node_part), int(pos_part))
        if str(vertex) != text:  # only the spelling str writes: no 01@1, 1_0 or spaces
            raise ValueError(f"bad vertex id {text!r}")
        return vertex


class EdgeKind(Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"
    DIAGONAL = "diagonal"


DOT_COLORS = {
    EdgeKind.VERTICAL: "black",
    EdgeKind.HORIZONTAL: "orange",
    EdgeKind.DIAGONAL: "blue",
}

Edge = tuple[PVertex, PVertex, EdgeKind]


class ProductGraph:
    """Product of a balanced tree and a path, with kind-labelled edges."""

    def __init__(self, tree: Tree, path_len: int):
        m = self.path_len = integer(path_len, "path_len", 1)
        _product_size(len(tree), m)
        self.tree = tree
        self.vertices: tuple[PVertex, ...] = tuple(
            PVertex(node, i) for i in range(1, m + 1) for node in tree.nodes
        )
        # Edges share the vertex objects, picked by their endpoint ids.
        ends = (map(self.vertices.__getitem__, ids) for ids in edge_ends(tree.spec.degrees, m))
        kinds = chain.from_iterable(map(repeat, EdgeKind, self.edge_counts().values()))
        self.edges: tuple[Edge, ...] = tuple(zip(*ends, kinds))

    def __len__(self) -> int:
        return len(self.vertices)

    def edge_pairs(self) -> Iterator[tuple[PVertex, PVertex]]:
        return ((u, v) for u, v, _ in self.edges)

    def edge_counts(self) -> dict[EdgeKind, int]:
        n, m = len(self.tree), self.path_len
        return dict(zip(EdgeKind, ((n - 1) * m, n * (m - 1), (n - 1) * (m - 1))))

    def descriptor(self) -> dict:
        return {
            "tree_degrees": list(self.tree.spec.degrees),
            "path_len": self.path_len,
        }

    @classmethod
    def from_descriptor(cls, doc: Mapping) -> "ProductGraph":
        descriptor_size(doc)
        return boxslash_product(doc["tree_degrees"], doc["path_len"])

    def to_dot(self) -> str:
        lines = ["graph product {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for u, v, kind in self.edges:
            lines.append(
                f'  "{u}" -- "{v}" [kind={kind.value} color={DOT_COLORS[kind]}];'
            )
        lines.append("}")
        return "\n".join(lines)


def _product_size(nodes: int, m: int) -> int:
    """Vertices of the product of a ``nodes``-node tree and an m-vertex path, capped."""
    if nodes * m > VERTEX_LIMIT:
        raise SizeLimitError(f"product would have {nodes * m} vertices, limit is {VERTEX_LIMIT}")
    return nodes * m


def descriptor_size(doc: Mapping) -> int:
    """Vertices of the product a descriptor describes, counted without
    building it.  A descriptor that ``from_descriptor`` refuses raises
    here as it does there."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"graph descriptor must be an object, got {type(doc).__name__}")
    degrees = doc.get("tree_degrees")
    if not isinstance(degrees, (list, tuple)):
        raise ValueError(f"tree_degrees must be a list of integers, got {degrees!r}")
    return _product_size(TreeSpec(degrees).vertex_count(), integer(doc.get("path_len"), "path_len", 1))


def boxslash_product(degrees, path_len: int) -> ProductGraph:
    """Product of the balanced tree of a degree sequence and a path."""
    return ProductGraph(build_tree(degrees), path_len)


def level_starts(degrees) -> list[int]:
    """Id of the first node of each depth 0..height, then the node count."""
    return [0, *accumulate(accumulate(degrees, mul, initial=1))]


def edge_runs(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """(first, width) of the vertical, horizontal and diagonal edges of a
    product of n nodes and m positions: the edge of that kind at node x
    and position p has id first + x * width + p - 1."""
    return ((-m, m), ((n - 1) * m, m - 1), ((n - 1) * (2 * m - 1), m - 1))


def edge_ends(degrees, m: int) -> tuple[Iterator[int], Iterator[int]]:
    """The vertex ids of each edge's first and of its second endpoint, by
    edge id: per run of edge_runs, node pair and the positions it spans."""
    starts = level_starts(degrees)
    n = starts[-1]
    parents = [x for k, d in enumerate(degrees) for x in range(starts[k], starts[k + 1]) for _ in range(d)]
    runs = ((range(1, n), parents, m), (range(n), range(n, 2 * n), m - 1),
            (range(1, n), [x + n for x in parents], m - 1))
    return (chain.from_iterable(range(x, x + w * n, n) for xs, _, w in runs for x in xs),
            chain.from_iterable(range(y, y + w * n, n) for _, ys, w in runs for y in ys))


def _name(degrees, x: int) -> str:
    """The address of node id x, as text."""
    return str(build_tree(degrees).nodes[x])


def restrict_ids(degrees, keep: Mapping[int, Iterable[int]]) -> tuple[tuple[int, ...], list[int]]:
    """Restrict a tree to a kept subtree, children renumbered per level.

    ``keep`` maps a node id to the child numbers it retains, integers
    under ``errors.integer``; nodes missing from the map keep every
    child.  The kept counts must be uniform within each depth level,
    otherwise a ShapeError names the level.  Returns the kept degrees, and the old id of every kept node
    in the kept tree's breadth-first order.
    """
    starts, old, frontier, counts = level_starts(degrees), [0], [0], []
    for depth, d in enumerate(degrees):
        next_frontier: list[int] = []
        for x in frontier:
            chosen = keep.get(x)
            if chosen is None:
                nums = tuple(range(1, d + 1))
            else:
                chosen = tuple(chosen)
                if set(map(type, chosen)) != {int}:  # plain ints, as the passes keep, skip the rule
                    chosen = [integer(c, "child choice") for c in chosen]
                nums = tuple(sorted(set(chosen)))
            if not nums:
                raise ShapeError(f"empty child selection at node {_name(degrees, x)}")
            if nums[0] < 1 or nums[-1] > d:
                raise ValueError(
                    f"child selection {nums} out of range 1..{d} at {_name(degrees, x)}")
            if counts[depth:] and counts[depth] != len(nums):
                raise ShapeError(
                    f"level {depth} keeps {len(nums)} children at {_name(degrees, x)}, "
                    f"other nodes keep {counts[depth]}"
                )
            counts[depth:] = [len(nums)]
            next_frontier += [starts[depth + 1] + (x - starts[depth]) * d + c - 1 for c in nums]
        old += next_frontier
        frontier = next_frontier
    return tuple(counts), old
