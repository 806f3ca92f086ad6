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

An edge is read as (u, v, kind) with the endpoint of larger tree depth
first, or the smaller path position when depths agree.

Integer ids: tree nodes are numbered breadth first, so each node's
children are consecutive, `level_starts` gives each depth's first id,
and parent and child ids follow by mixed-radix arithmetic on the
degrees.  Vertex (node, pos) is (pos - 1) * |T| + node, its index in
ProductGraph.vertices; an edge's id is its index in ProductGraph.edges,
as laid out by `edge_runs`.

A ProductGraph stores no vertex or edge objects.  `vertices` and `edges`
are read-only sequence views over the tree's nodes and the span table:
a PVertex or a (u, v, kind) tuple is made only when an item is read (for
JSON, DOT, error texts and violations).  The span table
(`ProductGraph.spans`) lists each edge's lower and upper vertex id, once
per product, on first use: the lower end is the second one of a vertical
edge (the parent) and the first one of a horizontal or diagonal edge.
Its lists share the int objects of one id list, so they cost a pointer
per entry.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def ids(self) -> dict:
        """Each node's id, keyed by node."""
        return {node: x for x, node in enumerate(self.nodes)}

    @cached_property
    def parents(self) -> list[int]:
        """Each node's parent id, by node id; the root's is -1."""
        degrees, starts = self.spec.degrees, level_starts(self.spec.degrees)
        return [-1, *(x for k, d in enumerate(degrees) for x in range(starts[k], starts[k + 1]) for _ in range(d))]


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


class ProductVertices(Sequence):
    """A product's vertices by id, or in the order of a list of ids.

    Read-only: a PVertex is made only when an item is read.  ``base`` is
    the product's own view that a reordered one was made from.
    """

    __slots__ = ("tree", "path_len", "ids", "base")

    def __init__(self, tree: Tree, path_len: int, ids: list[int] | None = None, base=None):
        self.tree, self.path_len, self.ids, self.base = tree, path_len, ids, base

    def __len__(self) -> int:
        return len(self.tree) * self.path_len

    def _vertex(self, x: int) -> PVertex:
        pos, node = divmod(x, len(self.tree))
        return PVertex(self.tree.nodes[node], pos + 1)

    def __getitem__(self, at):
        at = range(len(self))[at]  # checked and resolved as a tuple's index or slice
        if isinstance(at, range):
            return tuple(map(self.__getitem__, at))
        return self._vertex(at if self.ids is None else self.ids[at])

    def __iter__(self) -> Iterator[PVertex]:
        return map(PVertex, *self._columns()) if self.ids is None else map(self._vertex, self.ids)

    def __contains__(self, v) -> bool:
        return self.id_of(v) is not None

    def __eq__(self, other) -> bool:
        if isinstance(other, ProductVertices) and self.ids is None and other.ids is None:
            return (self.tree.spec, self.path_len) == (other.tree.spec, other.path_len)
        if isinstance(other, (tuple, ProductVertices)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def id_of(self, v) -> int | None:
        """The vertex id of v, found from its node's id and its position;
        None when v is no vertex of the product."""
        if not (isinstance(v, tuple) and len(v) == 2):
            return None
        try:
            x, p = self.tree.ids[v[0]], range(1, self.path_len + 1).index(v[1])
        except (KeyError, TypeError, ValueError):
            return None
        return p * len(self.tree) + x

    def _columns(self) -> tuple[Iterator[NodeIndex], Iterator[int]]:
        """The node and the position of each vertex, by vertex id."""
        nodes, m = self.tree.nodes, self.path_len
        return chain.from_iterable(repeat(nodes, m)), chain.from_iterable(map(repeat, range(1, m + 1), repeat(len(nodes))))

    def tuples(self) -> Iterator[tuple]:
        """Each vertex as the plain tuple (node, pos), which equals and
        hashes as its PVertex: dict lookups by vertex, without making one."""
        every = zip(*self._columns())
        return every if self.ids is None else map(list(every).__getitem__, self.ids)

    def reordered(self, ids: list[int]) -> "ProductVertices":
        """The view whose i-th vertex is this view's ids[i]-th."""
        if self.ids is not None:
            ids = list(map(self.ids.__getitem__, ids))
        return ProductVertices(self.tree, self.path_len, ids, self if self.base is None else self.base)

    def positions(self) -> list[int]:
        """The position of each vertex id in this view."""
        n = len(self)
        return list(range(n)) if self.ids is None else sorted(range(n), key=self.ids.__getitem__)


class ProductEdges(Sequence):
    """A product's edges by edge id, read-only: a (u, v, kind) tuple is
    made only when an item is read, from the span table."""

    __slots__ = ("graph",)

    def __init__(self, graph: "ProductGraph"):
        self.graph = graph

    def __len__(self) -> int:
        return sum(self.graph.edge_counts().values())

    def __getitem__(self, at):
        at = range(len(self))[at]
        if isinstance(at, range):
            return tuple(map(self.__getitem__, at))
        lo, hi = self.graph.spans()
        counts = self.graph.edge_counts()
        vertical, horizontal = counts[EdgeKind.VERTICAL], counts[EdgeKind.HORIZONTAL]
        kind = (EdgeKind.VERTICAL if at < vertical else
                EdgeKind.HORIZONTAL if at < vertical + horizontal else EdgeKind.DIAGONAL)
        u, v = self.graph.vertices._vertex(lo[at]), self.graph.vertices._vertex(hi[at])
        return (v, u, kind) if kind is EdgeKind.VERTICAL else (u, v, kind)

    def __iter__(self) -> Iterator[Edge]:
        kinds = chain.from_iterable(map(repeat, EdgeKind, self.graph.edge_counts().values()))
        return self._pairs(tuple(self.graph.vertices), kinds)

    def __contains__(self, edge) -> bool:
        if not (isinstance(edge, tuple) and len(edge) == 3):
            return False
        vertices = self.graph.vertices
        e = self.graph.edge_id(vertices.id_of(edge[0]), vertices.id_of(edge[1]))
        return e is not None and self[e] == edge

    def __eq__(self, other) -> bool:
        if isinstance(other, ProductEdges):
            return self.graph.descriptor() == other.graph.descriptor()
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def _pairs(self, per_vertex: Sequence, *more: Iterable) -> Iterator[tuple]:
        """(per_vertex[u], per_vertex[v], *more) for each edge, u its first end and v its second."""
        lo, hi = self.graph.spans()
        v = self.graph.edge_counts()[EdgeKind.VERTICAL]  # the vertical run comes first, child end first
        return zip(map(per_vertex.__getitem__, hi[:v] + lo[v:]), map(per_vertex.__getitem__, lo[:v] + hi[v:]), *more)

    def pairs(self) -> Iterator[tuple]:
        """Each edge's (u, v) as plain tuples of (node, pos) tuples, which
        equal and hash as the (PVertex, PVertex) pair, without making one."""
        return self._pairs(list(self.graph.vertices.tuples()))


class ProductGraph:
    """Product of a balanced tree and a path, with kind-labelled edges.

    It holds its tree, its path length and, once read, its span table;
    ``vertices`` and ``edges`` are views that make objects when read.
    """

    def __init__(self, tree: Tree, path_len: int):
        m = self.path_len = integer(path_len, "path_len", 1)
        _product_size(len(tree), m)
        self.tree = tree
        self.vertices = ProductVertices(tree, m)
        self.edges = ProductEdges(self)
        self._spans: tuple[list[int], list[int]] | None = None

    def __len__(self) -> int:
        return len(self.vertices)

    def edge_pairs(self) -> Iterator[tuple[PVertex, PVertex]]:
        return self.edges._pairs(tuple(self.vertices))

    def spans(self) -> tuple[list[int], list[int]]:
        """Each edge's lower and upper vertex id, by edge id: the span
        table, listed on the first call and handed to every later one, so
        callers must not change its lists.  The vertical run's lower end is
        the parent, the others' the first end, at the lower position."""
        if self._spans is None:
            n, m = len(self.tree), self.path_len
            ids, parents, below = list(range(n * m)), self.tree.parents[1:], (m - 1) * n
            lo = chain((ids[p::n] for p in parents),  # vertical: the parent
                       (ids[x:below:n] for x in range(n)),  # horizontal: the lower position
                       (ids[x:below:n] for x in range(1, n)))  # diagonal: the child, at the lower position
            hi = chain((ids[x::n] for x in range(1, n)),
                       (ids[x::n] for x in range(n, 2 * n)),
                       (ids[p + n::n] for p in parents))
            self._spans = list(chain.from_iterable(lo)), list(chain.from_iterable(hi))
        return self._spans

    def edge_id(self, a: int | None, b: int | None) -> int | None:
        """The id of the edge joining vertex ids a and b, either way round;
        None when either is None or they are not adjacent."""
        if a is None or b is None:
            return None
        n, parent = len(self.tree), self.tree.parents
        vertical, horizontal, diagonal = edge_runs(n, self.path_len)
        (p, x), (q, y) = sorted((divmod(a, n), divmod(b, n)))
        if p == q and parent[y] == x:
            (first, width), x = vertical, y  # at the child
        elif q == p + 1 and x == y:
            first, width = horizontal
        elif q == p + 1 and parent[x] == y:
            first, width = diagonal
        else:
            return None
        return first + x * width + p  # position p + 1

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
