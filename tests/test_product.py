"""Tree-times-path generator: counts, ids, ordering, restriction."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from boxslash import (
    EdgeKind,
    NodeIndex,
    PVertex,
    ProductGraph,
    ROOT,
    ShapeError,
    SizeLimitError,
    Tree,
    TreeSpec,
    boxslash_product,
    build_tree,
)
from boxslash.product import edge_runs, level_starts, restrict_ids


def tree_size(degrees):
    total, width = 1, 1
    for d in degrees:
        width *= d
        total += width
    return total


def expected_counts(degrees, m):
    n = tree_size(degrees)
    non_root = n - 1
    return {
        EdgeKind.VERTICAL: non_root * m,
        EdgeKind.HORIZONTAL: n * (m - 1),
        EdgeKind.DIAGONAL: non_root * (m - 1),
    }


def test_reference_instance_counts():
    g = boxslash_product((2, 2), 3)
    assert len(g) == 21
    counts = g.edge_counts()
    assert counts[EdgeKind.VERTICAL] == 18
    assert counts[EdgeKind.HORIZONTAL] == 14
    assert counts[EdgeKind.DIAGONAL] == 12
    assert len(g.edges) == 44


def test_single_child_tree_counts():
    g = boxslash_product((2,), 2)
    assert len(g) == 6
    counts = g.edge_counts()
    assert counts[EdgeKind.VERTICAL] == 4
    assert counts[EdgeKind.HORIZONTAL] == 3
    assert counts[EdgeKind.DIAGONAL] == 2

    tiny = boxslash_product((1,), 2)
    assert len(tiny) == 4
    assert len(tiny.edges) == 5


@given(
    degrees=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    m=st.integers(min_value=1, max_value=4),
)
def test_edge_count_formulas(degrees, m):
    g = boxslash_product(tuple(degrees), m)
    assert g.edge_counts() == expected_counts(degrees, m)
    assert len(g) == tree_size(degrees) * m
    # Every edge joins two distinct known vertices exactly once.
    seen, vertices = set(), set(g.vertices)
    for u, v, _ in g.edges:
        assert u in vertices and v in vertices and u != v
        key = frozenset((u, v))
        assert key not in seen
        seen.add(key)


def test_edges_are_child_first():
    g = boxslash_product((2,), 2)
    for u, v, kind in g.edges:
        if kind is EdgeKind.HORIZONTAL:
            assert u.node == v.node and v.pos == u.pos + 1
        else:
            assert u.node.path[:-1] == v.node.path
            if kind is EdgeKind.VERTICAL:
                assert u.pos == v.pos
            else:
                assert v.pos == u.pos + 1


def test_vertex_ids_roundtrip():
    v = PVertex(NodeIndex((1, 2, 2)), 3)
    assert str(v) == "1.2.2@3"
    assert PVertex.parse("1.2.2@3") == v
    assert str(PVertex(ROOT, 3)) == "r@3"
    assert PVertex.parse("r@3") == PVertex(ROOT, 3)
    with pytest.raises(ValueError):
        PVertex.parse("no-position")
    with pytest.raises(ValueError):
        NodeIndex.parse("1.x.2")


@pytest.mark.parametrize("text", ["01@1", "1@1_0", "1_2@1", " 1@1", "1@1 ", "1@+2", "r@01", "1.01@1"])
def test_vertex_ids_parse_only_as_str_writes_them(text):
    with pytest.raises(ValueError) as caught:
        PVertex.parse(text)
    assert str(caught.value) == f"bad vertex id {text!r}"


def test_vertex_enumeration_is_position_major_bfs():
    g = boxslash_product((2,), 2)
    names = [str(v) for v in g.vertices]
    assert names == ["r@1", "1@1", "2@1", "r@2", "1@2", "2@2"]


def test_node_index_algebra():
    a = NodeIndex((1, 2))
    assert len(a.path) == 2
    assert a.child(3) == NodeIndex((1, 2, 3))
    with pytest.raises(ValueError):
        NodeIndex((0,))


def test_tree_structure():
    tree = build_tree((2, 3))
    assert len(tree.spec.degrees) == 2
    assert len(tree) == 1 + 2 + 6
    assert level_starts((2, 3)) == [0, 1, 3, 9]
    assert tree.nodes[:1] == (ROOT,)
    assert tree.nodes[3:6] == (
        NodeIndex((1, 1)),
        NodeIndex((1, 2)),
        NodeIndex((1, 3)),
    )
    assert len(tree.nodes[3:9]) == 6
    with pytest.raises(ValueError):
        TreeSpec(())
    with pytest.raises(ValueError):
        TreeSpec((2, 0))


@pytest.mark.parametrize("path", [(True, 2), (2, True), (True,), (2.5,), ("3",)])
def test_node_index_rejects_boolean_choices(path):
    # Otherwise (True, 2) would print as True.2, which parse rejects.
    bad = next(v for v in path if type(v) is not int)
    with pytest.raises(ValueError, match=rf"^child choice must be an integer, got {re.escape(repr(bad))}$"):
        NodeIndex(path)


@pytest.mark.parametrize("path_len", [True, 2.5, "3"])
def test_product_rejects_a_path_length_that_is_no_integer(path_len):
    # A product on path_len True would write a descriptor that
    # from_descriptor rejects; the other two once raised TypeError.
    message = rf"^path_len must be an integer, got {re.escape(repr(path_len))}$"
    with pytest.raises(ValueError, match=message):
        boxslash_product((2,), path_len)
    with pytest.raises(ValueError, match=message):
        ProductGraph.from_descriptor({"tree_degrees": [2], "path_len": path_len})


@pytest.mark.parametrize("path_len", [True, 2.5, "3"])
def test_product_graph_checks_its_own_path_length(path_len):
    # The constructor is exported: True once gave a descriptor that
    # from_descriptor rejects, and 2.5 and "3" a bare TypeError.
    message = rf"^path_len must be an integer, got {re.escape(repr(path_len))}$"
    with pytest.raises(ValueError, match=message):
        ProductGraph(build_tree((2,)), path_len)


@pytest.mark.parametrize("degrees", [(True, 2), (True,), (2, 2.5), ("3",)])
def test_tree_spec_rejects_boolean_degrees(degrees):
    bad = next(d for d in degrees if type(d) is not int)
    message = rf"^degree must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        TreeSpec(degrees)
    with pytest.raises(ValueError, match=message):
        ProductGraph.from_descriptor({"tree_degrees": list(degrees), "path_len": 2})


def test_descriptor_roundtrip():
    g = boxslash_product((3, 2), 2)
    doc = g.descriptor()
    assert doc == {"tree_degrees": [3, 2], "path_len": 2}
    again = ProductGraph.from_descriptor(doc)
    assert tuple(again.vertices) == tuple(g.vertices)
    assert tuple(again.edges) == tuple(g.edges)
    with pytest.raises(ValueError):
        ProductGraph.from_descriptor({"path_len": 2})


def test_dot_export_mentions_every_edge():
    g = boxslash_product((1,), 2)
    dot = g.to_dot()
    assert dot.startswith("graph product {")
    assert dot.count(" -- ") == len(g.edges)
    assert '"r@1"' in dot and '"1@2"' in dot


def test_kind_lookup():
    g = boxslash_product((2,), 2)
    kinds = {(str(u), str(v)): kind for u, v, kind in g.edges}
    assert kinds[("1@1", "r@1")] is EdgeKind.VERTICAL
    assert kinds[("1@1", "1@2")] is EdgeKind.HORIZONTAL
    assert kinds[("1@1", "r@2")] is EdgeKind.DIAGONAL
    assert ("r@1", "1@2") not in kinds and ("1@2", "r@1") not in kinds
    assert len(kinds) == len(g.edges)


def test_restrict_subtree_renumbers():
    # Old ids 0, 1, 3: the kept root, node 1, and node 3 as the new node 2.
    assert restrict_ids((3,), {0: (1, 3)}) == ((2,), [0, 1, 3])
    assert restrict_ids((2, 2), {0: (2,)}) == ((1, 2), [0, 2, 5, 6])


def test_restrict_subtree_uniformity_guard():
    lopsided = {1: (1,), 2: (1, 2)}
    with pytest.raises(ShapeError):
        restrict_ids((2, 2), lopsided)
    with pytest.raises(ValueError):
        restrict_ids((2, 2), {0: (5,)})


def test_restrict_subtree_full_keep_is_identity():
    assert restrict_ids((2, 2), {}) == ((2, 2), list(range(7)))


def test_size_limits():
    with pytest.raises(SizeLimitError):
        boxslash_product((10, 10, 10), 1000)
    with pytest.raises(ValueError):
        boxslash_product((2,), 0)


def test_an_oversize_product_is_refused_before_its_tree_is_built(monkeypatch):
    # Building these trees took seconds before the count refused them.
    # The degrees and a tree over the limit are refused first, then the
    # path length, then the product's count.
    def no_tree(spec):
        raise AssertionError(f"built the tree of {spec.degrees}")

    monkeypatch.setattr("boxslash.product.Tree", no_tree)
    for degrees, path_len, count in (((2,) * 18, 2, 1_048_574), ((2,) * 17, 7, 1_835_001)):
        with pytest.raises(SizeLimitError, match=f"^product would have {count} vertices, limit is 1000000$"):
            boxslash_product(degrees, path_len)
    with pytest.raises(ValueError, match="^degree must be at least 1, got 0$"):
        boxslash_product((2,) * 18 + (0,), 0)
    with pytest.raises(SizeLimitError, match=r"^tree \(2(, 2)*\) exceeds the 1000000 vertex limit$"):
        boxslash_product((2,) * 20, 0)
    with pytest.raises(ValueError, match="^path_len must be at least 1, got 0$"):
        boxslash_product((2,) * 18, 0)


def test_restrict_subtree_errors_name_the_node():
    with pytest.raises(ShapeError, match=r"^level 1 keeps 2 children at 2, other nodes keep 1$"):
        restrict_ids((2, 2), {1: (1,), 2: (1, 2)})
    with pytest.raises(ShapeError, match=r"^empty child selection at node 1\.2$"):
        restrict_ids((2, 2, 2), {4: ()})
    with pytest.raises(ValueError, match=r"^child selection \(5,\) out of range 1\.\.2 at r$"):
        restrict_ids((2, 2), {0: (5,)})
    # Entries for ids outside the tree, or on its bottom level (3 is 1.1), are never read.
    assert restrict_ids((2, 2), {9: (), 3: (9,)}) == ((2, 2), list(range(7)))


def test_hashes_equal_the_dataclass_hash():
    # A node is the tuple (path,) and a vertex the tuple (node, pos), so
    # each hashes to the value the frozen dataclass gave, and sets and
    # frozensets of nodes and vertices iterate as before.
    for node in build_tree((2, 3)).nodes:
        vertex = PVertex(node, 3)
        assert node == (node.path,) and hash(node) == hash((node.path,))
        assert vertex == (node, 3) and hash(vertex) == hash((node, 3))


@pytest.mark.parametrize("degrees, m", [((2,), 1), ((3, 2), 3), ((1, 2, 2), 2)])
def test_integer_ids_index_the_vertices_and_edges(degrees, m):
    g = boxslash_product(degrees, m)
    nodes, starts = g.tree.nodes, level_starts(degrees)
    n = len(nodes)
    assert starts[-1] == n
    for depth in range(len(degrees) + 1):
        choices = itertools.product(*(range(1, d + 1) for d in degrees[:depth]))
        assert nodes[starts[depth] : starts[depth + 1]] == tuple(map(NodeIndex, choices))
    for x, node in enumerate(nodes):
        assert [g.vertices[(p - 1) * n + x] for p in range(1, m + 1)] == [
            PVertex(node, p) for p in range(1, m + 1)
        ]
    seen = []
    for kind, (first, width) in zip(EdgeKind, edge_runs(n, m)):
        for x in range(0 if kind is EdgeKind.HORIZONTAL else 1, n):
            for p in range(1, width + 1):
                u, v, got = g.edges[first + x * width + p - 1]
                assert (u, got) == (PVertex(nodes[x], p), kind)
                seen.append(first + x * width + p - 1)
    assert seen == list(range(len(g.edges)))


def defined_product(degrees, m):
    """Vertices and edges by the product's definition, in id order:
    vertices by position, then breadth-first node; edges vertical,
    horizontal then diagonal, each by node, then by position."""
    nodes = [NodeIndex(path) for depth in range(len(degrees) + 1)
             for path in itertools.product(*(range(1, d + 1) for d in degrees[:depth]))]
    vertices = [PVertex(node, p) for p in range(1, m + 1) for node in nodes]
    up = {node: NodeIndex(node.path[:-1]) for node in nodes[1:]}
    edges = ([(PVertex(x, p), PVertex(up[x], p), EdgeKind.VERTICAL) for x in nodes[1:] for p in range(1, m + 1)]
             + [(PVertex(x, p), PVertex(x, p + 1), EdgeKind.HORIZONTAL) for x in nodes for p in range(1, m)]
             + [(PVertex(x, p), PVertex(up[x], p + 1), EdgeKind.DIAGONAL) for x in nodes[1:] for p in range(1, m)])
    return vertices, edges


@settings(max_examples=60, deadline=None)
@given(degrees=st.lists(st.integers(1, 3), min_size=1, max_size=3), m=st.integers(1, 6))
def test_vertex_and_edge_views_read_as_the_definition(degrees, m):
    # The views store no item: each one is made when read, and must equal
    # the definition read every way a tuple is read.
    g = boxslash_product(tuple(degrees), m)
    vertices, edges = defined_product(degrees, m)
    for view, items in ((g.vertices, vertices), (g.edges, edges)):
        n = len(items)
        assert len(view) == n
        assert list(view) == items and list(reversed(view)) == items[::-1]
        assert [view[i] for i in range(n)] == items == [view[i] for i in range(-n, 0)]
        for cut in (slice(None), slice(1, None, 2), slice(None, None, -1), slice(-3, None), slice(n, n + 5)):
            assert view[cut] == tuple(items[cut])
        for beyond in (n, -n - 1):
            with pytest.raises(IndexError):
                view[beyond]
        with pytest.raises(TypeError):
            view["0"]
        assert all(item in view for item in items)
        assert tuple(view) == tuple(items) and tuple(view) != tuple(items[:-1])
        assert view == view and view != tuple(items) and view != items  # a view equals only itself
    same, longer = boxslash_product(tuple(degrees), m), boxslash_product(tuple(degrees), m + 1)
    assert tuple(same.vertices) == tuple(g.vertices) and tuple(same.edges) == tuple(g.edges)
    assert tuple(longer.vertices) != tuple(g.vertices) and tuple(longer.edges) != tuple(g.edges)
    # Equal spellings are members, as in a tuple; anything else is not.
    node = vertices[-1].node
    assert (node, m) in g.vertices and (node, 1.0) in g.vertices and (node, True) in g.vertices
    strangers = [PVertex(node, m + 1), PVertex(node, 0), PVertex(NodeIndex((9,)), 1), (node, 1.5),
                 ([1], 1), (node,), "r@1", [node, 1]]
    assert not any(v in g.vertices for v in strangers)
    for u, v, kind in edges[:: max(1, len(edges) // 7)]:
        assert (u, v, kind) in g.edges
        assert (v, u, kind) not in g.edges and [u, v, kind] not in g.edges and (u, v) not in g.edges
        assert (u, v, next(k for k in EdgeKind if k is not kind)) not in g.edges
    assert (PVertex(node, m + 1), vertices[0], EdgeKind.VERTICAL) not in g.edges


@settings(max_examples=60, deadline=None)
@given(degrees=st.lists(st.integers(1, 3), min_size=1, max_size=3), m=st.integers(1, 6))
def test_span_table_and_edge_ids_follow_the_definition(degrees, m):
    # The lower end is fixed by the kind: the second end of a vertical
    # edge, the first of the others.  Either way it is min and max of
    # the ends' ids, for every kind and for m = 1.
    g = boxslash_product(tuple(degrees), m)
    vertices, edges = defined_product(degrees, m)
    ids = {v: x for x, v in enumerate(vertices)}
    ends = [(ids[u], ids[v]) for u, v, _ in edges]
    lo, hi = g.spans()
    assert lo == [min(a, b) for a, b in ends] and hi == [max(a, b) for a, b in ends]
    assert all((a > b) == (kind is EdgeKind.VERTICAL) for (a, b), (_, _, kind) in zip(ends, edges))
    again = g.spans()
    assert again[0] is lo and again[1] is hi
    assert [g.vertices.id_of(v) for v in vertices] == list(range(len(vertices)))
    joined = {frozenset(pair): e for e, pair in enumerate(ends)}
    for a, b in itertools.product(range(min(len(vertices), 30)), repeat=2):
        assert g.edge_id(a, b) == joined.get(frozenset((a, b)))
    assert g.edge_id(None, 0) is None and g.edge_id(0, None) is None


def test_a_reordered_view_reads_its_ids_and_ranks_them():
    g = boxslash_product((2,), 3)
    vertices = list(g.vertices)
    ids = [4, 0, 8, 2, 6, 1, 3, 5, 7]
    view = g.vertices.reordered(ids)
    assert list(view) == [vertices[x] for x in ids] and view[1:3] == (vertices[0], vertices[8])
    assert view.base is g.vertices and view.positions() == [1, 5, 3, 6, 0, 7, 4, 8, 2]
    assert g.vertices.positions() == list(range(9))
    assert list(view.tuples()) == [tuple(vertices[x]) for x in ids]
    assert tuple(view) == tuple(vertices[x] for x in ids) and tuple(view) != tuple(g.vertices)
    twice = view.reordered([1, 0] + list(range(2, 9)))
    assert twice.base is g.vertices and list(twice) == [vertices[x] for x in [0, 4, 8, 2, 6, 1, 3, 5, 7]]
