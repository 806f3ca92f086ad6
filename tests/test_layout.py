"""Linear orders, pair relations, validators, and fixed-order optima."""

import bisect
import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from boxslash import (
    EdgeColoring,
    EdgeKind,
    LinearOrder,
    PVertex,
    PairRelation,
    boxslash_product,
    canonical_order,
    layout_from_json,
    layout_to_json,
    queues_for_order,
    stack_pages_for_order,
    three_queue_layout,
    validate_queue_layout,
    validate_stack_layout,
)
from boxslash import layout, product
from boxslash.layout import _crossing_lists, _crossing_rows, _nesting_depths, _spans, graph_vertices_edges
from helpers_naive import (
    chromatic_number,
    conflict_adjacency,
    edges_cross,
    edges_nest,
    min_pages_for_position,
    min_queues_for_position,
    naive_dsatur,
    naive_nesting_depths,
    naive_violations,
    relation,
)

def int_order(n):
    return LinearOrder(range(n))


def conflict_paths(monkeypatch):
    """Yield "lists", then "rows": stack_pages_for_order's crossing
    conflicts held as adjacency lists, then as bit rows, by setting
    CROSSING_ROW_LIMIT below and above every input here.  After each,
    every call since is checked to have taken that representation."""
    used = []
    for path in ("lists", "rows"):
        kernel = getattr(layout, f"_crossing_{path}")
        monkeypatch.setattr(layout, f"_crossing_{path}", lambda *a, k=kernel, p=path: used.append(p) or k(*a))
    for path, limit in (("lists", 0), ("rows", 10**9)):
        monkeypatch.setattr(layout, "CROSSING_ROW_LIMIT", limit)
        used.clear()
        yield path
        assert used and set(used) == {path}


def test_linear_order_basics():
    order = LinearOrder("badc")
    assert order.ranks_of(["b"]) == [0]
    assert list(LinearOrder(reversed(order.vertices))) == ["c", "d", "a", "b"]
    assert "q" not in order
    with pytest.raises(ValueError):
        order.ranks_of(["q"])
    with pytest.raises(ValueError):
        LinearOrder("aa")


def test_linear_order_from_ranks_sorts_by_rank():
    vertices = tuple("abcd")
    order = LinearOrder.from_ranks(vertices, [30, 5, 12, 7])
    assert list(order) == ["b", "d", "c", "a"]
    assert order.ranks_of(vertices) == [3, 0, 2, 1] == order.ranks_of(list(vertices))
    with pytest.raises(ValueError, match="^vertex 'q' not in order$"):
        order.ranks_of(("a", "q"))


def test_edge_coloring_basics():
    coloring = EdgeColoring({(1, 2): 0, (3, 4): 2})
    assert coloring.k == 3
    assert (coloring.get(2, 1), coloring.get(4, 3)) == (0, 2)
    assert coloring.get(1, 3) is None
    with pytest.raises(ValueError, match="^edge 1 -- 3 has no colour$"):
        coloring.colors_of([(1, 2), (1, 3)])
    # No membership test: a string would unpack as an edge of its letters.
    with pytest.raises(TypeError):
        "ab" in EdgeColoring({("a", "b"): 0})
    with pytest.raises(ValueError):
        EdgeColoring({(1, 1): 0})
    with pytest.raises(ValueError, match="^k must be at least 5, got 2$"):
        EdgeColoring({(1, 2): 4}, k=2)
    # Colours lie in 0..k-1: with -1 allowed, two crossing edges would
    # sit on two pages under a declared k of 1.
    with pytest.raises(ValueError, match=r"^colour of edge \('a', 'c'\) must be at least 0, got -1$"):
        EdgeColoring({("a", "c"): -1, ("b", "d"): 0}, k=1)


def test_edge_coloring_rejects_non_integer_colours():
    # As layout_from_json does: no colour is truncated or parsed.
    for c in (1.7, 2.0, True, "2", None):
        with pytest.raises(ValueError, match=rf"^colour of edge \(1, 2\) must be an integer, got {re.escape(repr(c))}$"):
            EdgeColoring({(1, 2): c})
    index_like = type("IndexLike", (), {"__index__": lambda self: 2})()
    assert EdgeColoring({(1, 2): index_like}).get(1, 2) == 2


@pytest.mark.parametrize("k", [3.9, True, "3"])
def test_edge_coloring_rejects_a_non_integer_k(k):
    # As with colours: a float is not truncated, a bool not counted, a string not parsed.
    with pytest.raises(ValueError, match=rf"^k must be an integer, got {re.escape(repr(k))}$"):
        EdgeColoring({("a", "b"): 0}, k=k)


def test_edge_coloring_keeps_the_last_colour_of_an_edge_given_twice():
    # In either direction; the edge is stored once, so it counts once.
    for second in ((1, 2), (2, 1)):
        coloring = EdgeColoring({(1, 2): 0, (3, 4): 1, second: 2})
        assert (coloring.get(1, 2), coloring.get(2, 1), len(dict(coloring.edges())), coloring.k) == (2, 2, 2, 3)
    bulk = EdgeColoring.from_lists([(1, 2), (3, 4), (2, 1)], [0, 1, 2], 3)
    assert (bulk.get(1, 2), bulk.get(2, 1)) == (2, 2)
    assert dict(bulk.edges()) == {(1, 2): 2, (3, 4): 1}


def test_edge_coloring_rejects_a_vertex_key():
    # A product vertex unpacks as (node, pos), which is no edge.
    vertex = PVertex.parse("1@2")
    with pytest.raises(ValueError, match=rf"^edge key {re.escape(repr(vertex))} is a vertex, not a vertex pair$"):
        EdgeColoring({vertex: 0})


@pytest.mark.parametrize("key", ["ab", b"ab", 5, ("a", "b", "c")])
def test_edge_coloring_rejects_a_key_that_is_not_a_vertex_pair(key):
    # A string unpacks into its characters, which are no edge either.
    with pytest.raises(ValueError, match=rf"^edge key {re.escape(repr(key))} is a vertex, not a vertex pair$"):
        EdgeColoring({key: 0})


def test_set_edges_are_refused():
    # A set of two strings iterates in an order that follows the string
    # hash seed, and so would every edge direction, key and witness read
    # from it.
    for item in ({"a", "b"}, frozenset(("a", "b"))):
        with pytest.raises(ValueError, match=rf"^graph item {re.escape(repr(item))} is not a vertex pair$"):
            graph_vertices_edges([("b", "c"), item])
    key = frozenset(("a", "b"))
    with pytest.raises(ValueError, match=rf"^edge key {re.escape(repr(key))} is a vertex, not a vertex pair$"):
        EdgeColoring({key: 1, ("b", "c"): 0})
    coloring = EdgeColoring({("a", "b"): 1, ("b", "c"): 0})
    assert (coloring.get("a", "b"), coloring.get("b", "a"), coloring.k) == (1, 1, 2)
    assert coloring.get("a", "c") is None
    with pytest.raises(ValueError, match="^self-loop at 'a'$"):
        EdgeColoring({("a", "a"): 0})


def test_a_loop_is_refused_wherever_a_graph_is_read():
    # An edge from a vertex to itself has no span, and a witness that
    # coloured one could not be read back: its colouring refuses the loop.
    # So every reader of a graph refuses it first, by one rule.
    edges, order = [(0, 0), (0, 1)], int_order(2)
    coloring = EdgeColoring({(0, 1): 0})
    for call in (lambda: graph_vertices_edges(edges), lambda: stack_pages_for_order(edges, order),
                 lambda: queues_for_order(edges, order), lambda: validate_stack_layout(edges, order, coloring),
                 lambda: validate_queue_layout(edges, order, coloring), lambda: layout_to_json(order, coloring, edges)):
        with pytest.raises(ValueError, match="^self-loop at 0$"):
            call()
    with pytest.raises(ValueError, match="^self-loop at 'a'$"):
        graph_vertices_edges({"edges": [["a", "b"], ["a", "a"]]})
    # The rule is read with each item's pair, so a loop is named before a
    # later item that is not a pair at all.
    with pytest.raises(ValueError, match="^self-loop at 0$"):
        graph_vertices_edges([(0, 1), (0, 0), "x"])


@pytest.mark.parametrize("build", ["mapping", "three_queue", "queues", "pages"])
def test_edge_coloring_round_trips_through_its_edges(build):
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    coloring = {
        "mapping": lambda: EdgeColoring({(v, u): i % 3 for i, (u, v) in enumerate(g.edge_pairs())}),
        "three_queue": lambda: three_queue_layout(g)[1],
        "queues": lambda: queues_for_order(g, order).colors,
        "pages": lambda: stack_pages_for_order(g, order).colors,
    }[build]()
    again = EdgeColoring(dict(coloring.edges()), k=coloring.k)
    assert again.k == coloring.k and len(dict(again.edges())) == len(dict(coloring.edges())) == len(g.edges)
    assert again.colors_of(list(g.edge_pairs())) == coloring.colors_of([(v, u) for u, v in g.edge_pairs()])


def test_one_colour_pairs_frozen_cases():
    # Two edges on one page: a stack rejects only a crossing pair, a
    # queue only a nesting one, whichever way round each edge is given.
    order = int_order(6)
    for e, f, rel in [((0, 2), (1, 3), "cross"), ((2, 0), (3, 1), "cross"), ((0, 3), (1, 2), "nest"),
                      ((1, 2), (0, 3), "nest"), ((0, 1), (2, 3), "separate"), ((0, 2), (2, 4), "shared")]:
        one = EdgeColoring({e: 0, f: 0})
        assert validate_stack_layout([e, f], order, one).valid == (rel != "cross")
        assert validate_queue_layout([e, f], order, one).valid == (rel != "nest")


def test_validators_on_hand_built_layouts():
    order = int_order(4)
    edges = [(0, 2), (1, 3)]
    crossing = EdgeColoring({(0, 2): 0, (1, 3): 0})
    report = validate_stack_layout(edges, order, crossing)
    assert not report.valid
    assert report.violations == [layout.Violation((0, 2), (1, 3), PairRelation.CROSS, 0)]
    assert report.violations != [layout.Violation((0, 2), (1, 3), PairRelation.NEST, 0)]
    assert validate_queue_layout(edges, order, crossing).valid

    nesting = EdgeColoring({(0, 3): 0, (1, 2): 0})
    nest_edges = [(0, 3), (1, 2)]
    assert validate_stack_layout(nest_edges, order, nesting).valid
    report = validate_queue_layout(nest_edges, order, nesting)
    assert not report.valid and report.violations[0].relation is PairRelation.NEST

    # Distinct colors silence both validators.
    two_colors = EdgeColoring({(0, 2): 0, (1, 3): 1})
    assert validate_stack_layout(edges, order, two_colors).valid
    assert validate_queue_layout(edges, order, two_colors).valid


def test_validator_requires_all_edges_colored():
    order = int_order(3)
    with pytest.raises(ValueError):
        validate_stack_layout([(0, 1), (1, 2)], order, EdgeColoring({(0, 1): 0}))


def test_validators_reject_an_endpoint_outside_the_order():
    # Every edge is ranked, alone in its colour or beside an edge it
    # shares an endpoint with.
    order = int_order(3)
    for check in (validate_stack_layout, validate_queue_layout):
        with pytest.raises(ValueError, match="not in order"):
            check([(0, 9)], order, EdgeColoring({(0, 9): 0}))
        with pytest.raises(ValueError, match="not in order"):
            check([(0, 9), (0, 1)], order, EdgeColoring({(0, 9): 0, (0, 1): 0}))


@st.composite
def coloured_edge_lists(draw):
    """Edges over a shuffled order, with shared endpoints, repeated and
    reversed edges, and a colouring with up to three colours."""
    n = draw(st.integers(min_value=2, max_value=9))
    order = LinearOrder(draw(st.permutations(list(range(n)))))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=24,
        )
    )
    k = draw(st.integers(min_value=1, max_value=3))
    coloring = EdgeColoring({tuple(sorted(e)): draw(st.integers(0, k - 1)) for e in edges}, k=k)
    return edges, order, coloring


# Shared left and right ranks, reversed tuples, a repeated edge, and
# every relation, in one colour.
FROZEN_EDGES = [(0, 5), (0, 3), (5, 1), (2, 5), (1, 4), (4, 1), (2, 3), (3, 6), (6, 0), (1, 2)]


@given(case=coloured_edge_lists())
@example(case=(FROZEN_EDGES, int_order(7), EdgeColoring({e: 0 for e in FROZEN_EDGES})))
@example(case=(FROZEN_EDGES, int_order(7), EdgeColoring({e: i % 2 for i, e in enumerate(FROZEN_EDGES)})))
def test_kernels_match_reference(case):
    edges, order, coloring = case
    position = {v: r for r, v in enumerate(order)}
    colours = [coloring.get(*e) for e in edges]
    for check, conflict, rel in (
        (validate_stack_layout, edges_cross, PairRelation.CROSS),
        (validate_queue_layout, edges_nest, PairRelation.NEST),
    ):
        report = check(edges, order, coloring)
        expected = naive_violations(edges, colours, position, conflict)
        assert [(v.edge_a, v.edge_b, v.color) for v in report.violations] == expected
        assert all(v.relation is rel for v in report.violations)
        assert report.valid == (not expected)
    spans = _spans(edges, order)[2:]
    depths = naive_nesting_depths(edges, position)
    assert _nesting_depths(*spans) == (max(depths, default=0), depths)
    adjacency = conflict_adjacency(edges, position, edges_cross)
    assert [sorted(adj) for adj in _crossing_lists(*spans)] == [sorted(adj) for adj in adjacency]
    assert _crossing_rows(*spans) == [sum(1 << j for j in adj) for adj in adjacency]


@pytest.mark.parametrize("degrees, m", [((2,), 3), ((3,), 2), ((2, 2), 2), ((1, 2), 3)])
def test_product_inputs_match_the_reference(degrees, m):
    # The product path ranks edge ends by vertex id; the oracles rank
    # edge pairs by a position map.  Canonical, reversed and shuffled
    # orders, each with a colouring of one to three colours drawn per
    # edge and with the bulk-built three-queue colouring.
    rng = random.Random(f"product-{degrees}x{m}")
    g = boxslash_product(degrees, m)
    edges = list(g.edge_pairs())
    shuffled = list(g.vertices)
    rng.shuffle(shuffled)
    for vertices in (g.vertices, g.vertices[::-1], shuffled):
        order = LinearOrder(vertices)
        position = {v: r for r, v in enumerate(order)}
        k = rng.randint(1, 3)
        drawn = EdgeColoring({e: rng.randrange(k) for e in edges}, k=k)
        for coloring in (drawn, three_queue_layout(g)[1]):
            colours = [coloring.get(*e) for e in edges]
            for check, conflict in ((validate_stack_layout, edges_cross),
                                    (validate_queue_layout, edges_nest)):
                report = check(g, order, coloring)
                expected = naive_violations(edges, colours, position, conflict)
                assert [(v.edge_a, v.edge_b, v.color) for v in report.violations] == expected
        depths = naive_nesting_depths(edges, position)
        queues = queues_for_order(g, order)
        assert (queues.count, queues.exact) == (max(depths), True)
        assert [queues.colors.get(*e) + 1 for e in edges] == depths
        pages = stack_pages_for_order(g, order)
        page = [pages.colors.get(*e) for e in edges]
        adjacency = conflict_adjacency(edges, position, edges_cross)
        assert all(page[i] != page[j] for i, adj in enumerate(adjacency) for j in adj)
        assert pages.exact and pages.count == min_pages_for_position(edges, position)
        assert validate_stack_layout(g, order, pages.colors).valid


DAMAGES = ("rank swap", "colour change")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validators_on_a_damaged_product_layout_match_the_reference(data):
    # A canonical, reversed or shuffled order with the three-queue or a
    # drawn colouring, damaged once.  The verdict and the count are read
    # before any pair, so they come from the unordered rows.
    degrees = tuple(data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    g = boxslash_product(degrees, data.draw(st.integers(1, 5)))
    edges = list(g.edge_pairs())
    vertices = list(g.vertices)
    way = data.draw(st.sampled_from(("canonical", "reversed", "shuffled")))
    if way == "reversed":
        vertices.reverse()
    elif way == "shuffled":
        data.draw(st.randoms(use_true_random=False)).shuffle(vertices)
    if data.draw(st.booleans()):
        colours = list(three_queue_layout(g)[1].colors_of(g.edges))
    else:
        k = data.draw(st.integers(1, 3))
        colours = data.draw(st.lists(st.integers(0, k - 1), min_size=len(edges), max_size=len(edges)))
    if data.draw(st.sampled_from(DAMAGES)) == "rank swap":
        a, b = data.draw(st.lists(st.integers(0, len(vertices) - 1), min_size=2, max_size=2, unique=True))
        vertices[a], vertices[b] = vertices[b], vertices[a]
    else:
        t = data.draw(st.integers(0, len(edges) - 1))
        colours[t] = data.draw(st.integers(0, 3).filter(lambda c: c != colours[t]))
    # The undamaged canonical order is the product's own vertex tuple.
    order = canonical_order(g) if vertices == list(g.vertices) else LinearOrder(vertices)
    coloring = EdgeColoring(dict(zip(edges, colours)))
    position = {v: r for r, v in enumerate(vertices)}
    for check, conflict, rel in ((validate_stack_layout, edges_cross, PairRelation.CROSS),
                                 (validate_queue_layout, edges_nest, PairRelation.NEST)):
        report = check(g, order, coloring)
        valid, count = report.valid, len(report.violations)
        expected = naive_violations(edges, colours, position, conflict)
        assert (valid, count) == (not expected, len(expected))
        assert [(v.edge_a, v.edge_b, v.color) for v in report.violations] == expected
        assert all(v.relation is rel for v in report.violations)


@pytest.mark.parametrize("degrees, m", [((2,), 3), ((2, 2), 3), ((3, 1, 2), 2)])
def test_an_order_on_the_products_own_vertices_ranks_them_by_id(degrees, m):
    # canonical_order holds the product's vertex view and skips the
    # rank lookup; an order on a copy of it looks every vertex up.  Both
    # must give the same ranks, reports and fixed-order counts.
    g = boxslash_product(degrees, m)
    own, copy = canonical_order(g), LinearOrder(list(g.vertices))
    assert own.vertices is g.vertices and copy.vertices is not g.vertices
    assert own.ranks_of(g.vertices) == copy.ranks_of(g.vertices) == list(range(len(g)))
    # Vertices given any other way are looked up, the view's in a rank map
    # made on that first need; another product's equal view by its tuples.
    assert own.ranks_of(copy.vertices[::-1]) == list(range(len(g)))[::-1]
    assert copy.ranks_of(boxslash_product(degrees, m).vertices) == list(range(len(g)))
    assert copy.vertices[-1] in own and PVertex(g.vertices[0].node, m + 1) not in own
    with pytest.raises(ValueError, match=rf"^vertex r@{m + 1} not in order$"):
        own.ranks_of([PVertex(g.vertices[0].node, m + 1)])
    coloring = three_queue_layout(g)[1]
    for check in (validate_stack_layout, validate_queue_layout):
        a, b = check(g, own, coloring), check(g, copy, coloring)
        assert (a.valid, list(a.violations)) == (b.valid, list(b.violations))
    for count in (queues_for_order, stack_pages_for_order):
        a, b = count(g, own), count(g, copy)
        assert (a.count, a.exact, a.colors.colors_of(g.edges)) == (b.count, b.exact, b.colors.colors_of(g.edges))


def test_the_layout_sequence_makes_no_vertex_or_edge_object(monkeypatch):
    # The layout benchmark's seven calls on a product read its span table
    # and colour lists only.  Every vertex and edge a view hands out is
    # made through product.PVertex, so counting its calls counts both.
    made = []
    real = product.PVertex

    def counted(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(product, "PVertex", counted)
    g = boxslash_product((3, 2), 4)
    order, coloring = three_queue_layout(g)
    queue_report = validate_queue_layout(g, order, coloring)
    queues = queues_for_order(g, order)
    pages = stack_pages_for_order(g, order)
    pages_report = validate_stack_layout(g, order, pages.colors)
    stack_report = validate_stack_layout(g, order, coloring)
    assert (queue_report.valid, queues.count, pages_report.valid, stack_report.valid) == (True, 3, True, False)
    assert len(stack_report.violations) > 0 and made == []
    first, again = _spans(g, order, coloring), _spans(g, order)
    assert first[2] is again[2] is g.spans()[0] and first[3] is again[3] is g.spans()[1]
    assert first[1] is coloring.colors_of(g.edges) and made == []
    stack_report.violations[0]  # a violation read is made, from two edges
    assert len(made) == 4
    # An order and a colouring given as objects, as run_passes gets them,
    # are read for the product through plain tuples, not through new vertices.
    foreign_order = LinearOrder(reversed(g.vertices))
    foreign_colors = EdgeColoring({(v, u): c for (u, v, _), c in zip(g.edges, coloring.colors_of(g.edges))})
    made.clear()
    assert foreign_order.ranks_of(g.vertices) == list(range(len(g)))[::-1]
    assert foreign_colors.colors_of(g.edges) == coloring.colors_of(g.edges) and made == []
    # A graph read as plain vertices and edges, as the solvers read it,
    # makes each vertex once, and its edges share those vertices.
    vertices, edges = graph_vertices_edges(g)
    assert len(made) == len(g.vertices) and vertices == list(g.vertices) and edges == list(g.edge_pairs())
    assert all(u is vertices[g.vertices.id_of(u)] and v is vertices[g.vertices.id_of(v)] for u, v in edges)


def test_canonical_order_is_position_major_then_depth():
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    previous = None
    for v in order:
        key = (v.pos, len(v.node.path), v.node.path)
        if previous is not None:
            assert previous < key
        previous = key
    assert len(order) == len(g)


@pytest.mark.parametrize(
    "degrees,m",
    [((1,), 2), ((2,), 3), ((3,), 2), ((2, 2), 2), ((2, 2), 3), ((3, 2), 2), ((2, 2, 2), 2)],
)
def test_three_queue_layout_is_a_valid_3_queue_layout(degrees, m):
    g = boxslash_product(degrees, m)
    order, coloring = three_queue_layout(g)
    assert coloring.k <= 3
    report = validate_queue_layout(g, order, coloring)
    assert report.valid, report.violations[:3]
    # Second route: the reference nesting test over all same-color pairs.
    position = {v: r for r, v in enumerate(order)}
    edges = list(g.edge_pairs())
    for e, f in itertools.combinations(edges, 2):
        if coloring.get(*e) == coloring.get(*f):
            assert relation(e, f, position) != "nest"


def test_three_queue_layout_of_a_large_product():
    # A guard against a quadratic kernel: a pairwise check of these
    # 19,639 edges takes minutes, the rank sweep well under a second.
    # The stack page count, over one large conflict component, holds
    # adjacency lists, as the product is past the bit-row limit, and takes
    # about half a second.
    g = boxslash_product((10, 10), 60)
    assert len(g.edges) == 19639 > layout.CROSSING_ROW_LIMIT
    order, coloring = three_queue_layout(g)
    assert validate_queue_layout(g, order, coloring).valid
    assert queues_for_order(g, order).count == 3
    pages = stack_pages_for_order(g, order)
    assert pages.colors.k == pages.count
    assert validate_stack_layout(g, order, pages.colors).valid


@pytest.mark.parametrize("degrees, m", [((5, 5), 8), ((3, 3, 3), 6), ((2, 9), 4), ((6,), 10), ((3, 1, 2), 4)])
def test_valid_layouts_are_decided_without_listing(degrees, m, monkeypatch):
    # The three-queue layout and the stack witness, under the canonical
    # order and its reverse, are valid.  The sweep must see it without
    # listing: a valid queue layout is decided before the listing loop
    # places any span, and a valid stack layout places every span at the
    # end of the open ones, past every partner, so it only appends.
    g = boxslash_product(degrees, m)
    order, coloring = three_queue_layout(g)
    pages = stack_pages_for_order(g, order)  # sweeps its crossings, so before the patch
    reverse = LinearOrder(reversed(order.vertices))
    after = []  # for each place the sweep finds, how many kept spans lie past it

    def place(keys, key, *bounds):
        assert keys == sorted(keys), "a span was inserted out of place"
        at = bisect.bisect_right(keys, key, *bounds)
        after.append(len(keys) - at)
        return at

    monkeypatch.setattr(layout, "bisect_right", place)
    for way in (order, reverse):
        assert validate_queue_layout(g, way, coloring).valid
        assert after == []
        assert validate_stack_layout(g, way, pages.colors).valid
        assert len(after) == len(g.edges) and not any(after)
        after.clear()
    report = validate_stack_layout(g, order, coloring)
    assert not report.valid and len(report.violations) == len(list(report.violations)) > 0
    assert any(after)


def test_three_queue_layout_colors_follow_edge_kind():
    g = boxslash_product((2,), 3)
    _, coloring = three_queue_layout(g)
    kind_colors = {}
    for u, v, kind in g.edges:
        kind_colors.setdefault(kind, set()).add(coloring.get(u, v))
    assert all(len(used) == 1 for used in kind_colors.values())
    assert kind_colors[EdgeKind.VERTICAL] != kind_colors[EdgeKind.HORIZONTAL]


def test_stack_pages_for_order_matches_reference(monkeypatch):
    for _ in conflict_paths(monkeypatch):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(4, 8)
            pool = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pool, min(len(pool), rng.randrange(2, 9)))
            order = int_order(n)
            position = {v: v for v in range(n)}
            result = stack_pages_for_order(edges, order)
            assert result.exact
            assert result.count == min_pages_for_position(edges, position)
            assert validate_stack_layout(edges, order, result.colors).valid


def _reference_stack_pages(edges, position, exact_limit):
    """Each crossing-conflict component with what it should get: its
    chromatic number when at most ``exact_limit`` edges, else the colours
    of a greedy pass, most conflicts first, ties by index."""
    adj = conflict_adjacency(edges, position, edges_cross)
    seen, out = set(), []
    for s in range(len(edges)):
        if s in seen:
            continue
        comp, frontier = {s}, [s]
        while frontier:
            frontier = [w for v in frontier for w in adj[v] if w not in comp]
            comp.update(frontier)
        seen |= comp
        comp = sorted(comp)
        if len(comp) <= exact_limit:
            out.append((comp, chromatic_number([{comp.index(w) for w in adj[v]} for v in comp])))
            continue
        greedy = {}
        for v in sorted(comp, key=lambda v: (-len(adj[v]), v)):
            used = {greedy.get(w) for w in adj[v]}
            greedy[v] = min(c for c in range(len(comp)) if c not in used)
        out.append((comp, [greedy[v] for v in comp]))
    return out


def test_stack_pages_for_order_matches_reference_per_component(monkeypatch):
    # Blocks of vertices in disjoint stretches of the order: edges of
    # different blocks never cross, so each block adds its own conflict
    # components, some at most the exact-search limit and some beyond;
    # the limit is lowered so that both kinds stay small.  Both conflict
    # representations run the same draws, and must give the same colours.
    colourings = {}
    for path in conflict_paths(monkeypatch):
        colourings[path] = []
        rng = random.Random(17)
        seen_exact = seen_greedy = 0
        for _ in range(60):
            edges, start = [], 0
            for _ in range(rng.randrange(1, 5)):
                width = rng.randrange(4, 11)
                pool = list(itertools.combinations(range(start, start + width), 2))
                picked = rng.sample(pool, rng.randrange(1, min(len(pool), 2 * width) + 1))
                edges += [e if rng.random() < 0.5 else e[::-1] for e in picked]
                start += width
            rng.shuffle(edges)
            order = int_order(start)
            limit = rng.choice([0, 2, 4, 6])
            monkeypatch.setattr(layout, "EXACT_PAGE_LIMIT", limit)
            result = stack_pages_for_order(edges, order)
            colours = [result.colors.get(*e) for e in edges]
            colourings[path].append(colours)
            count, exact = 0, True
            for comp, expected in _reference_stack_pages(edges, {v: v for v in range(start)}, limit):
                got = [colours[v] for v in comp]
                if isinstance(expected, list):
                    seen_greedy += len(comp) > 1
                    exact = False
                    assert got == expected
                else:
                    seen_exact += len(comp) > 1
                    assert set(got) == set(range(expected))
                count = max(count, max(got) + 1)
            assert (result.count, result.exact, result.colors.k) == (count, exact, count)
            assert validate_stack_layout(edges, order, result.colors).valid
        assert seen_exact > 20 and seen_greedy > 20
    assert colourings["lists"] == colourings["rows"]


@pytest.mark.parametrize("m", [45, 46])
def test_both_conflict_representations_give_the_same_pages(m, monkeypatch):
    # (2,2,2,2) x 45 and x 46 have 4,034 and 4,125 edges, on either side
    # of the bit-row limit.  Under the canonical, reversed, node-major and
    # shuffled orders, adjacency lists and bit rows must give the same
    # count, exactness and colour on every edge.  The limit is inclusive:
    # at the edge count rows are used, one below it lists.
    g = boxslash_product((2, 2, 2, 2), m)
    assert abs(len(g.edges) - layout.CROSSING_ROW_LIMIT) < 100
    shuffled = list(g.vertices)
    random.Random(m).shuffle(shuffled)
    orders = (canonical_order(g), LinearOrder(reversed(g.vertices)),
              LinearOrder(sorted(g.vertices, key=lambda v: (v.node, v.pos))), LinearOrder(shuffled))
    seen = {}
    for path in conflict_paths(monkeypatch):
        seen[path] = []
        for order in orders:
            pages = stack_pages_for_order(g, order)
            seen[path].append((pages.count, pages.exact, pages.colors.k, pages.colors.colors_of(g.edges)))
    assert seen["lists"] == seen["rows"]
    assert len({count for count, *_ in seen["rows"]}) > 1
    calls = []
    for limit in (len(g.edges), len(g.edges) - 1):
        monkeypatch.setattr(layout, "CROSSING_ROW_LIMIT", limit)
        monkeypatch.setattr(layout, "_crossing_rows", lambda *a: calls.append("rows") or [0] * len(a[0]))
        monkeypatch.setattr(layout, "_crossing_lists", lambda *a: calls.append("lists") or [[] for _ in a[0]])
        assert stack_pages_for_order(g, orders[0]).count == 1
    assert calls == ["rows", "lists"]


def random_conflict_graph(rng, n):
    """Adjacency sets on n shuffled vertices, cut into parts that share
    no edge: each a random graph, a cycle (odd or even) or a clique."""
    labels = list(range(n))
    rng.shuffle(labels)
    adj, start = [set() for _ in range(n)], 0
    while start < n:
        part = labels[start : start + rng.randint(1, n - start)]
        shape = rng.choice(["random", "cycle", "clique"])
        if shape == "cycle" and len(part) >= 3:
            pairs = zip(part, part[1:] + part[:1])
        elif shape == "clique":
            pairs = itertools.combinations(part, 2)
        else:
            p = rng.random()
            pairs = [e for e in itertools.combinations(part, 2) if rng.random() < p]
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        start += len(part)
    return adj


def test_colouring_matches_the_chromatic_number_and_the_set_search():
    # try_color makes the set-based search's picks, colours and nodes.  The
    # bound decides an edge and, when ``below`` exceeds 2, an odd cycle, so
    # it is the chromatic number capped at 2 or 3; fewest_colours finds
    # exactly the chromatic number when it is below ``below``.  A straddle
    # group is one more vertex, adjacent to each vertex of the group.
    rng = random.Random(27)
    chis = Counter()
    for _ in range(300):
        n = rng.randint(0, 10)
        adj = random_conflict_graph(rng, n)
        masks = [sum(1 << w for w in nbrs) for nbrs in adj]
        chi = chromatic_number(adj)
        chis[chi] += 1
        for k in range(n + 2):
            counter = [0]
            assert (layout.try_color(masks, k, counter), counter[0]) == naive_dsatur(adj, k)
        for below in range(n + 2):
            assert layout.colours_lower_bound(masks, below) == min(chi, 3 if below > 2 else 2)
            found = layout.fewest_colours(masks, below)
            if chi >= below:
                assert found is None
                continue
            assert all(found[v] != found[w] for v in range(n) for w in adj[v])
            assert sorted(set(found)) == list(range(chi))
        groups = [g for g in (rng.getrandbits(n) for _ in range(rng.randint(0, 3))) if g]
        wider = [nbrs | {n + k for k, g in enumerate(groups) if g >> v & 1} for v, nbrs in enumerate(adj)]
        wider += [{v for v in range(n) if g >> v & 1} for g in groups]
        chi = chromatic_number(wider)
        for below in range(1, 5):
            assert layout.colours_lower_bound(masks, below, groups) == min(chi, 3 if below > 2 else 2)
    assert chis[0] and chis[1] > 10 and chis[2] > 30 and chis[3] > 30 and chis[4] > 10


def test_queues_for_order_matches_reference():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(4, 8)
        pool = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pool, min(len(pool), rng.randrange(2, 9)))
        order = int_order(n)
        position = {v: v for v in range(n)}
        result = queues_for_order(edges, order)
        assert result.exact
        assert result.count == min_queues_for_position(edges, position)
        assert result.count == max(naive_nesting_depths(edges, position), default=0)
        assert validate_queue_layout(edges, order, result.colors).valid


def test_fixed_order_empty_edges():
    order = int_order(3)
    assert stack_pages_for_order([], order).count == 0
    assert queues_for_order([], order).count == 0


def test_max_rainbow_frozen():
    # The queue count for a fixed order is the biggest rainbow.
    order, position = int_order(6), {v: v for v in range(6)}
    for edges, rainbow in [([(0, 5), (1, 4), (2, 3)], 3), ([(0, 1), (2, 3), (4, 5)], 1),
                           ([(0, 2), (1, 3)], 1)]:
        assert queues_for_order(edges, order).count == rainbow
        assert max(naive_nesting_depths(edges, position)) == rainbow


def test_greedy_fallback_kicks_in_past_the_component_limit(monkeypatch):
    # A long chain of pairwise-crossing edges in one conflict component.
    n = 60
    edges = [(i, i + 30) for i in range(30)]
    assert len(edges) > layout.EXACT_PAGE_LIMIT
    order = int_order(n)
    for _ in conflict_paths(monkeypatch):
        result = stack_pages_for_order(edges, order)
        assert not result.exact
        assert result.count >= 30  # they all mutually cross
        assert validate_stack_layout(edges, order, result.colors).valid


def test_layout_json_roundtrip():
    g = boxslash_product((2,), 2)
    order, coloring = three_queue_layout(g)
    edges = list(g.edge_pairs())
    doc = layout_to_json(order, coloring, edges)
    assert doc["k"] == coloring.k
    assert set(doc) == {"order", "colors", "k"}
    order2, coloring2 = layout_from_json(doc)
    assert list(order2) == list(order)
    assert coloring2.colors_of(edges) == coloring.colors_of(edges)


def test_graph_items_must_be_vertex_pairs():
    # The old (vertices, edges) reading is gone: both entries are items.
    # A product vertex is a tuple (node, pos), but one vertex, not an edge,
    # and a string unpacks into characters.
    vertex = PVertex.parse("1@2")
    for graph, item in [(([1, 2, 3], []), "[1, 2, 3]"), ([(1, 2), (1, 2, 3)], "(1, 2, 3)"), ([(1, 2), 5], "5"),
                        ([vertex, PVertex.parse("r@2")], repr(vertex)), (["ab", "bc"], "'ab'")]:
        with pytest.raises(ValueError, match=rf"graph item {re.escape(item)} is not a vertex pair"):
            graph_vertices_edges(graph)
    assert graph_vertices_edges(iter([(1, 2), [2, 3]])) == ([1, 2, 3], [(1, 2), (2, 3)])


@pytest.mark.parametrize("name", ["a--b", "a---b", "a-", "--"])
def test_ids_an_edge_key_cannot_give_back_are_rejected(name):
    # A key u--v is split at its first '--'.
    message = rf"vertex id '{name}' cannot be written in an edge key"
    with pytest.raises(ValueError, match=message):
        graph_vertices_edges({"edges": [[name, "c"], ["c", "d"]]})
    with pytest.raises(ValueError, match=message):
        layout_from_json({"order": ["c", name], "colors": {}}, parse_vertex=str)
    # A dash elsewhere is fine.
    assert graph_vertices_edges({"edges": [["-a", "b-c"]]}) == (["-a", "b-c"], [("-a", "b-c")])


def test_layout_json_rejects_bad_edge_keys():
    with pytest.raises(ValueError):
        layout_from_json({"order": ["r@1"], "colors": {"r@1": 0}, "k": 1})
