"""Exhaustive small-instance solvers against the factorial reference."""

import itertools
import math
import random
import re

import pytest

from boxslash import (
    LinearOrder,
    ProductGraph,
    SizeLimitError,
    boxslash_product,
    queue_number,
    queues_for_order,
    stack_number,
    stack_pages_for_order,
    validate_queue_layout,
    validate_stack_layout,
)
from boxslash.solver import _nonplanar
from helpers_naive import (
    _vertices_of,
    complete_graph,
    edges_cross,
    edges_nest,
    min_pages_for_position,
    min_queues_for_position,
    naive_orders,
    naive_queue_number,
    naive_stack_number,
    naive_two_pages,
    star_graph,
)

KINDS = {
    "stack": (stack_number, validate_stack_layout, True, edges_cross, min_pages_for_position),
    "queue": (queue_number, validate_queue_layout, False, edges_nest, min_queues_for_position),
}


def test_complete_graph_values():
    k4 = stack_number(complete_graph(4))
    assert (k4.value, k4.exact) == (2, True)
    assert validate_stack_layout(k4.edges, k4.order, k4.coloring).valid

    k5 = stack_number(complete_graph(5))
    assert (k5.value, k5.exact) == (3, True)
    assert validate_stack_layout(k5.edges, k5.order, k5.coloring).valid

    q4 = queue_number(complete_graph(4))
    assert (q4.value, q4.exact) == (2, True)
    assert validate_queue_layout(q4.edges, q4.order, q4.coloring).valid

    star = queue_number(star_graph(5))
    assert (star.value, star.exact) == (1, True)
    assert validate_queue_layout(star.edges, star.order, star.coloring).valid


def test_agreement_with_reference_on_random_graphs():
    rng = random.Random(97)
    for trial in range(30):
        n = rng.randrange(3, 7)
        pool = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pool, rng.randrange(1, len(pool) + 1))
        fast = stack_number(edges)
        assert fast.exact
        assert fast.value == naive_stack_number(edges), (trial, edges)
        assert validate_stack_layout(edges, fast.order, fast.coloring).valid

        fast_q = queue_number(edges)
        assert fast_q.exact
        assert fast_q.value == naive_queue_number(edges), (trial, edges)
        assert validate_queue_layout(edges, fast_q.order, fast_q.coloring).valid


def test_graph_inputs_are_interchangeable():
    g = boxslash_product((1,), 2)
    from_graph = queue_number(g)
    from_edges = queue_number(list(g.edge_pairs()))
    from_doc = queue_number({"edges": [[str(u), str(v)] for u, v in g.edge_pairs()]})
    assert from_graph.value == from_edges.value == from_doc.value


def test_two_edge_lists_are_not_read_as_vertices_and_edges():
    # A 2-tuple is two edges, even when the second edge's ids spell out
    # the first edge's ends, as "ab" -- "ba" does for a -- b.
    for edges in [((1, 2), (3, 4)), (("ab", "cd"), ("ef", "gh")), (("a", "b"), ("ab", "ba"))]:
        for solve, check in ((stack_number, validate_stack_layout),
                             (queue_number, validate_queue_layout)):
            result = solve(edges)
            assert (result.value, result.exact) == (1, True)
            assert len(result.order) == 4
            assert list(result.edges) == list(edges)
            assert check(edges, result.order, result.coloring).valid


def test_edgeless_graph():
    result = stack_number([])
    assert result.value == 0 and result.exact
    assert len(result.order) == 0


def test_size_limit():
    with pytest.raises(SizeLimitError):
        stack_number(complete_graph(11))
    with pytest.raises(SizeLimitError):
        queue_number(complete_graph(11))


BIG = {"tree_degrees": [999], "path_len": 1000}


@pytest.mark.parametrize("doc", [BIG, {"graph": BIG}], ids=["descriptor", "under-graph"])
def test_a_descriptor_is_refused_before_its_product_is_built(monkeypatch, doc):
    # Building (999)x1000, a million vertices, took seconds and 500 MB.
    assert stack_number({"graph": {"tree_degrees": [1], "path_len": 3}}).value == 1

    def build(self, tree, path_len):
        raise AssertionError("the product was built")

    monkeypatch.setattr(ProductGraph, "__init__", build)
    for solve in (stack_number, queue_number):
        with pytest.raises(SizeLimitError, match=r"^exhaustive search is limited to 10 vertices, got 1000000$"):
            solve(doc)


#: K4,5 needs four pages.  Its edge counts give a floor of 2 and its
#: non-planarity one of 3, so no floor settles it: only the full search
#: (168,741 nodes) proves the optimum, far past the first deadline check.
K45 = [(a, b) for a in range(4) for b in range(4, 9)]


def test_a_loop_is_refused_before_the_vertex_count():
    # The solvers read a graph by layout.graph_vertices_edges, whose loop
    # rule runs before their count of vertices: eleven vertices, one over
    # the exhaustive limit, with a loop at 5 are refused for the loop.
    for solve in (stack_number, queue_number):
        with pytest.raises(ValueError, match="^self-loop at 0$"):
            solve([(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="^self-loop at 5$"):
            solve([(i, i + 1) for i in range(10)] + [(5, 5)])
        with pytest.raises(SizeLimitError):
            solve([(i, i + 1) for i in range(10)])


def test_expired_budget_degrades_to_a_bound():
    result = stack_number(K45, budget_ms=0.0)
    assert not result.exact
    assert result.value >= 4  # any bound must sit at or above the optimum
    assert validate_stack_layout(result.edges, result.order, result.coloring).valid


def test_expired_budget_returns_the_incumbent_not_the_input_order():
    # Both searches stop at their 64th unit with an incumbent of 2, where
    # the input order needs 3: the incumbent is what comes back.
    stack_edges = [(2, 7), (6, 7), (3, 5), (5, 6), (1, 5), (2, 4), (4, 7), (0, 1), (1, 2), (0, 6)]
    queue_edges = [(5, 6), (1, 5), (0, 4), (1, 6), (3, 5), (2, 5), (1, 4), (3, 4), (3, 6), (4, 5), (0, 5)]
    for solve, per_order, check, edges in (
        (stack_number, stack_pages_for_order, validate_stack_layout, stack_edges),
        (queue_number, queues_for_order, validate_queue_layout, queue_edges),
    ):
        start = LinearOrder(dict.fromkeys(w for e in edges for w in e))
        assert per_order(edges, start).count == 3
        result = solve(edges, budget_ms=0.0)
        assert (result.value, result.exact, result.coloring.k) == (2, False, 2)
        assert check(edges, result.order, result.coloring).valid


def test_expired_budget_keeps_the_incumbent():
    # With no budget the deadline check after 63 units ends the search,
    # and each unit covers at least one order of the scan: the result is
    # no worse than the best of its first 63 orders.  It is exact only
    # when it meets the search's floor, which is at least the density
    # bound: a page holds at most 2n - 3 edges, so ceil(E / (2n - 3)) = 2
    # here.  A valid layout at that bound is optimal; only an exact
    # result above it is checked against every order.
    rng = random.Random(5)
    pool = list(itertools.combinations(range(7), 2))
    for _ in range(6):
        edges = rng.sample(pool, 12)
        vertices = list(dict.fromkeys(w for e in edges for w in e))
        assert len(vertices) == 7  # more than 63 orders of either kind
        floor = -(-len(edges) // (2 * len(vertices) - 3))
        for solve, per_order, check, pin_first in (
            (stack_number, min_pages_for_position, validate_stack_layout, True),
            (queue_number, min_queues_for_position, validate_queue_layout, False),
        ):
            result = solve(edges, budget_ms=0.0)
            scanned = itertools.islice(naive_orders(vertices, pin_first), 63)
            best = min(per_order(edges, {v: i for i, v in enumerate(p)}) for p in scanned)
            assert floor <= result.value <= best
            if result.exact and result.value > floor:
                naive_number = naive_stack_number if pin_first else naive_queue_number
                assert result.value == naive_number(edges)
            if result.value == floor:
                assert result.exact
            assert result.coloring.k == result.value
            assert check(edges, result.order, result.coloring).valid


def test_complete_graph_is_exact_before_the_deadline():
    # K8 has more than n + 3(n - 3) = 23 edges, so its floor is four
    # pages, and the first order meets it before the first deadline check.
    result = stack_number(complete_graph(8), budget_ms=0.0)
    assert (result.value, result.exact) == (4, True)
    assert validate_stack_layout(result.edges, result.order, result.coloring).valid


@pytest.mark.parametrize("n", range(4, 11))
def test_complete_graphs_stop_at_the_edge_count_floor(n):
    # K_n needs ceil(n / 2) pages (Bernhart & Kainen 1979), which is its
    # floor, so the search ends at the first optimal order.
    result = stack_number(complete_graph(n))
    assert (result.value, result.exact) == (-(-n // 2), True)
    assert validate_stack_layout(result.edges, result.order, result.coloring).valid
    assert result.nodes_explored < 100


#: Pool graphs #100 and #116 of bench/solve_table.json: non-planar, with
#: a K5 or K3,3 minor that deleting and smoothing low-degree vertices
#: does not expose.
POOL_100 = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 6), (1, 7), (2, 3),
            (2, 4), (2, 5), (3, 4), (3, 6), (4, 5), (5, 6), (5, 7)]
POOL_116 = [(0, 1), (0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (2, 4), (2, 5),
            (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (5, 6)]


def test_nonplanarity_certificate_fires_on_kuratowski_minors():
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    assert _nonplanar(5, complete_graph(5))
    assert _nonplanar(6, k33)
    # One edge subdivided by vertex 6, and one pendant vertex 5.
    assert _nonplanar(7, [e for e in k33 if e != (0, 3)] + [(0, 6), (6, 3)])
    assert _nonplanar(6, complete_graph(5) + [(4, 5)])
    assert not _nonplanar(4, complete_graph(4))
    assert not _nonplanar(6, [e for e in k33 if e != (0, 3)])
    # Minors that no vertex of degree 2 or less hides.
    assert _nonplanar(8, POOL_100)
    assert _nonplanar(8, POOL_116)
    # K5 with vertices 3 and 4 each split into two adjacent vertices of
    # degree 3: 3 into 3 and 5, 4 into 4 and 6.  (Splitting one vertex
    # leaves a K3,3 subgraph.)
    assert _nonplanar(7, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (3, 5), (2, 5),
                          (4, 5), (0, 4), (4, 6), (1, 6), (2, 6)])
    # K3,3 with edge 0--3 subdivided by vertex 6, which is also joined to 1.
    assert _nonplanar(7, [e for e in k33 if e != (0, 3)] + [(0, 6), (6, 3), (6, 1)])
    # The Petersen graph is 3-regular, so nothing is smoothed away.
    petersen = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    assert _nonplanar(10, petersen)
    # The 8-cycle with two apexes: planar, with exactly 3n - 6 = 24 edges.
    bipyramid = [(i, (i + 1) % 8) for i in range(8)] + [(a, i) for a in (8, 9) for i in range(8)]
    assert not _nonplanar(10, bipyramid)


def test_nonplanarity_agrees_with_a_two_page_search():
    # Without networkx: on at most 10 vertices, planar means two pages.
    rng = random.Random(2601)
    fired = 0
    for n, count in ((6, 40), (7, 20)):
        for _ in range(count):
            pool = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pool, rng.randrange(9, 3 * n - 5))
            nonplanar = _nonplanar(n, edges)
            assert nonplanar == (not naive_two_pages(edges)), edges
            fired += nonplanar
    assert 10 < fired < 50  # both answers are well represented


def test_nonplanarity_certificate_is_exact():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2501)
    fired = 0
    for trial in range(2000):
        n = rng.randrange(5, 11)
        if trial % 2:
            pool = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pool, rng.randrange(n, min(3 * n, len(pool)) + 1))
        else:
            # Two graphs that share vertex k, which joins them at a cut vertex.
            k = rng.randrange(2, n - 2)
            edges = []
            for part in (range(k + 1), range(k, n)):
                pool = list(itertools.combinations(part, 2))
                edges += rng.sample(pool, rng.randrange(len(pool) // 2, len(pool) + 1))
        planar, _ = nx.check_planarity(nx.Graph(edges))
        assert _nonplanar(n, edges) == (not planar), edges
        fired += not planar
    assert 500 < fired < 1500  # both answers are well represented


def test_nonplanarity_certificate_never_fires_on_a_planar_graph():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2411)
    fired = 0
    for _ in range(2000):
        n = rng.randrange(5, 11)
        pool = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pool, rng.randrange(n, min(3 * n, len(pool)) + 1))
        planar, _ = nx.check_planarity(nx.Graph(edges))
        if _nonplanar(n, edges):
            assert not planar, edges
            fired += 1
    assert fired > 100  # the draw reaches non-planar graphs the certificate finds


#: Non-planar 7-vertex graphs from a seeded draw that keep no K5 or K3,3
#: subgraph once low-degree vertices are deleted and smoothed.  (No
#: 6-vertex graph does: 20,000 drawn, none.)
HIDDEN_MINORS = [
    [(0, 1), (0, 2), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (2, 4), (2, 6),
     (3, 5), (3, 6), (4, 5)],
    [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 6),
     (4, 5), (4, 6), (5, 6)],
    [(0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4),
     (3, 5), (4, 5), (4, 6)],
]


def test_non_planar_graphs_agree_with_the_reference():
    # Non-planarity lifts these floors to three pages; a false floor
    # would stop the search at a non-optimal order.
    rng = random.Random(2412)
    drawn = []
    while len(drawn) < 8:
        n = rng.randrange(6, 8)
        edges = rng.sample(list(itertools.combinations(range(n), 2)), rng.randrange(9, 16))
        if _nonplanar(n, edges):
            drawn.append(edges)
    for edges in drawn + HIDDEN_MINORS:
        result = stack_number(edges)
        assert (result.value, result.exact) == (naive_stack_number(edges), True), edges
        assert validate_stack_layout(edges, result.order, result.coloring).valid
        assert result.order.vertices == _first_order_within(edges, "stack", result.value)


def test_upper_limit_cap_degrades_to_a_bound():
    result = stack_number(complete_graph(5), upper_limit=1)
    assert not result.exact
    assert result.value >= 3
    assert validate_stack_layout(result.edges, result.order, result.coloring).valid


@pytest.mark.parametrize("limit", [0, -1])
def test_upper_limit_below_one_is_rejected(limit):
    for solve in (stack_number, queue_number):
        with pytest.raises(ValueError, match="upper_limit must be at least 1"):
            solve(complete_graph(7), upper_limit=limit)


@pytest.mark.parametrize("limit", [2.5, True, "2"])
def test_non_integer_upper_limit_is_rejected(limit):
    for solve in (stack_number, queue_number):
        with pytest.raises(ValueError, match=rf"^upper_limit must be an integer, got {re.escape(repr(limit))}$"):
            solve(complete_graph(4), upper_limit=limit)


def test_prefix_search_scores_fewer_nodes_than_orders():
    # K_n needs more than one queue; the pruned prefixes leave fewer
    # nodes than the n!/2 orders up to reversal a flat scan would score.
    for n in (4, 5, 6):
        edges = complete_graph(n)
        result = queue_number(edges)
        assert (result.value, result.exact) == (naive_queue_number(edges), True)
        assert validate_queue_layout(edges, result.order, result.coloring).valid
        assert result.nodes_explored < math.factorial(n) // 2


def _first_order_within(edges, kind, k):
    """The first order of naive_orders with at most k pages or queues."""
    _, _, pin_first, conflict, per_order = KINDS[kind]
    for perm in naive_orders(_vertices_of(edges), pin_first):
        position = {v: i for i, v in enumerate(perm)}
        if k == 1:  # one colour fits exactly when no pair conflicts
            fits = not any(conflict(e, f, position) for e, f in itertools.combinations(edges, 2))
        else:
            fits = per_order(edges, position) <= k
        if fits:
            return perm
    return None


def _oracle_cases():
    rng = random.Random(2303)
    for n, size in ((4, 4), (5, 6), (5, 8), (6, 8), (6, 11), (6, 13), (7, 15)):
        edges = rng.sample(list(itertools.combinations(range(n), 2)), size)
        yield f"random n={n} e={size}", edges, True
    # Complete graphs need more than the density bound: the search goes
    # on past its first optimal order.
    for n in (5, 6):
        yield f"K{n}", complete_graph(n), True
    # The four smallest products of the solve table; those on 8 vertices
    # take their optimum over naive_orders, as bench/make_solve_table.py does.
    for degrees, m in (((1,), 4), ((2,), 2), ((3,), 2), ((1, 2), 2)):
        yield f"product{list(degrees)}x{m}", list(boxslash_product(degrees, m).edge_pairs()), False


@pytest.mark.parametrize("kind", ["stack", "queue"])
def test_witness_is_the_first_optimal_order_of_the_scan(kind):
    solve, check, *_ = KINDS[kind]
    naive_number = naive_stack_number if kind == "stack" else naive_queue_number
    for name, edges, small in _oracle_cases():
        if small:
            optimum = naive_number(edges)
            witness = _first_order_within(edges, kind, optimum)
        else:
            optimum, witness = next(
                (k, w) for k in itertools.count(1) if (w := _first_order_within(edges, kind, k))
            )
        for limit in (None, 1, 2):
            result = solve(edges, upper_limit=limit)
            assert check(edges, result.order, result.coloring).valid, (name, limit)
            assert result.coloring.k == result.value
            if limit is None or limit >= optimum:
                assert (result.value, result.exact) == (optimum, True), (name, limit)
                assert result.order.vertices == witness, (name, limit)
            else:
                assert not result.exact and result.value >= optimum, (name, limit)


def test_reversed_duplicate_edge_changes_nothing():
    # A triangulated hexagon, outer cycle 0-2-4-1-3-5: 2n - 3 = 9 distinct
    # edges on one page.  Counting the duplicate too would raise the
    # density bound to 2 and stop the search at the first 2-page order.
    edges = [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0), (0, 4), (0, 1), (0, 3)]
    for solve, check, *_ in KINDS.values():
        plain = solve(edges)
        doubled = solve(edges + [(2, 0)])
        assert (doubled.value, doubled.exact) == (plain.value, plain.exact)
        assert doubled.order.vertices == plain.order.vertices
        assert check(edges, doubled.order, doubled.coloring).valid


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0, True, "5"])
def test_bad_budgets_are_rejected(budget):
    # True once ran as a 1 ms budget, and "5" raised a bare TypeError.
    message = rf"^budget_ms must be a finite number at least 0, got {re.escape(repr(budget))}$"
    for solve in (stack_number, queue_number):
        with pytest.raises(ValueError, match=message):
            solve(complete_graph(8), budget_ms=budget)


def test_result_serialization():
    doc = stack_number(complete_graph(4)).to_json()
    assert doc["value"] == 2 and doc["exact"] is True
    assert doc["nodes_explored"] > 0
    assert len(doc["colors"]) == 6
    assert len(doc["order"]) == 4
