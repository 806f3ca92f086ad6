"""Exhaustive small-instance solvers against the factorial reference."""

import itertools
import math
import random

import pytest

from boxslash import (
    SizeLimitError,
    boxslash_product,
    probe_queue_lower_bound,
    queue_number,
    stack_number,
    validate_queue_layout,
    validate_stack_layout,
)
from helpers_naive import (
    complete_graph,
    naive_queue_number,
    naive_stack_number,
    star_graph,
)


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
    for trial in range(15):
        n = rng.randrange(3, 6)
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
    from_pair = queue_number((list(g.vertices), list(g.edge_pairs())))
    assert from_graph.value == from_edges.value == from_pair.value


def test_two_edge_lists_are_not_read_as_vertices_and_edges():
    # A 2-tuple is (vertices, edges) only when its second item is a list
    # of pairs drawn from its first; otherwise it is a list of two edges.
    for edges in [((1, 2), (3, 4)), (("ab", "cd"), ("ef", "gh"))]:
        for solve, check in ((stack_number, validate_stack_layout),
                             (queue_number, validate_queue_layout)):
            result = solve(edges)
            assert (result.value, result.exact) == (1, True)
            assert len(result.order) == 4
            assert list(result.edges) == list(edges)
            assert check(edges, result.order, result.coloring).valid


def test_edgeless_graph():
    result = stack_number(([1, 2, 3], []))
    assert result.value == 0 and result.exact
    assert len(result.order) == 3


def test_size_limit():
    with pytest.raises(SizeLimitError):
        stack_number(complete_graph(11))
    with pytest.raises(SizeLimitError):
        queue_number(complete_graph(11))


def test_expired_budget_degrades_to_a_bound():
    result = stack_number(complete_graph(8), budget_ms=0.0)
    assert not result.exact
    assert result.value >= 3  # any bound must sit at or above the optimum
    assert validate_stack_layout(result.edges, result.order, result.coloring).valid


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


def test_one_scan_visits_each_order_once():
    # K_n needs more than one queue, so every order up to reversal is
    # scanned, each once; the queue search runs no colouring search.
    for n in (4, 5, 6):
        result = queue_number(complete_graph(n))
        assert result.nodes_explored == math.factorial(n) // 2


def test_result_serialization():
    doc = stack_number(complete_graph(4)).to_json()
    assert doc["value"] == 2 and doc["exact"] is True
    assert doc["nodes_explored"] > 0
    assert len(doc["colors"]) == 6
    assert len(doc["order"]) == 4


def test_probe_finds_first_offender():
    family = [complete_graph(2), complete_graph(3), complete_graph(4)]
    report = probe_queue_lower_bound(family, 1)
    assert report.exceeded
    assert report.index == 2
    assert report.result.value == 2
    assert report.checked == 3


def test_probe_exhausts_quiet_family():
    family = [complete_graph(2), complete_graph(3)]
    report = probe_queue_lower_bound(family, 1)
    assert not report.exceeded
    assert report.index is None and report.result is None
    assert report.checked == 2
