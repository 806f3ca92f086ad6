"""The reference implementations must hold up on their own.

Frozen small cases first, then a cross-check of the chromatic number
against brute force, so the rest of the suite can lean on them.
"""

import itertools
import random

from helpers_naive import (
    brute_longest_monotone,
    chromatic_number,
    complete_graph,
    edges_cross,
    edges_nest,
    labels_alternate,
    min_pages_for_position,
    min_queues_for_position,
    naive_queue_number,
    naive_stack_number,
    relation,
    star_graph,
)


def test_relation_basics():
    position = {v: v for v in range(10)}
    assert relation((0, 2), (1, 3), position) == "cross"
    assert relation((0, 3), (1, 2), position) == "nest"
    assert relation((0, 1), (2, 3), position) == "separate"
    assert relation((0, 1), (1, 2), position) == "shared"
    # Sorting the endpoints is the oracle's job, not the caller's.
    assert relation((2, 0), (3, 1), position) == "cross"


def test_cross_and_nest_are_symmetric_and_exclusive():
    position = {v: v for v in range(6)}
    pool = list(itertools.combinations(range(6), 2))
    for e, f in itertools.combinations(pool, 2):
        assert edges_cross(e, f, position) == edges_cross(f, e, position)
        assert edges_nest(e, f, position) == edges_nest(f, e, position)
        assert not (edges_cross(e, f, position) and edges_nest(e, f, position))
        if not set(e) & set(f):
            ends = sorted([(position[v], 0) for v in e] + [(position[v], 1) for v in f])
            assert edges_cross(e, f, position) == labels_alternate(ends)


def test_chromatic_number_frozen_cases():
    # Triangle, 5-cycle, bipartite K_{3,3}, and the empty graph.
    triangle = [{1, 2}, {0, 2}, {0, 1}]
    assert chromatic_number(triangle) == 3
    five_cycle = [{1, 4}, {0, 2}, {1, 3}, {2, 4}, {3, 0}]
    assert chromatic_number(five_cycle) == 3
    k33 = [{3, 4, 5}] * 3 + [{0, 1, 2}] * 3
    assert chromatic_number(k33) == 2
    assert chromatic_number([]) == 0
    assert chromatic_number([set(), set()]) == 1


def test_chromatic_number_matches_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 7)
        adj = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i].add(j)
                    adj[j].add(i)
        got = chromatic_number(adj)
        brute = None
        for k in range(1, n + 1):
            ok = any(
                all(assign[i] != assign[j] for i in range(n) for j in adj[i] if i < j)
                for assign in itertools.product(range(k), repeat=n)
            )
            if ok:
                brute = k
                break
        assert got == brute


def test_known_stack_and_queue_numbers():
    assert naive_stack_number(complete_graph(4)) == 2
    assert naive_stack_number(complete_graph(5)) == 3
    assert naive_queue_number(complete_graph(4)) == 2
    assert naive_queue_number(star_graph(5)) == 1
    assert naive_stack_number([]) == 0
    # A path needs one page and one queue in its natural order.
    path = [(i, i + 1) for i in range(4)]
    assert naive_stack_number(path) == 1
    assert naive_queue_number(path) == 1


def test_fixed_order_oracles():
    position = {v: v for v in range(4)}
    crossing_pair = [(0, 2), (1, 3)]
    assert min_pages_for_position(crossing_pair, position) == 2
    assert min_queues_for_position(crossing_pair, position) == 1
    nesting_pair = [(0, 3), (1, 2)]
    assert min_pages_for_position(nesting_pair, position) == 1
    assert min_queues_for_position(nesting_pair, position) == 2


def test_alternation_helper():
    assert labels_alternate([(1, 0), (2, 1), (3, 0)])
    assert not labels_alternate([(1, 0), (2, 0)])
    assert labels_alternate([])


def test_brute_longest_monotone():
    assert brute_longest_monotone([]) == 0
    assert brute_longest_monotone([5]) == 1
    assert brute_longest_monotone([3, 1, 2]) == 2
    assert brute_longest_monotone([1, 2, 3, 4]) == 4
    assert brute_longest_monotone([2, 4, 1, 3]) == 2
