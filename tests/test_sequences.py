"""Monotone sequences and the bundled/rainbow classification of pairs."""

import pytest

from boxslash import (
    Direction,
    EdgeColoring,
    LinearOrder,
    RelatedKind,
    boxslash_product,
    direction_set,
    is_monotone,
    is_related,
    three_queue_layout,
)


def int_order(n):
    return LinearOrder(range(n))


def pair_coloring(a, b, color=0):
    return EdgeColoring({(x, y): color for x, y in zip(a, b)})


def test_direction_set_and_is_monotone():
    order = int_order(10)
    assert direction_set((2, 5, 9), order) == frozenset((Direction.INC,))
    assert direction_set((9, 5, 2), order) == frozenset((Direction.DEC,))
    assert direction_set((2, 9, 5), order) == frozenset()
    assert direction_set((4,), order) == frozenset((Direction.INC, Direction.DEC))
    assert is_monotone((2, 5), order) is Direction.INC
    assert is_monotone((5, 2), order) is Direction.DEC
    assert is_monotone((4,), order) is None
    assert is_monotone((2, 9, 5), order) is None
    with pytest.raises(ValueError):
        direction_set((), order)
    with pytest.raises(ValueError):
        direction_set((3, 3), order)
    assert Direction.INC.opposite is Direction.DEC


def test_is_related_classification():
    order = int_order(20)
    bundled = ((2, 4), (6, 8))
    assert is_related(*bundled, order, pair_coloring(*bundled)) == (RelatedKind.BUNDLED, 0)
    rainbow = ((2, 4), (8, 6))
    assert is_related(*rainbow, order, pair_coloring(*rainbow)) == (RelatedKind.RAINBOW, 0)
    # Singletons satisfy both readings; bundled wins.
    single = ((3,), (7,))
    assert is_related(*single, order, pair_coloring(*single))[0] is RelatedKind.BUNDLED


def test_is_related_rejections():
    order = int_order(20)
    # Not order consistent: the pairing changes sides.
    a, b = (2, 9), (5, 7)
    assert is_related(a, b, order, pair_coloring(a, b)) is None
    # Two colors.
    a, b = (2, 4), (6, 8)
    two = EdgeColoring({(2, 6): 0, (4, 8): 1})
    assert is_related(a, b, order, two) is None
    # A missing pairing edge.
    partial = EdgeColoring({(2, 6): 0})
    assert is_related(a, b, order, partial) is None
    # Non-monotone side.
    a, b = (2, 9, 5), (3, 10, 6)
    assert is_related(a, b, order, pair_coloring(a, b)) is None
    with pytest.raises(ValueError):
        is_related((1, 2), (3,), order, EdgeColoring({}))
    with pytest.raises(ValueError):
        is_related((1, 2), (2, 3), order, EdgeColoring({}))


def test_is_related_respects_graph_adjacency():
    graph = boxslash_product((2,), 2)
    order, coloring = three_queue_layout(graph)
    u, v, w = graph.vertices[0], graph.vertices[1], graph.vertices[4]
    # (u,) and its actual neighbor relate; a non-edge with a fake color does not.
    fake = EdgeColoring({(u, w): 0, (u, v): 0})
    assert is_related((v,), (u,), order, fake, graph) is not None
    assert graph.has_edge(u, v)
    if not graph.has_edge(u, w):
        assert is_related((w,), (u,), order, fake, graph) is None
