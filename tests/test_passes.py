"""Thinning passes, monotone extraction, and the direction table."""

import itertools
import random

import pytest

from boxslash import (
    ColorTable,
    Direction,
    DirectionTable,
    EdgeColoring,
    EdgeKind,
    InconsistencyError,
    LinearOrder,
    NodeIndex,
    PassStarvation,
    PassState,
    PreconditionError,
    PVertex,
    SizeLimitError,
    boxslash_product,
    canonical_order,
    check_child_symmetry,
    check_direction_consistency,
    check_identity_permutation,
    check_related_sequence_families,
    extract_direction_table,
    find_monotone_subsequence,
    lex_monotone_subarray,
    pass_colour,
    pass_lex,
    pass_order,
    run_passes,
    three_queue_layout,
    verify_lex_monotone,
)
from boxslash import passes
from boxslash.passes import restrict
from helpers_naive import brute_longest_monotone


def is_subsequence(sub, full):
    it = iter(full)
    return all(x in it for x in sub)


def pv(text):
    return PVertex.parse(text)


def order_of(names):
    return LinearOrder(pv(s) for s in names)


def state_of(g, order=None, coloring=None):
    """Initial pass state; the three-queue layout fills what is not given."""
    canonical, queues = three_queue_layout(g)
    return PassState.initial(g, order or canonical, coloring or queues)


# ---------------------------------------------------------------------------
# Monotone subsequences.

def test_find_monotone_subsequence_frozen():
    assert find_monotone_subsequence([3, 1, 2], 2) == [1, 2]
    assert find_monotone_subsequence([4, 1, 3, 2], 3) == [4, 3, 2]
    assert find_monotone_subsequence([2, 1, 4, 3], 3) is None
    assert find_monotone_subsequence([], 1) is None
    assert find_monotone_subsequence([7], 1) == [7]


def test_find_monotone_subsequence_rejections():
    with pytest.raises(ValueError):
        find_monotone_subsequence([1, 1, 2], 2)
    with pytest.raises(ValueError):
        find_monotone_subsequence([1, 2], 0)


def test_find_monotone_subsequence_is_maximal_and_valid():
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randrange(1, 9)
        values = rng.sample(range(50), n)
        best = brute_longest_monotone(values)
        got = find_monotone_subsequence(values, 1)
        assert got is not None
        assert len(got) == best
        assert is_subsequence(got, values)
        ranks = got
        assert all(a < b for a, b in zip(ranks, ranks[1:])) or all(
            a > b for a, b in zip(ranks, ranks[1:])
        )
        # Asking beyond the maximum must fail, asking at it must succeed.
        assert find_monotone_subsequence(values, best) is not None
        assert find_monotone_subsequence(values, best + 1) is None


def test_guarantee_length_always_succeeds():
    # (target-1)^2 + 1 = 10 for target 4.
    rng = random.Random(47)
    for _ in range(40):
        values = rng.sample(range(100), 10)
        got = find_monotone_subsequence(values, 4)
        assert got is not None and len(got) >= 4


# ---------------------------------------------------------------------------
# Lex-monotone subarrays.

def test_lex_subarray_one_dimension():
    witness = lex_monotone_subarray([5, 1, 4, 2], 2)
    assert witness is not None
    assert witness.sigma == (0,)
    assert witness.signs == (Direction.INC,)
    assert witness.index_sets == ((1, 2),)
    assert verify_lex_monotone([5, 1, 4, 2], witness)
    assert lex_monotone_subarray([1, 2], 3) is None


def test_lex_subarray_agrees_with_monotone_search():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randrange(2, 8)
        values = rng.sample(range(40), n)
        for target in range(2, n + 1):
            witness = lex_monotone_subarray(values, target)
            found = find_monotone_subsequence(values, target)
            assert (witness is None) == (found is None)
            if witness is not None:
                assert verify_lex_monotone(values, witness)


def test_lex_subarray_two_dimensions():
    rng = random.Random(59)
    for _ in range(10):
        flat = rng.sample(range(1000), 100)
        array = [flat[i * 10 : (i + 1) * 10] for i in range(10)]
        witness = lex_monotone_subarray(array, 2)
        assert witness is not None
        assert tuple(len(s) for s in witness.index_sets) == (2, 2)
        assert verify_lex_monotone(array, witness)


def test_lex_subarray_witness_semantics():
    # Rank array of a 2x2 identity layout: row-major increasing.
    array = [[0, 1], [2, 3]]
    witness = lex_monotone_subarray(array, 2)
    assert witness.sigma == (0, 1)
    assert witness.signs == (Direction.INC, Direction.INC)
    assert witness.index_sets == ((0, 1), (0, 1))
    # A value pattern that needs the axis swap.
    swapped = [[0, 2], [1, 3]]
    witness = lex_monotone_subarray(swapped, 2)
    assert verify_lex_monotone(swapped, witness)
    assert witness.sigma == (1, 0)


def test_lex_subarray_limits():
    with pytest.raises(SizeLimitError):
        lex_monotone_subarray([[[[1]]]], 1)
    with pytest.raises(SizeLimitError):
        lex_monotone_subarray(list(range(13)), 2)
    with pytest.raises(ValueError):
        lex_monotone_subarray([1, 1], 1)


# ---------------------------------------------------------------------------
# Tables.

def test_color_table_signature_and_layout():
    g = boxslash_product((2, 2), 2)
    order, coloring = three_queue_layout(g)
    table = ColorTable.from_layout(g, coloring)
    u, v, kind = g.edges[0]
    assert table.color_of(*ColorTable.signature(u, v, kind)) == coloring.color(u, v)
    sig = ColorTable.signature(pv("1.2@1"), pv("1@1"), EdgeKind.VERTICAL)
    assert sig == (2, 1, EdgeKind.VERTICAL)
    with pytest.raises(ValueError):
        table.color_of(9, 9, EdgeKind.VERTICAL)
    doc = table.to_json()
    assert all(isinstance(c, int) for c in doc["entries"].values())


def test_color_table_conflict():
    g = boxslash_product((2,), 1)
    conflicting = EdgeColoring(
        {(pv("1@1"), pv("r@1")): 0, (pv("2@1"), pv("r@1")): 1}
    )
    with pytest.raises(InconsistencyError):
        ColorTable.from_layout(g, conflicting)


def full_table(height, path_len, direction=Direction.INC):
    entries = {
        (i, j, p): direction
        for i in range(1, height + 1)
        for j in range(i, height + 1)
        for p in range(1, path_len + 1)
    }
    return DirectionTable(height, path_len, entries)


def test_direction_table_domain():
    table = full_table(3, 2)
    assert table.direction(1, 3, 2) is Direction.INC
    with pytest.raises(ValueError):
        table.direction(3, 1, 1)  # i > j is outside the triangle
    entries = dict(table.entries)
    del entries[(1, 1, 1)]
    with pytest.raises(ValueError):
        DirectionTable(3, 2, entries)
    entries = dict(table.entries)
    entries[(3, 4, 1)] = Direction.INC
    with pytest.raises(ValueError):
        DirectionTable(3, 2, entries)
    entries = dict(table.entries)
    entries[(1, 1, 1)] = "inc"
    with pytest.raises(ValueError):
        DirectionTable(3, 2, entries)


def test_direction_table_json_roundtrip():
    table = full_table(2, 3)
    doc = table.to_json()
    again = DirectionTable.from_json(doc)
    assert again.entries == table.entries
    assert again.height == 2 and again.path_len == 3


# ---------------------------------------------------------------------------
# The colour pass.

def test_pass_colour_keeps_the_larger_matching_bucket():
    g = boxslash_product((4,), 1)
    coloring = EdgeColoring(
        {
            (pv("1@1"), pv("r@1")): 0,
            (pv("2@1"), pv("r@1")): 1,
            (pv("3@1"), pv("r@1")): 0,
            (pv("4@1"), pv("r@1")): 1,
        }
    )
    result = pass_colour(state_of(g, coloring=coloring))
    assert result.graph.tree.spec.degrees == (2,)
    assert result.node_map[NodeIndex((1,))] == NodeIndex((1,))
    assert result.node_map[NodeIndex((3,))] == NodeIndex((2,))
    assert NodeIndex((2,)) not in result.node_map
    for u, v, kind in result.graph.edges:
        assert result.coloring.color(u, v) == 0
    table = ColorTable.from_layout(result.graph, result.coloring)
    assert table.color_of(1, 1, EdgeKind.VERTICAL) == 0


def test_pass_colour_starvation():
    g = boxslash_product((4,), 1)
    coloring = EdgeColoring(
        {
            (pv("1@1"), pv("r@1")): 0,
            (pv("2@1"), pv("r@1")): 1,
            (pv("3@1"), pv("r@1")): 0,
            (pv("4@1"), pv("r@1")): 1,
        }
    )
    with pytest.raises(PassStarvation) as err:
        pass_colour(state_of(g, coloring=coloring), targets=3)
    assert err.value.stage == "colour"
    assert err.value.available == 2 and err.value.wanted == 3


def test_pass_colour_full_survival_on_uniform_layout():
    g = boxslash_product((2, 2), 2)
    result = pass_colour(state_of(g))
    assert result.graph.tree.spec.degrees == (2, 2)
    assert len(result.graph) == len(g)


# ---------------------------------------------------------------------------
# The order pass.

def test_pass_order_prunes_order_anomalies():
    g = boxslash_product((2,), 2)
    # Child 2 has its two path positions swapped relative to child 1.
    order = order_of(["r@1", "1@1", "2@2", "r@2", "1@2", "2@1"])
    result = pass_order(state_of(g, order))
    assert result.graph.tree.spec.degrees == (1,)
    assert result.node_map == {
        NodeIndex(()): NodeIndex(()),
        NodeIndex((1,)): NodeIndex((1,)),
    }
    assert check_child_symmetry(result.graph, result.order).ok


def test_pass_order_full_survival_on_canonical():
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    result = pass_order(state_of(g, order))
    assert result.graph.tree.spec.degrees == (2, 2)
    assert check_child_symmetry(result.graph, result.order).ok
    assert list(result.order) == list(order)


def test_check_child_symmetry_detects_asymmetry():
    g = boxslash_product((2,), 2)
    good = check_child_symmetry(g, canonical_order(g))
    assert good.ok and good.checked > 0
    bad = check_child_symmetry(g, order_of(["r@1", "1@1", "2@2", "r@2", "1@2", "2@1"]))
    assert not bad.ok


# ---------------------------------------------------------------------------
# The lex pass.

def test_pass_lex_identity_on_canonical():
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    result, witnesses = pass_lex(state_of(g, order))
    assert result.graph.tree.spec.degrees == (2, 2)
    assert set(witnesses) == {(level, p) for level in (1, 2) for p in (1, 2)}
    for witness in witnesses.values():
        assert witness.signs == tuple([Direction.INC] * len(witness.signs))
        assert all(list(s) == list(range(len(s))) for s in witness.index_sets)


def test_pass_lex_starves_on_scrambled_order():
    g = boxslash_product((3,), 1)
    scrambled = order_of(["r@1", "1@1", "3@1", "2@1"])
    with pytest.raises(PassStarvation) as err:
        pass_lex(state_of(g, scrambled))
    assert err.value.stage == "lex"
    assert err.value.level == (1, 1)


def test_pass_lex_truncates_to_target():
    g = boxslash_product((3,), 1)
    scrambled = order_of(["r@1", "1@1", "3@1", "2@1"])
    result, _ = pass_lex(state_of(g, scrambled), targets=2)
    assert result.graph.tree.spec.degrees == (2,)
    kept = tuple(sorted(n.path[0] for n in result.node_map if n.depth == 1))
    assert kept == (1, 2)  # first combination scanned: ranks 1 < 3 already increase
    assert [str(v) for v in result.order] == ["r@1", "1@1", "2@1"]


# ---------------------------------------------------------------------------
# Direction extraction and checks.

def test_extract_direction_table_canonical_and_reversed():
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    table = extract_direction_table(g, order)
    assert set(table.entries.values()) == {Direction.INC}
    reverse = extract_direction_table(g, order.reversed())
    assert set(reverse.entries.values()) == {Direction.DEC}


def test_extract_direction_table_preconditions():
    g = boxslash_product((1,), 1)
    with pytest.raises(PreconditionError):
        extract_direction_table(g, canonical_order(g))


def test_extract_direction_table_rejects_non_monotone():
    g = boxslash_product((3,), 1)
    with pytest.raises(InconsistencyError):
        extract_direction_table(g, order_of(["r@1", "1@1", "3@1", "2@1"]))


def test_check_identity_permutation_canonical():
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    assert check_identity_permutation(g, order).ok
    assert check_identity_permutation(g, order.reversed()).ok


def test_check_identity_permutation_violation():
    g = boxslash_product((2, 2), 1)
    order = order_of(["r@1", "1@1", "2@1", "1.2@1", "2.2@1", "1.1@1", "2.1@1"])
    report = check_identity_permutation(g, order)
    assert not report.ok
    assert ("1.1", "2.2", 1, "inc") in report.violations


def test_check_direction_consistency():
    table = full_table(3, 1)
    report = check_direction_consistency(table)
    assert report.ok and report.checked > 0
    entries = dict(table.entries)
    entries[(1, 2, 1)] = Direction.DEC
    corrupted = DirectionTable(3, 1, entries)
    report = check_direction_consistency(corrupted)
    assert ("vertical", 2, 2, 1) in report.violations


def test_check_related_sequence_families():
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    _, coloring = three_queue_layout(g)
    table = ColorTable.from_layout(g, coloring)
    report = check_related_sequence_families(g, order, coloring, table)
    assert report.ok and report.checked > 0

    tampered_entries = {
        sig: (c + 1) % 3 for sig, c in table.entries.items()
    }
    tampered = ColorTable(tampered_entries)
    report = check_related_sequence_families(g, order, coloring, tampered)
    assert not report.ok


# ---------------------------------------------------------------------------
# Restriction and the full pipeline.

def test_restrict_follows_the_node_map():
    g = boxslash_product((2,), 2)
    state = state_of(g)
    kept = restrict(state, {NodeIndex(()): (2,)})
    assert [str(v) for v in kept.order] == ["r@1", "1@1", "r@2", "1@2"]
    old_edge = (pv("2@1"), pv("r@1"))
    new_edge = (pv("1@1"), pv("r@1"))
    assert kept.coloring.color(*new_edge) == state.coloring.color(*old_edge)

    # Two restrictions in a row compose their node maps.
    g = boxslash_product((3, 2), 2)
    start = state_of(g)
    once = restrict(start, {NodeIndex(()): (1, 3)})
    # Child 2 of the root is now what was child 3.
    twice = restrict(once, {NodeIndex((1,)): (2,), NodeIndex((2,)): (2,)})
    assert twice.graph.tree.spec.degrees == (2, 1)
    assert twice.node_map == {
        NodeIndex(()): NodeIndex(()),
        NodeIndex((1,)): NodeIndex((1,)),
        NodeIndex((3,)): NodeIndex((2,)),
        NodeIndex((1, 2)): NodeIndex((1, 1)),
        NodeIndex((3, 2)): NodeIndex((2, 1)),
    }
    # The order is the input order restricted to the survivors, renamed,
    # and every surviving edge keeps the colour of the edge it came from.
    inverse = {new: old for old, new in twice.node_map.items()}

    def original(v):
        return PVertex(inverse[v.node], v.pos)

    assert [original(v) for v in twice.order] == [
        v for v in start.order if v.node in twice.node_map
    ]
    for u, v in twice.graph.edge_pairs():
        assert twice.coloring.color(u, v) == start.coloring.color(original(u), original(v))
    assert twice.coloring.k == start.coloring.k


def test_run_passes_checks_child_symmetry_once(monkeypatch):
    calls = []
    real = passes.check_child_symmetry

    def counting(graph, order):
        calls.append(len(graph))
        return real(graph, order)

    monkeypatch.setattr(passes, "check_child_symmetry", counting)
    g = boxslash_product((2, 2), 2)
    order, coloring = three_queue_layout(g)
    result = run_passes(g, order, coloring)
    assert calls == [len(result.graph)]


def test_run_passes_canonical_identity():
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    _, coloring = three_queue_layout(g)
    result = run_passes(g, order, coloring)
    assert result.graph.tree.spec.degrees == (2, 2)
    assert result.node_map == {n: n for n in g.tree.nodes}
    assert result.order_report.ok
    assert result.related_report.ok
    assert set(result.direction_table.entries.values()) == {Direction.INC}
    assert check_direction_consistency(result.direction_table).ok
    assert check_identity_permutation(result.graph, result.order).ok

    reversed_result = run_passes(g, order.reversed(), coloring)
    assert set(reversed_result.direction_table.entries.values()) == {Direction.DEC}


def test_run_passes_with_shrinking_targets():
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    _, coloring = three_queue_layout(g)
    result = run_passes(g, order, coloring, colour_targets=(1, 1))
    assert result.graph.tree.spec.degrees == (1, 1)
    assert result.direction_table is None  # too thin to read directions from
    assert result.order_report.ok and result.related_report.ok
    assert len(result.graph) == 6
    # Surviving nodes map somewhere, pruned ones do not.
    assert NodeIndex((1, 1)) in result.node_map
    assert NodeIndex((2, 2)) not in result.node_map
