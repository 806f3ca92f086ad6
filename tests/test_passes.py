"""Thinning passes, lex-monotone extraction, and the direction table."""

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

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
    PVertex,
    boxslash_product,
    canonical_order,
    check_child_symmetry,
    check_direction_consistency,
    pass_colour,
    pass_lex,
    pass_order,
    run_passes,
    three_queue_layout,
)
from boxslash import passes, product
from boxslash.passes import restrict
from boxslash.product import build_tree, level_starts
from helpers_naive import (
    brute_longest_monotone,
    naive_child_symmetry,
    naive_color_table,
    naive_direction_table,
    naive_identity_permutation,
    naive_lex_monotone,
    naive_lex_search,
    naive_related_families,
    naive_restrict,
)


def pv(text):
    return PVertex.parse(text)


def order_of(names):
    return LinearOrder(pv(s) for s in names)


def state_of(g, order=None, coloring=None):
    """Initial pass state; the three-queue layout fills what is not given."""
    canonical, queues = three_queue_layout(g)
    return PassState.initial(g, order or canonical, coloring or queues)


def color_table(graph, coloring):
    """ColorTable.from_colors on a layout's colour of each edge of the graph."""
    return ColorTable.from_colors(graph.tree.spec.degrees, graph.path_len, coloring.colors_of(graph.edges))


# ---------------------------------------------------------------------------
# Lex-monotone subarrays.

def lex_case(values, target):
    """A (dims, values by cell, per-axis targets) case of a 1-D array."""
    return (len(values),), {(i,): x for i, x in enumerate(values)}, (target,)


def grid_case(rows):
    """The same for a 2x2 array and target 2."""
    return (2, 2), {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)}, (2, 2)


def search(dims, cells, targets):
    """passes._search_lex on an array given by cell, read in row-major order."""
    flat = [cells[c] for c in itertools.product(*[range(d) for d in dims])]
    return passes._search_lex(dims, flat, targets)


def witness_holds(cells, witness):
    """The witness's subarray is lex-monotone, by the oracle's test."""
    kept = list(itertools.product(*witness.index_sets))
    return naive_lex_monotone(cells, kept, witness.sigma, tuple(s.value for s in witness.signs))


def test_lex_subarray_agrees_with_monotone_search():
    # On one axis a lex-monotone subarray is a monotone subsequence.
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randrange(2, 8)
        values = rng.sample(range(40), n)
        longest = brute_longest_monotone(values)
        for target in range(2, n + 1):
            dims, cells, targets = lex_case(values, target)
            witness = search(dims, cells, targets)
            assert (witness is None) == (target > longest)
            if witness is not None:
                assert witness_holds(cells, witness)


def test_guarantee_length_always_succeeds():
    # Erdos-Szekeres: (target-1)^2 + 1 = 10 values hold a monotone run of 4.
    rng = random.Random(47)
    for _ in range(40):
        values = rng.sample(range(100), 10)
        dims, cells, targets = lex_case(values, 4)
        witness = search(dims, cells, targets)
        assert witness is not None and witness_holds(cells, witness)


def test_lex_subarray_two_dimensions():
    rng = random.Random(59)
    for _ in range(10):
        flat = rng.sample(range(1000), 100)
        cells = dict(zip(itertools.product(range(10), range(10)), flat))
        witness = search((10, 10), cells, (2, 2))
        assert witness is not None
        assert tuple(len(s) for s in witness.index_sets) == (2, 2)
        assert witness_holds(cells, witness)


@pytest.mark.parametrize("sign", [Direction.INC, Direction.DEC])
def test_verify_lex_monotone_rejects_repeated_values(sign):
    # Equal values order neither way, so no walk in lex-key order rises.
    walk = [0, 1] if sign is Direction.INC else [1, 0]
    assert not passes._rises([1, 1], [walk])
    assert passes._rises([1, 2], [[0, 1]]) and not passes._rises([1, 2], [[1, 0]])


def as_triple(witness):
    """A package witness in the oracle's (sigma, signs, index_sets) form."""
    if witness is None:
        return None
    return witness.sigma, tuple(s.value for s in witness.signs), witness.index_sets


@st.composite
def lex_arrays(draw):
    """(dims, values by cell, per-axis targets) of a distinct-valued array
    of 1-3 dimensions and sides <= 4.  Half are planted lex-monotone under
    a random axis order and signs, then perturbed by up to two swaps."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    targets = tuple(draw(st.integers(1, d)) for d in dims)
    cells = list(itertools.product(*[range(d) for d in dims]))
    if draw(st.booleans()):
        sigma = draw(st.permutations(range(len(dims))))
        flip = draw(st.lists(st.sampled_from((1, -1)), min_size=len(dims), max_size=len(dims)))
        cells.sort(key=lambda c: tuple(flip[a] * c[a] for a in sigma))
        values = list(range(len(cells)))
        for _ in range(draw(st.integers(0, 2))):
            i, j = (draw(st.integers(0, len(cells) - 1)) for _ in range(2))
            values[i], values[j] = values[j], values[i]
    else:
        values = draw(st.permutations(range(len(cells))))
    return dims, dict(zip(cells, values)), targets


@settings(max_examples=300, deadline=None)
@given(case=lex_arrays())
@example(case=lex_case([5, 1, 4, 2], 2))  # indices (1, 2): all-INC signs tried first
@example(case=grid_case([[0, 1], [2, 3]]))  # the identity axis order tried first
@example(case=grid_case([[0, 2], [1, 3]]))  # needs the axis swap (1, 0)
@example(case=lex_case([1, 2], 3))  # a target past the side: None
def test_search_lex_matches_the_brute_force_oracle(case):
    dims, values, targets = case
    got = search(dims, values, targets)
    assert as_triple(got) == naive_lex_search(dims, values, targets)


# ---------------------------------------------------------------------------
# Tables.

def test_color_table_signature_and_layout():
    g = boxslash_product((2, 2), 2)
    order, coloring = three_queue_layout(g)
    table = color_table(g, coloring)
    # An edge's key: the deeper end's depth, the smaller position, the kind.
    for u, v, kind in g.edges:
        key = (max(len(u.node.path), len(v.node.path)), min(u.pos, v.pos), kind)
        assert table.entries[key] == coloring.get(u, v)
    assert table.entries[(2, 1, EdgeKind.VERTICAL)] == coloring.get(pv("1.2@1"), pv("1@1"))
    assert (9, 9, EdgeKind.VERTICAL) not in table.entries
    doc = table.to_json()
    assert all(isinstance(c, int) for c in doc["entries"].values())


def test_color_table_conflict():
    g = boxslash_product((2,), 1)
    conflicting = EdgeColoring(
        {(pv("1@1"), pv("r@1")): 0, (pv("2@1"), pv("r@1")): 1}
    )
    with pytest.raises(InconsistencyError):
        color_table(g, conflicting)


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
    # The document, read back as the naive oracles read it (entries
    # "i,j,p" -> direction value), rebuilds the same table.
    table = full_table(2, 3)
    doc = table.to_json()
    entries = {tuple(map(int, key.split(","))): Direction(value) for key, value in doc["entries"].items()}
    again = DirectionTable(doc["height"], doc["path_len"], entries)
    assert again.entries == table.entries
    assert (doc["height"], doc["path_len"]) == (again.height, again.path_len) == (2, 3)


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
    assert result.degrees == (2,)
    assert result.node_ids == [0, 1, -1, 2, -1]  # children 1 and 3 are now 1 and 2
    assert result.colors == [0, 0]
    table = ColorTable.from_colors(result.degrees, result.path_len, result.colors)
    assert table.entries == {(1, 1, EdgeKind.VERTICAL): 0}


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
    state = state_of(g)
    assert pass_colour(state) is state


# ---------------------------------------------------------------------------
# The order pass.

def test_pass_order_prunes_order_anomalies():
    g = boxslash_product((2,), 2)
    # Child 2 has its two path positions swapped relative to child 1.
    order = order_of(["r@1", "1@1", "2@2", "r@2", "1@2", "2@1"])
    result = pass_order(state_of(g, order))
    assert result.degrees == (1,)
    assert result.node_ids == [0, 1, -1]
    assert check_child_symmetry(result.degrees, result.path_len, result.ranks).ok


def test_pass_order_full_survival_on_canonical():
    g = boxslash_product((2, 2), 2)
    state = state_of(g, canonical_order(g))
    assert pass_order(state) is state
    assert check_child_symmetry(state.degrees, state.path_len, state.ranks).ok


def test_check_child_symmetry_detects_asymmetry():
    g = boxslash_product((2,), 2)
    good = check_child_symmetry((2,), 2, canonical_order(g).ranks_of(g.vertices))
    assert good.ok and good.checked > 0
    bad = order_of(["r@1", "1@1", "2@2", "r@2", "1@2", "2@1"]).ranks_of(g.vertices)
    assert check_child_symmetry((2,), 2, bad).violations == [("1", "2", (), 1, (), 2)]


def test_checks_report_exact_violations_on_a_damaged_layout():
    # The order swaps 2.1@1 with 2.2@1 and 2@1 with 1.1@1; the colouring
    # changes edges 1.2@1--1@1 (id 6) and 2.1@1--2.1@2 (id 17).  The
    # reports are written out, so a change in how a check names a node fails.
    g = boxslash_product((2, 2), 2)
    queues = three_queue_layout(g)[1]
    names = ["r@1", "1@1", "1.1@1", "2@1", "1.2@1", "2.2@1", "2.1@1",
             "r@2", "1@2", "2@2", "1.1@2", "1.2@2", "2.1@2", "2.2@2"]
    colors = [(c + 1) % 3 if e in (6, 17) else c for e, c in enumerate(queues.colors_of(g.edges))]
    state = PassState.initial(g, order_of(names), EdgeColoring.from_lists(g.edges, colors, 3))
    symmetry = check_child_symmetry(state.degrees, state.path_len, state.ranks)
    assert (symmetry.violations, symmetry.checked) == ([("1", "2", (1,), 1, (2,), 1)], 21)
    assert_child_symmetry_matches_oracle((2, 2), 2, state.ranks)
    # The recoloured edges break the colour clause of every related pair
    # they join, which the colour table decides: it names edge 6's signature.
    with pytest.raises(InconsistencyError, match=r"^edges with signature 2,1,vertical use colours 0 and 1$"):
        ColorTable.from_colors(state.degrees, state.path_len, state.colors)
    assert naive_color_table((2, 2), 2, state_data(state)[1]) == ("clash", (2, 1, "vertical"), 0, 1)
    # Swapping 2.1@1 with 2.1@2 as well breaks relatedness, and the oracle agrees.
    a, b = names.index("2.1@1"), names.index("2.1@2")
    names[a], names[b] = names[b], names[a]
    unrelated = order_of(names)
    related = related_report(g, unrelated)
    assert (related.violations, related.checked) == ([("vertical", "r", (), 1, 2), ("diagonal", "r", (), 1, 1),
                                                      ("horizontal", "r", (1,), 1), ("horizontal", "2", (), 1)], 11)
    rank, colour = layout_data(g, unrelated, queues)
    entries = {(d, p, kind.value): c for (d, p, kind), c in color_table(g, queues).entries.items()}
    assert naive_related_families((2, 2), 2, rank, colour, entries) == (related.violations, related.checked)


def small_shapes(limit, max_height):
    """Every (degrees, m) of at most `limit` vertices and height 1..max_height."""
    out = []

    def grow(degrees, nodes, width):
        if degrees:
            out.extend((degrees, m) for m in range(1, limit // nodes + 1))
        if len(degrees) < max_height:
            d = 1
            while nodes + width * d <= limit:
                grow(degrees + (d,), nodes + width * d, width * d)
                d += 1

    grow((), 1, 1)
    return out


def swapped(order, rng):
    """The order with one to three random pairs of vertices exchanged."""
    seq = list(order)
    for _ in range(rng.randrange(1, 4)):
        a, b = rng.randrange(len(seq)), rng.randrange(len(seq))
        seq[a], seq[b] = seq[b], seq[a]
    return LinearOrder(seq)


def assert_child_symmetry_matches_oracle(degrees, m, ranks):
    report = check_child_symmetry(degrees, m, ranks)
    rank = dict(zip(map(vkey, boxslash_product(degrees, m).vertices), ranks))
    naive, checked = naive_child_symmetry(degrees, m, rank)
    assert report.ok == (not naive)
    assert report.checked == checked
    assert set(report.violations) <= set(naive)
    # One entry per node that disagrees with the first node of its depth.
    firsts = {".".join("1" * depth) for depth in range(1, len(degrees) + 1)}
    from_first = dict.fromkeys((a, b) for a, b, *_ in naive if a in firsts)
    assert [(a, b) for a, b, *_ in report.violations] == list(from_first)


def test_check_child_symmetry_matches_the_pairwise_oracle():
    # Every product of at most 60 vertices whose levels all branch (none
    # is higher than 4), and every one of at most 24 vertices with a
    # one-child level, up to height 4.
    shapes = [s for s in small_shapes(60, 4) if min(s[0]) >= 2]
    shapes += [s for s in small_shapes(24, 4) if min(s[0]) < 2]
    rng = random.Random(61)
    for degrees, m in shapes:
        g = boxslash_product(degrees, m)
        canonical = canonical_order(g)
        for order in (canonical, LinearOrder(reversed(canonical.vertices)), swapped(canonical, rng)):
            assert_child_symmetry_matches_oracle(degrees, m, order.ranks_of(g.vertices))


def test_check_child_symmetry_matches_the_oracle_after_pass_order():
    rng = random.Random(67)
    for degrees, m in small_shapes(40, 3)[::7]:
        g = boxslash_product(degrees, m)
        state = pass_order(state_of(g, swapped(canonical_order(g), rng)))
        assert_child_symmetry_matches_oracle(state.degrees, m, state.ranks)


# ---------------------------------------------------------------------------
# The lex pass.

def test_pass_lex_identity_on_canonical():
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    result, witnesses = pass_lex(state_of(g, order))
    assert result.degrees == (2, 2)
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
    assert (err.value.available, err.value.wanted) == ((3,), (3,))
    # Level 1 states the Erdos-Szekeres length: (3-1)^2+1 = 5 > 3 children.
    assert str(err.value) == (
        "lex: level 1, position 1: the rank array has shape 3 "
        "and no lex-monotone subarray of shape 3; Erdos-Szekeres guarantees "
        "a monotone run of 3 from (t-1)^2+1 = 5 entries"
    )


def test_pass_lex_starvation_states_no_bound_above_level_1():
    # Level 1 rises; the 2x2 level-2 array [[0, 1], [3, 2]] has no
    # lex-monotone 2x2 subarray under any axis order or signs.
    g = boxslash_product((2, 2), 1)
    order = order_of(["r@1", "1@1", "2@1", "1.1@1", "1.2@1", "2.2@1", "2.1@1"])
    with pytest.raises(PassStarvation) as err:
        pass_lex(state_of(g, order))
    assert str(err.value) == (
        "lex: level 2, position 1: the rank array has shape 2x2 "
        "and no lex-monotone subarray of shape 2x2"
    )


def test_pass_lex_truncates_to_target():
    g = boxslash_product((3,), 1)
    scrambled = order_of(["r@1", "1@1", "3@1", "2@1"])
    result, _ = pass_lex(state_of(g, scrambled), targets=2)
    assert result.degrees == (2,)
    assert result.node_ids == [0, 1, 2, -1]  # first combination scanned: ranks 1 < 3 already increase
    assert result.ranks == [0, 1, 3]  # r@1, 1@1, 2@1, in the input order


def oracle_pass_lex(g, order, target):
    """pass_lex's witnesses per (level, position), found by the oracle,
    and the first (level, position) it finds none for, or None."""
    kept = [tuple(range(1, d + 1)) for d in g.tree.spec.degrees]
    witnesses = {}
    rank = {v: r for r, v in enumerate(order)}
    for level in range(1, len(kept) + 1):
        for p in range(1, g.path_len + 1):
            axes = kept[:level]
            dims = tuple(len(a) for a in axes)
            values = {
                cell: rank[PVertex(NodeIndex(tuple(a[c] for a, c in zip(axes, cell))), p)]
                for cell in itertools.product(*[range(d) for d in dims])
            }
            found = naive_lex_search(dims, values, tuple(min(target, d) for d in dims))
            if found is None:
                return witnesses, (level, p)
            witnesses[(level, p)] = found
            kept[:level] = [tuple(a[t] for t in s) for a, s in zip(axes, found[2])]
    return witnesses, None


def test_pass_lex_finds_the_oracle_witnesses_on_scrambled_products():
    rng = random.Random(71)
    finished = 0
    for degrees, m in [((3,), 3), ((3, 3), 2), ((4, 3), 2), ((2, 3, 2), 2), ((4, 4), 1)] * 4:
        g = boxslash_product(degrees, m)
        scrambled = LinearOrder(rng.sample(list(g.vertices), len(g.vertices)))
        target = rng.choice((2, 3))
        want, starved = oracle_pass_lex(g, scrambled, target)
        if starved is None:
            _, witnesses = pass_lex(state_of(g, scrambled), targets=target)
            assert {key: as_triple(w) for key, w in witnesses.items()} == want
            finished += 1
        else:
            with pytest.raises(PassStarvation) as err:
                pass_lex(state_of(g, scrambled), targets=target)
            assert err.value.level == starved
    assert finished >= 5


# ---------------------------------------------------------------------------
# Direction extraction and checks.  run_passes reads the directions of
# the child-choice sequences once, with passes._directions: per (level,
# length, position), one bit set and the sequences that are not
# monotone, and the depth blocks.  Its related check
# (passes._related_families) compares whole depth blocks, and the
# direction table (passes._direction_table) is made from the bits.
# These helpers run the same kernels on any layout.

def sequence_directions(graph, order):
    return passes._directions(graph.tree.spec.degrees, graph.path_len, order.ranks_of(graph.vertices))[0]


def direction_table(graph, order):
    """passes._direction_table on the directions of the order's sequences."""
    return passes._direction_table(graph.tree.spec.degrees, graph.path_len, sequence_directions(graph, order))


def related_report(graph, order):
    """passes._related_families's report on the order's sequences.  It
    reads no colour: a colouring the colour table refuses never reaches it."""
    degrees, m = graph.tree.spec.degrees, graph.path_len
    return passes._related_families(degrees, m, *passes._directions(degrees, m, order.ranks_of(graph.vertices)))


def identity_sigma(witnesses):
    """Every lex witness keeps the axes in their own order."""
    return all(w.sigma == tuple(range(len(w.sigma))) for w in witnesses.values())


def test_extract_direction_table_canonical_and_reversed():
    g = boxslash_product((2, 2), 2)
    order = canonical_order(g)
    table = direction_table(g, order)
    assert set(table.entries.values()) == {Direction.INC}
    reverse = direction_table(g, LinearOrder(reversed(order.vertices)))
    assert set(reverse.entries.values()) == {Direction.DEC}


def test_extract_direction_table_preconditions():
    # Directions need two children per level: on a thinner final state
    # run_passes leaves the table out.
    g = boxslash_product((1,), 1)
    result = run_passes(g, *three_queue_layout(g))
    assert result.direction_table is None and result.related_report.ok


def test_extract_direction_table_rejects_non_monotone():
    g = boxslash_product((3,), 1)
    with pytest.raises(InconsistencyError):
        direction_table(g, order_of(["r@1", "1@1", "3@1", "2@1"]))


def test_extract_direction_table_names_the_first_non_monotone_sequence():
    # Under node 2, the level-2 sequence 2.1.2, 2.2.2, 2.3.2 at position 1
    # is not monotone; every entry before (2, 3, 1) holds.
    g = boxslash_product((2, 3, 2), 1)
    names = [str(v) for v in canonical_order(g)]
    a, b = names.index("2.2.2@1"), names.index("2.3.2@1")
    names[a], names[b] = names[b], names[a]
    order = order_of(names)
    rank = {vkey(v): r for r, v in enumerate(order)}
    with pytest.raises(ValueError) as naive:
        naive_direction_table((2, 3, 2), 1, rank)
    assert naive.value.args[0] == ("not monotone", 2, 3, 1, "2")
    with pytest.raises(InconsistencyError, match=(
            r"^child sequence at level 2, length 3, position 1 under 2 is not monotone$")):
        direction_table(g, order)


def test_check_identity_permutation_canonical():
    # The first-difference rule holds on canonical and reversed orders, and
    # the lex pass keeps every axis order there.
    g = boxslash_product((2, 2), 2)
    order, coloring = three_queue_layout(g)
    for layout in (order, LinearOrder(reversed(order.vertices))):
        assert naive_identity_permutation((2, 2), 2, layout_data(g, layout, coloring)[0])[0] == []
        assert identity_sigma(run_passes(g, layout, coloring).lex_witnesses)


def test_check_identity_permutation_violation():
    # Depth-2 nodes sort by their level-2 choice first: the lex pass swaps
    # the axes, and 1.1 and 2.2 break the first-difference rule.
    g = boxslash_product((2, 2), 1)
    order = order_of(["r@1", "1@1", "2@1", "1.2@1", "2.2@1", "1.1@1", "2.1@1"])
    result = run_passes(g, order, three_queue_layout(g)[1])
    assert result.lex_witnesses[(2, 1)].sigma == (1, 0)
    violations, _ = naive_identity_permutation((2, 2), 1, layout_data(g, result.order, result.coloring)[0])
    assert ("1.1", "2.2", 1, "inc") in violations


def test_check_identity_permutation_names_no_node_on_a_shuffled_order(monkeypatch):
    # Naming a node builds the whole tree.  A passing run builds no tree,
    # as nothing is pruned and every check passes; each failing check
    # builds one, once, however many nodes it names.
    g = boxslash_product((3, 3, 3), 6)
    order, coloring = three_queue_layout(g)
    shuffled = LinearOrder(random.Random(6).sample(list(g.vertices), len(g.vertices)))
    calls = []
    tree = product.Tree
    monkeypatch.setattr(product, "Tree", lambda spec: calls.append(spec) or tree(spec))
    result = run_passes(g, order, coloring)
    assert result.order_report.ok and result.related_report.ok and result.graph is g
    assert calls == []
    assert len(related_report(g, shuffled).violations) > 1
    assert len(calls) == 1
    assert len(check_child_symmetry((3, 3, 3), 6, shuffled.ranks_of(g.vertices)).violations) > 1
    assert len(calls) == 2
    with pytest.raises(InconsistencyError, match="is not monotone$"):
        direction_table(g, shuffled)
    assert len(calls) == 3


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
    report = related_report(g, order)
    assert report.ok and report.checked > 0
    # An edge off its signature's colour breaks the colour clause of the
    # pairs it joins, which the colour table refuses ...
    colors = three_queue_layout(g)[1].colors_of(g.edges)
    colors[0] = (colors[0] + 1) % 3
    with pytest.raises(InconsistencyError, match=r"^edges with signature 1,1,vertical use colours 1 and 0$"):
        ColorTable.from_colors((2, 2), 2, colors)
    # ... and 1@1 after 1@2 puts pairs on both sides.
    names = [str(v) for v in order]
    a, b = names.index("1@1"), names.index("1@2")
    names[a], names[b] = names[b], names[a]
    assert not related_report(g, order_of(names)).ok


def test_check_related_sequence_families_finds_a_diagonal_pair_alone():
    # Every shape but one holds: 1.1@1 lies below 1@2, but 2.1@1 above 2@2.
    g = boxslash_product((2, 1), 2)
    order = order_of(["r@1", "r@2", "1@1", "1.1@1", "1@2", "1.1@2", "2@1", "2@2", "2.1@1", "2.1@2"])
    _, coloring = three_queue_layout(g)
    report = related_report(g, order)
    assert report.violations == [("diagonal", "r", (), 1, 1)]
    rank, colour = layout_data(g, order, coloring)
    entries = {(d, p, kind.value): c for (d, p, kind), c in color_table(g, coloring).entries.items()}
    assert naive_related_families((2, 1), 2, rank, colour, entries) == (report.violations, report.checked)


# ---------------------------------------------------------------------------
# Restriction and the full pipeline.

def restricted(state, keep, source):
    """restrict(state, keep), checked against naive_restrict on the
    state's lists; ``source`` is the tree the state started from."""
    nodes = build_tree(state.degrees).nodes
    rank, colour = state_data(state)
    want = naive_restrict(state.degrees, state.path_len, rank, colour, node_paths(state, source),
                          {nodes[x].path: c for x, c in keep.items()})
    new = restrict(state, keep)
    rank, colour = state_data(new)
    assert (new.degrees, sorted(rank, key=rank.get), colour, node_paths(new, source)) == want
    return new


def test_restrict_follows_the_node_map():
    g = boxslash_product((2,), 2)
    state = state_of(g)
    assert restrict(state, {}) is state  # every child is kept
    assert restricted(state, {0: (2,)}, g.tree).node_ids == [0, -1, 1]

    # Two restrictions in a row compose their node maps.
    g = boxslash_product((3, 2), 2)
    once = restricted(state_of(g), {0: (1, 3)}, g.tree)
    # Child 2 of the root (node id 2) is now what was child 3.
    twice = restricted(once, {1: (2,), 2: (2,)}, g.tree)
    assert twice.degrees == (2, 1)
    assert node_paths(twice, g.tree) == {(): (), (1,): (1,), (3,): (2,), (1, 2): (1, 1), (3, 2): (2, 1)}


def test_run_passes_checks_child_symmetry_once(monkeypatch):
    # The related check and the direction table read the sequence
    # directions of one _directions call, too.
    calls = []

    def counting(real):
        def count(degrees, m, ranks):
            calls.append((real.__name__, len(ranks)))
            return real(degrees, m, ranks)
        return count

    for name in ("check_child_symmetry", "_directions"):
        monkeypatch.setattr(passes, name, counting(getattr(passes, name)))
    g = boxslash_product((2, 2), 2)
    order, coloring = three_queue_layout(g)
    result = run_passes(g, order, coloring)
    assert calls == [("check_child_symmetry", len(result.graph)), ("_directions", len(result.graph))]


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
    rank = layout_data(result.graph, result.order, result.coloring)[0]
    assert naive_identity_permutation((2, 2), 2, rank)[0] == []

    reversed_result = run_passes(g, LinearOrder(reversed(order.vertices)), coloring)
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


@pytest.mark.parametrize("stage", ["colour", "order", "lex"])
@pytest.mark.parametrize(
    "target, level", [(-1, 0), (0, 0), (True, 0), (2.5, 0), ("2", 0), ([2, -1], 1), ([2, False], 1)]
)
def test_run_passes_rejects_bad_targets_up_front(stage, target, level, monkeypatch):
    g = boxslash_product((3, 3), 2)
    order, coloring = three_queue_layout(g)
    monkeypatch.setattr(passes.PassState, "initial", lambda *args: pytest.fail("work started"))
    with pytest.raises(ValueError, match=rf"^{stage} pass: level {level} target "):
        run_passes(g, order, coloring, **{f"{stage}_targets": target})


# ---------------------------------------------------------------------------
# The integer pipeline against the object-based oracles.

def vkey(v):
    return (v.node.path, v.pos)


def layout_data(graph, order, coloring):
    """The oracles' form of a layout: rank by vertex, colour by edge."""
    rank = {vkey(v): r for r, v in enumerate(order) if isinstance(v, PVertex)}
    colour = {}
    for u, v in graph.edge_pairs():
        if coloring.get(u, v) is not None:
            colour[frozenset((vkey(u), vkey(v)))] = coloring.get(u, v)
    return rank, colour


def state_data(state):
    """The oracles' form of a state's lists: rank by vertex, colour by edge."""
    g = boxslash_product(state.degrees, state.path_len)
    rank = dict(zip(map(vkey, g.vertices), state.ranks))
    colour = {frozenset((vkey(u), vkey(v))): c for (u, v, _), c in zip(g.edges, state.colors)}
    return rank, colour


def node_paths(state, source):
    """The path of each surviving node of the source tree, to its current path."""
    nodes = build_tree(state.degrees).nodes
    return {a.path: nodes[x].path for a, x in zip(source.nodes, state.node_ids) if x >= 0}


def scrambled_layout(g, rng):
    """Children renumbered per level, and one child per level on a
    horizontal colour of its own, which the colour pass must thin away."""
    degrees = g.tree.spec.degrees
    perms = [rng.sample(range(d), d) for d in degrees]
    special = [rng.randint(1, d) for d in degrees]

    def key(v):
        return (v.pos, len(v.node.path), tuple(perms[k][c - 1] for k, c in enumerate(v.node.path)))

    _, queues = three_queue_layout(g)
    colors = {}
    for u, v, kind in g.edges:
        path = u.node.path
        own = kind is EdgeKind.HORIZONTAL and path and path[-1] == special[len(path) - 1]
        colors[(u, v)] = 3 if own else queues.get(u, v)
    return LinearOrder(sorted(g.vertices, key=key)), EdgeColoring(colors, k=4)


def oracle_layouts(g, rng):
    """Canonical, reversed, scrambled and shuffled layouts of g, and
    one whose colouring lacks or changes a few edges' colours."""
    order, coloring = three_queue_layout(g)
    shuffled = LinearOrder(rng.sample(list(g.vertices), len(g.vertices)))
    damaged = {}
    for u, v, _ in g.edges:
        roll = rng.random()
        if roll > 0.1:
            damaged[(u, v)] = rng.randrange(3) if roll > 0.9 else coloring.get(u, v)
    return [
        (order, coloring),
        (LinearOrder(reversed(order.vertices)), coloring),
        scrambled_layout(g, rng),
        (shuffled, coloring),
        (swapped(order, rng), EdgeColoring(damaged, k=3)),
    ]


def random_keep(degrees, rng):
    """A uniform child selection by node id: per level one count, per
    node a random set of that many children (every child, now and then)."""
    keep, starts = {}, level_starts(degrees)
    for depth, d in enumerate(degrees):
        size = d if rng.random() < 0.3 else rng.randint(1, d)
        for x in range(starts[depth], starts[depth + 1]):
            keep[x] = tuple(rng.sample(range(1, d + 1), size))
    return keep


ORACLE_SHAPES = [((2,), 3), ((3,), 2), ((2, 2), 2), ((2, 3), 3), ((3, 2), 2), ((4, 3), 2),
                 ((2, 2, 2), 2), ((3, 1, 2), 2)]


@pytest.mark.parametrize("degrees, m", ORACLE_SHAPES)
def test_restrict_matches_the_naive_restriction(degrees, m):
    rng = random.Random(f"restrict {degrees} {m}")
    g = boxslash_product(degrees, m)
    for order, coloring in oracle_layouts(g, rng)[:4]:
        state = PassState.initial(g, order, coloring)
        assert state_data(state) == layout_data(g, order, coloring)
        assert node_paths(state, g.tree) == {n.path: n.path for n in g.tree.nodes}
        for _ in range(3):
            state = restricted(state, random_keep(state.degrees, rng), g.tree)


def assert_color_table_matches_oracle(degrees, m, colour, build):
    """build() makes the package's colour table, which must hold
    naive_color_table's entries, or raise the error naming the edge
    without a colour or the clash that the oracle finds first.  Returns
    the oracle's outcome."""
    want = naive_color_table(degrees, m, colour)
    if want[0] == "entries":
        assert {(d, p, kind.value): c for (d, p, kind), c in build().entries.items()} == want[1]
    elif want[0] == "missing":
        u, v = (f"{'.'.join(map(str, node)) or 'r'}@{i}" for node, i in want[1])
        with pytest.raises(ValueError, match=rf"^edge {re.escape(u)} -- {re.escape(v)} has no colour$"):
            build()
    else:
        _, (d, p, kind), first, other = want
        with pytest.raises(InconsistencyError) as err:
            build()
        assert str(err.value) == f"edges with signature {d},{p},{kind} use colours {first} and {other}"
    return want


@pytest.mark.parametrize("degrees, m", ORACLE_SHAPES)
def test_check_related_sequence_families_matches_the_oracle(degrees, m):
    # The related check reads no colour: on a colouring whose table
    # holds, it must give the oracle's report under that table; the
    # others the table refuses.  The swapped order of the last layout,
    # whose colouring lacks colours, is checked in full colour too.
    rng = random.Random(f"related {degrees} {m}")
    g = boxslash_product(degrees, m)
    layouts = oracle_layouts(g, rng)
    found = 0
    for order, coloring in layouts + [(layouts[-1][0], layouts[0][1])]:
        rank, colour = layout_data(g, order, coloring)
        want = assert_color_table_matches_oracle(degrees, m, colour, lambda: color_table(g, coloring))
        if want[0] == "entries":
            report = related_report(g, order)
            violations, checked = naive_related_families(degrees, m, rank, colour, want[1])
            assert report.violations == violations
            assert report.checked == checked
            found += len(violations)
    assert found > 0


def table_layouts(g, rng):
    """oracle_layouts, then the final state of run_passes on the first
    three, whose direction tables hold (and mix inc and dec)."""
    layouts = oracle_layouts(g, rng)
    finals = []
    for order, coloring in layouts[:3]:
        result = run_passes(g, order, coloring, lex_targets=2)
        finals.append((result.graph, result.order, result.coloring))
    return [(g, *layout) for layout in layouts] + finals


@pytest.mark.parametrize("degrees, m", ORACLE_SHAPES)
def test_color_table_matches_the_oracle(degrees, m):
    rng = random.Random(f"colour table {degrees} {m}")
    g = boxslash_product(degrees, m)
    queues = three_queue_layout(g)[1]
    # A few edges recoloured, so that clashes sit on several signatures.
    recoloured = [(g, canonical_order(g), EdgeColoring(
        {(u, v): rng.randrange(3) if rng.random() < rate else queues.get(u, v) for u, v, _ in g.edges},
        k=3)) for rate in (0.03, 0.1, 0.3)]
    outcomes = set()
    for graph, order, coloring in table_layouts(g, rng) + recoloured:
        colour = layout_data(graph, order, coloring)[1]
        want = assert_color_table_matches_oracle(graph.tree.spec.degrees, m, colour,
                                                 lambda: color_table(graph, coloring))
        outcomes.add(want[0])
    assert {"entries", "clash"} <= outcomes


def assert_direction_table_matches_oracle(degrees, m, rank, build):
    """build() makes the package's direction table, which must hold
    naive_direction_table's entries, or raise InconsistencyError naming
    the entry, and prefix, where the oracle finds a problem.  Returns
    the oracle's directions, or its problem."""
    try:
        want = naive_direction_table(degrees, m, rank)
    except ValueError as exc:
        problem, i, j, p, *prefix = exc.args[0]
        at = f"level {i}, length {j}, position {p}"
        message = f"^witnesses disagree at {at}$" if problem == "disagree" else (
            rf"^child sequence at {at} under {re.escape(prefix[0])} is not monotone$")
        with pytest.raises(InconsistencyError, match=message):
            build()
        return {problem}
    assert {key: d.value for key, d in build().entries.items()} == want
    return set(want.values())


@pytest.mark.parametrize("degrees, m", ORACLE_SHAPES)
def test_extract_direction_table_matches_the_oracle(degrees, m):
    rng = random.Random(f"direction table {degrees} {m}")
    g = boxslash_product(degrees, m)
    outcomes = set()
    for graph, order, coloring in table_layouts(g, rng):
        shape = graph.tree.spec.degrees
        if min(shape) < 2:  # run_passes reads no directions off a one-child level
            continue
        rank = layout_data(graph, order, coloring)[0]
        outcomes |= assert_direction_table_matches_oracle(shape, m, rank, lambda: direction_table(graph, order))
    if min(degrees) >= 2:
        assert {"inc", "dec"} <= outcomes
    if min(degrees) >= 2 and len(g.tree) > 3:  # (2,) has one sequence per entry, of two
        assert outcomes & {"not monotone", "disagree"}


@pytest.mark.parametrize("degrees, m", ORACLE_SHAPES)
def test_check_identity_permutation_matches_the_pairwise_oracle(degrees, m):
    # On a final state whose levels all branch, same-depth nodes compare by
    # their first differing choice exactly when every lex witness keeps the
    # axes in order: with two or more indices per axis, one axis order and
    # one sign vector make the array rise.  A transposed order sorts nodes
    # by their last choice first.
    rng = random.Random(f"identity {degrees} {m}")
    g = boxslash_product(degrees, m)
    queues = three_queue_layout(g)[1]
    transposed = LinearOrder(sorted(g.vertices, key=lambda v: (v.pos, len(v.node.path), v.node.path[::-1])))
    outcomes = set()
    for order, coloring in oracle_layouts(g, rng)[:3] + [(transposed, queues)]:
        result = run_passes(g, order, coloring, lex_targets=2)
        final = result.graph.tree.spec.degrees
        if min(final) < 2:
            continue
        rank = layout_data(result.graph, result.order, result.coloring)[0]
        holds = naive_identity_permutation(final, m, rank)[0] == []
        assert holds == identity_sigma(result.lex_witnesses)
        outcomes.add(holds)
    if min(degrees) >= 2:
        assert outcomes == ({True, False} if len(degrees) > 1 else {True})


@pytest.mark.parametrize("degrees, m", ORACLE_SHAPES)
def test_run_passes_final_state_matches_the_oracles(degrees, m):
    # The final order is the input order restricted to the survivors and
    # renamed, the colouring is carried over, and both checks agree with
    # their oracles on it.
    rng = random.Random(f"run_passes {degrees} {m}")
    g = boxslash_product(degrees, m)
    for order, coloring in oracle_layouts(g, rng)[:3]:
        result = run_passes(g, order, coloring, lex_targets=2)
        inverse = {new: old for old, new in result.node_map.items()}
        assert [PVertex(inverse[v.node], v.pos) for v in result.order] == [
            v for v in order if v.node in result.node_map
        ]
        for u, v in result.graph.edge_pairs():
            original = (PVertex(inverse[u.node], u.pos), PVertex(inverse[v.node], v.pos))
            assert result.coloring.get(u, v) == coloring.get(*original)
        assert result.coloring.k == coloring.k
        final = result.graph.tree.spec.degrees
        rank, colour = layout_data(result.graph, result.order, result.coloring)
        entries = {(d, p, k.value): c for (d, p, k), c in result.color_table.entries.items()}
        assert (result.related_report.violations, result.related_report.checked) == (
            naive_related_families(final, m, rank, colour, entries)
        )
        naive, checked = naive_child_symmetry(final, m, rank)
        assert result.order_report.checked == checked and result.order_report.ok == (not naive)
        if min(final) >= 2:
            want = naive_direction_table(final, m, rank)
            assert {key: d.value for key, d in result.direction_table.entries.items()} == want
        else:
            assert result.direction_table is None


@st.composite
def damaged_final_states(draw):
    """The final state of run_passes on a canonical, reversed or scrambled
    layout of a product of height at most 3 and at most 60 vertices, with
    two ranks swapped or one edge recoloured."""
    degrees, m = draw(st.sampled_from(small_shapes(60, 3)))
    rng = draw(st.randoms(use_true_random=False))
    g = boxslash_product(degrees, m)
    order, coloring = three_queue_layout(g)
    layouts = [(order, coloring), (LinearOrder(reversed(order.vertices)), coloring), scrambled_layout(g, rng)]
    result = run_passes(g, *draw(st.sampled_from(layouts)), lex_targets=2)
    ranks = result.order.ranks_of(result.graph.vertices)
    colors = result.coloring.colors_of(result.graph.edges)
    if draw(st.booleans()):
        a, b = rng.sample(range(len(ranks)), 2)
        ranks[a], ranks[b] = ranks[b], ranks[a]
    elif colors:
        e = rng.randrange(len(colors))
        colors[e] = (colors[e] + rng.randint(1, 3)) % 4
    return PassState(result.graph.tree.spec.degrees, m, ranks, colors, [])


@settings(max_examples=150, deadline=None)
@given(case=damaged_final_states())
def test_checks_match_the_oracles_on_damaged_final_states(case):
    # Each check must give the oracle's report, the failures it names
    # included, the colour and direction tables their tables or the error
    # naming their first problem; the related check is compared where the
    # state's own colour table holds, as run_passes runs it only there.
    degrees, m, ranks = case.degrees, case.path_len, case.ranks
    assert_child_symmetry_matches_oracle(degrees, m, ranks)
    rank, colour = state_data(case)
    want = assert_color_table_matches_oracle(degrees, m, colour,
                                             lambda: ColorTable.from_colors(degrees, m, case.colors))
    observed, blocks = passes._directions(degrees, m, ranks)
    if want[0] == "entries":
        report = passes._related_families(degrees, m, observed, blocks)
        assert (report.violations, report.checked) == naive_related_families(degrees, m, rank, colour, want[1])
    if min(degrees) >= 2:
        assert_direction_table_matches_oracle(degrees, m, rank, lambda: passes._direction_table(degrees, m, observed))


def test_related_check_holds_where_the_direction_table_finds_opposite_sequences():
    # At one position no shape compares the last level's siblings, so
    # with 1.1@1 and 1.2@1 swapped every related pair holds, yet the
    # level-2 sequences under 1 and under 2 run opposite ways.
    g = boxslash_product((2, 2), 1)
    names = [str(v) for v in canonical_order(g)]
    a, b = names.index("1.1@1"), names.index("1.2@1")
    names[a], names[b] = names[b], names[a]
    observed, blocks = passes._directions((2, 2), 1, order_of(names).ranks_of(g.vertices))
    assert passes._related_families((2, 2), 1, observed, blocks).ok
    with pytest.raises(InconsistencyError, match=r"^witnesses disagree at level 2, length 2, position 1$"):
        passes._direction_table((2, 2), 1, observed)


@pytest.mark.parametrize("degrees, m", [((5, 5), 8), ((3, 3, 3), 6), ((2, 9), 4), ((6,), 10), ((3, 1, 2), 4)])
def test_run_passes_decides_passing_checks_without_listing(degrees, m, monkeypatch):
    # Every check holds on these final states, so no per-node or
    # per-sequence code may run: naming a failing node or pair builds the
    # tree, finding the sequences that fail within a failing block is
    # passes._mixed, and only the related check's per-pair naming loop
    # reads the sequence directions by key.
    def naming(*args):
        raise AssertionError("a check named failures on a passing final state")

    class Unread(dict):
        __getitem__ = naming

    directions = passes._directions

    def unread(*args):
        observed, blocks = directions(*args)
        return Unread(observed), blocks

    monkeypatch.setattr(passes, "build_tree", naming)
    monkeypatch.setattr(passes, "_mixed", naming)
    monkeypatch.setattr(passes, "_directions", unread)
    g = boxslash_product(degrees, m)
    order, coloring = three_queue_layout(g)
    reverse = LinearOrder(reversed(order.vertices))
    for layout, targets in [((order, coloring), None), ((reverse, coloring), None),
                            (scrambled_layout(g, random.Random(f"{degrees} {m}")), 2)]:
        result = run_passes(g, *layout, lex_targets=targets)
        assert result.order_report.ok and result.related_report.ok
        final = result.graph.tree.spec.degrees
        assert (result.direction_table is None) == (min(final) < 2)


def test_run_passes_accepts_an_order_with_extra_vertices():
    g = boxslash_product((2, 2), 2)
    order, coloring = three_queue_layout(g)
    padded = LinearOrder(["x", *order, "y"])
    result = run_passes(g, padded, coloring)
    assert list(result.order) == list(run_passes(g, order, coloring).order) == list(order)


def test_run_passes_rejects_an_order_without_a_vertex_that_a_pass_prunes():
    # The colour pass keeps one child per level, 1 and then 1.1, so 2.2
    # is pruned before anything reads its rank; the order must still have it.
    g = boxslash_product((2, 2), 2)
    order, coloring = three_queue_layout(g)
    short = LinearOrder(v for v in order if v != pv("2.2@2"))
    with pytest.raises(ValueError, match=r"^vertex 2\.2@2 not in order$"):
        run_passes(g, short, coloring, colour_targets=1)


def test_malformed_layouts_name_vertices_and_edges_as_the_cli_writes_them():
    # The messages use the 1.2@1 text form that layout documents hold.
    g = boxslash_product((2, 2), 2)
    order, coloring = three_queue_layout(g)
    short = LinearOrder(v for v in order if v != pv("1.2@2"))
    with pytest.raises(ValueError, match=r"^vertex 1\.2@2 not in order$"):
        run_passes(g, short, coloring)
    # The whole order is read, the root included.
    rootless = LinearOrder(v for v in order if v.node.path)
    with pytest.raises(ValueError, match=r"^vertex r@1 not in order$"):
        run_passes(g, rootless, coloring)
    with pytest.raises(ValueError, match=r"^vertex 2@1 not in order$"):
        run_passes(g, LinearOrder(v for v in order if v != pv("2@1")), coloring)
    for u, v in [(pv("1.1@1"), pv("1@1")), (pv("r@1"), pv("r@2"))]:
        partial = EdgeColoring({e: c for e, c in coloring.edges() if set(e) != {u, v}}, k=3)
        message = rf"^edge {re.escape(str(u))} -- {re.escape(str(v))} has no colour$"
        with pytest.raises(ValueError, match=message):
            run_passes(g, order, partial)
