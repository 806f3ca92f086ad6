"""Hex grids: boundary tracing, cut points, spanning paths, top
boundaries and direction-table layers against the naive oracles, frozen
tracer output, and the checks on bad lines, cells and dichotomy
parameters."""

import random
import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from boxslash import (
    BoundaryLine,
    Direction,
    DirectionTable,
    HexColoring,
    InconsistencyError,
    ShapeError,
    boxslash_product,
    check_direction_consistency,
    cut_points,
    direction_layer,
    maximal_boundaries,
    monochromatic_spanning_path,
    run_passes,
    three_queue_layout,
    top_or_long,
    trace_boundary,
)

from helpers_naive import (
    hex_cells,
    hex_colour,
    hex_neighbours,
    hex_spans,
    naive_boundary_lines,
    naive_boundary_preservation,
    naive_direction_layer,
    naive_line_violations,
    naive_top_boundaries,
    naive_traced_lines,
)


def line_key(line):
    return frozenset(frozenset(p) for p in line.pairs)


def corner_tuple(corner, cols):
    """Corner number ((depth * (cols + 1)) + col) * 2 + (sign > 0) as (depth, col, sign)."""
    if corner is None:
        return None
    depth, col = divmod(corner >> 1, cols + 1)
    return (depth, col, 1 if corner & 1 else -1)


def as_tuples(lines):
    """Lines as (pairs, first corner, last corner or None, color_a, color_b),
    corners as (depth, col, sign).  Consecutive pairs are two sides of one
    triangle, so the pairs and the two ends fix every corner between."""
    return [
        (
            line.pairs,
            corner_tuple(line.first_corner, line.grid.cols),
            corner_tuple(line.last_corner, line.grid.cols),
            line.color_a.value,
            line.color_b.value,
        )
        for line in lines
    ]


# Every grid of at most 10 cells, plus the two squarest of 12 cells
# (15,498 colorings): all 36,278 colorings of every grid up to 12 cells
# take about 12 s, most of it in the long thin grids.
SMALL_SHAPES = [(r, c) for r in range(1, 11) for c in range(1, 11) if r * c <= 10] + [(3, 4), (4, 3)]


def check_against_oracles(chi):
    coloring = HexColoring.from_matrix(chi)
    lines = trace_boundary(coloring)
    for line in lines:
        assert line.verify(coloring) == []
    traced = {(line_key(line), line.closed) for line in lines}
    assert len(traced) == len(lines)
    assert traced == set(naive_boundary_lines(chi))
    assert as_tuples(lines) == naive_traced_lines(chi)

    n, m = len(chi), len(chi[0])
    assert cut_points(coloring) == [x for x in range(1, m) if chi[0][x - 1] != chi[0][x]]

    # Exactly one colour spans its axis (Gale 1979): 0 (INC) the columns,
    # or 1 (DEC) the rows.
    inc_spans = hex_spans(chi, 0, "columns")
    assert inc_spans != hex_spans(chi, 1, "rows")
    path = monochromatic_spanning_path(coloring)
    colour, axis, k, far = (0, "columns", 1, m) if inc_spans else (1, "rows", 0, n)
    assert (path.color, path.axis) == ((Direction.INC, Direction.DEC)[colour], axis)
    cells = path.cells
    assert all(hex_colour(chi, c) == colour for c in cells)
    assert all(b in hex_neighbours(chi, a) for a, b in zip(cells, cells[1:]))
    assert (cells[0][k], cells[-1][k]) == (1, far)

    tops = maximal_boundaries(coloring, lines)
    want_all, want_maximal, want_flagged = naive_top_boundaries(chi)
    assert [(tb.left, tb.right, line_key(tb.line)) for tb in tops.all] == want_all
    assert [(tb.left, tb.right) for tb in tops.maximal] == want_maximal
    assert Counter(map(line_key, tops.flagged)) == Counter(want_flagged)


@pytest.mark.parametrize("rows, cols", SMALL_SHAPES)
def test_every_small_coloring_matches_the_oracles(rows, cols):
    for bits in range(2 ** (rows * cols)):
        chi = [[(bits >> (i * cols + j)) & 1 for j in range(cols)] for i in range(rows)]
        check_against_oracles(chi)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_colorings_match_the_oracles(data):
    rows = data.draw(st.integers(1, 30))
    cols = data.draw(st.integers(1, 30))
    dec_share = data.draw(st.sampled_from([0.5, 0.2, 0.05]))
    flips = data.draw(st.randoms(use_true_random=False))
    chi = [[int(flips.random() < dec_share) for _ in range(cols)] for _ in range(rows)]
    check_against_oracles(chi)


# Exact tracer output: (pairs, first corner, last corner or None, color_a, color_b).
FROZEN = [
    (
        [[0, 1, 0], [1, 1, 0], [0, 0, 1]],
        [
            (
                (((1, 1), (1, 2)), ((1, 1), (2, 1))),
                (1, 1, 1), (2, 0, 1), "inc", "dec",
            ),
            (
                (((1, 2), (1, 3)), ((2, 2), (1, 3)), ((2, 2), (2, 3)), ((2, 2), (3, 2)),
                 ((2, 2), (3, 1)), ((2, 1), (3, 1))),
                (1, 2, 1), (3, 0, 1), "dec", "inc",
            ),
            (
                (((3, 3), (2, 3)), ((3, 3), (3, 2))),
                (3, 3, -1), (4, 2, -1), "dec", "inc",
            ),
        ],
    ),
    (
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [
            (
                (((2, 2), (1, 2)), ((2, 2), (2, 1)), ((2, 2), (3, 1)), ((2, 2), (3, 2)),
                 ((2, 2), (2, 3)), ((2, 2), (1, 3))),
                (2, 2, -1), None, "dec", "inc",
            ),
        ],
    ),
]


@pytest.mark.parametrize("chi, expected", FROZEN)
def test_trace_boundary_frozen_output(chi, expected):
    assert as_tuples(trace_boundary(HexColoring.from_matrix(chi))) == expected


def test_the_analyses_use_the_lines_they_are_given():
    coloring = HexColoring.from_matrix([[0, 1] * 4])
    lines = trace_boundary(coloring)
    assert maximal_boundaries(coloring, lines).flagged == tuple(lines)
    with pytest.raises(InconsistencyError, match="not exactly the top endpoints"):
        maximal_boundaries(coloring, [])
    assert top_or_long(coloring, 1, 1, lines).line is lines[0]
    with pytest.raises(InconsistencyError, match="neither witness"):
        top_or_long(coloring, 1, 1, [])


@pytest.mark.parametrize(
    "s, long_length",
    [(-1, 1), (1, 0), (1, -1), (True, 1), (1.5, 1), pytest.param("1", 1, id="text-1"),
     (1, True), (1, 1.5), pytest.param(1, "1", id="1-text")],
)
def test_top_or_long_rejects_bad_parameters(s, long_length):
    coloring = HexColoring.from_matrix([[0] * 12] * 3)
    name, value = ("long_length", long_length) if type(s) is int and s >= 0 else ("s", s)
    bound = {"s": 0, "long_length": 1}[name]
    message = f"at least {bound}, got {value}" if type(value) is int else f"an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{name} must be {re.escape(message)}$"):
        top_or_long(coloring, s, long_length, [])


def test_top_or_long_skips_short_lines_for_the_first_long_one():
    # Every column is a component with one top cell, so s = 1 finds no
    # top-cells witness.  Cell (1, 1) stands alone: the line round it,
    # traced first, has length 2, under long_length 3; the next one runs
    # down between columns 2 and 3.
    chi = [[j % 2 for j in range(1, 25)] for _ in range(3)]
    chi[1][0] = chi[2][0] = 0
    coloring = HexColoring.from_matrix(chi)
    lines = trace_boundary(coloring)
    assert [line.length for line in lines[:2]] == [2, 5]
    assert top_or_long(coloring, 1, 3, lines).line is lines[1]


@pytest.mark.parametrize(
    "matrix",
    [5, [[0, 2], [1, 0]], [[0, True], [1, 0]], [[0, 0.0], [1, 0]], [[0, "1"], [1, 0]], ["01", "10"]],
)
def test_from_matrix_accepts_only_zero_one_or_directions(matrix):
    with pytest.raises(ShapeError):
        HexColoring.from_matrix(matrix)


def test_from_matrix_reads_zero_one_and_directions():
    coloring = HexColoring.from_matrix([[0, 1], [Direction.DEC, Direction.INC]])
    assert coloring.table == bytes([0, 1, 1, 0])


def test_verify_reports_a_cell_outside_the_grid():
    coloring = HexColoring.from_matrix([[0, 1], [1, 0]])
    # Cells (0, 1) and (1, 1) at padded width 4.
    line = BoundaryLine(coloring.grid, [1], [5], 2, 7, Direction.INC, Direction.DEC)
    assert line.pairs == (((0, 1), (1, 1)),) and not line.closed
    problems = line.verify(coloring)
    assert [problem.split(":")[0] for problem in problems] == ["sides", "pair-shape"]


def test_a_line_needs_a_pair():
    coloring = HexColoring.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="at least one pair"):
        BoundaryLine(coloring.grid, [], [], 2, 7, Direction.INC, Direction.DEC)


DAMAGES = ("flip", "repeat", "drop", "far cell", "outside cell", "shifted", "equal colours", "other shape")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_of_a_damaged_traced_line_matches_the_oracle(data):
    # One traced line, damaged one way in its padded sides, so verify
    # decides it in its whole-list passes before it lists anything; a
    # coloring of another shape is refused.
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    flips = data.draw(st.randoms(use_true_random=False))
    chi = [[flips.randrange(2) for _ in range(cols)] for _ in range(rows)]
    coloring = HexColoring.from_matrix(chi)
    lines = trace_boundary(coloring)
    assume(lines)
    line = data.draw(st.sampled_from(lines))
    pairs, colours = list(line.pairs), [line.color_a, line.color_b]
    t = data.draw(st.integers(0, len(pairs) - 1))
    damage = data.draw(st.sampled_from(DAMAGES))
    if damage == "flip":
        pairs[t] = pairs[t][::-1]
    elif damage == "repeat":
        pairs.insert(data.draw(st.integers(0, len(pairs))), pairs[t])
    elif damage == "drop":
        assume(0 < t < len(pairs) - 1)
        del pairs[t]
    elif damage in ("far cell", "outside cell"):
        side = data.draw(st.integers(0, 1))
        other = pairs[t][1 - side]
        if damage == "far cell":
            cells = [c for c in hex_cells(chi) if c not in hex_neighbours(chi, other)]
        else:  # rows -1 and rows + 2 lie outside the padded table
            cells = [(i, j) for i in range(-1, rows + 3) for j in range(cols + 2)
                     if not (1 <= i <= rows and 1 <= j <= cols)]
        pair = list(pairs[t])
        pair[side] = data.draw(st.sampled_from(cells))
        pairs[t] = tuple(pair)
    elif damage == "shifted":  # by the padded table's length, either way
        shift = data.draw(st.sampled_from((-rows - 2, rows + 2)))
        pairs = [((i1 + shift, j1), (i2 + shift, j2)) for (i1, j1), (i2, j2) in pairs]
    elif damage == "equal colours":
        colours[1] = colours[0]
    width = cols + 2
    side_a, side_b = ([i * width + j for i, j in side] for side in zip(*pairs))
    damaged = BoundaryLine(coloring.grid, side_a, side_b, line.first_corner, line.last_corner, *colours)
    assert damaged.pairs == tuple(pairs)
    if damage == "other shape":
        shape = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(lambda s: s != (rows, cols)))
        other = HexColoring.from_matrix([[flips.randrange(2) for _ in range(shape[1])] for _ in range(shape[0])])
        message = f"^a line of a {rows}x{cols} grid checked against a {shape[0]}x{shape[1]} coloring$"
        with pytest.raises(ValueError, match=message):
            damaged.verify(other)
        return
    want = naive_line_violations(chi, pairs, line.closed, colours[0].value, colours[1].value)
    assert damaged.verify(coloring) == want


def test_verify_steps_from_the_last_pair_of_a_closed_line_to_its_first():
    # The closed line around two DEC cells, less its last pair: its last
    # pair is now (2, 3), (1, 3), which shares no side with its first,
    # (2, 2), (1, 2).  Every other step and pair holds.
    chi = [[0, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0]]
    coloring = HexColoring.from_matrix(chi)
    [line] = trace_boundary(coloring)
    pairs = line.pairs[:-1]
    assert line.closed and (pairs[0], pairs[-1]) == (((2, 2), (1, 2)), ((2, 3), (1, 3)))
    width = coloring.grid.cols + 2
    side_a, side_b = ([i * width + j for i, j in side] for side in zip(*pairs))
    damaged = BoundaryLine(coloring.grid, side_a, side_b, line.first_corner, None, line.color_a, line.color_b)
    want = naive_line_violations(chi, pairs, True, "dec", "inc")
    assert want == ["step: pairs 8 and 9 must share exactly one side"]
    assert damaged.verify(coloring) == want


def test_verify_reports_equal_side_colours_on_a_one_colour_line():
    # Sides (1, 1), (2, 1) and (1, 2), (1, 2) at padded width 4: every
    # other check holds.
    coloring = HexColoring.from_matrix([[0, 0], [0, 0]])
    line = BoundaryLine(coloring.grid, [5, 9], [6, 6], 13, 10, Direction.INC, Direction.INC)
    assert line.verify(coloring) == ["sides: the two side colors are equal"]


def test_verify_decides_whole_lines_on_their_own_shape_only():
    # The 2x5 table holds, at this 2x4 line's padded indices, the colors
    # its a and b sides need; its cells there do not.  Only the line's
    # own shape is read, so the 2x5 coloring is refused.
    chi, other = [[0, 0, 1, 0], [1, 0, 0, 1]], [[0, 0, 0, 1, 1], [0, 1, 1, 0, 0]]
    lines = trace_boundary(HexColoring.from_matrix(chi))
    line = next(line for line in lines if line.pairs == (((2, 4), (1, 4)), ((2, 4), (2, 3))))
    assert naive_line_violations(other, line.pairs, line.closed, line.color_a.value, line.color_b.value)
    with pytest.raises(ValueError, match="^a line of a 2x4 grid checked against a 2x5 coloring$"):
        line.verify(HexColoring.from_matrix(other))


def test_verify_decides_a_sound_line_without_its_cell_pairs():
    # A sound line of two or more pairs is decided on its padded sides
    # alone, so its cached `pairs` are never built.
    flips = random.Random(38)
    coloring = HexColoring.from_matrix([[flips.randrange(2) for _ in range(40)] for _ in range(30)])
    lines = trace_boundary(coloring)
    assert len(lines) > 50 and {line.closed for line in lines} == {False, True}
    assert all(line.verify(coloring) == [] for line in lines)
    assert not any("pairs" in vars(line) for line in lines)


def layer_edge(kind, k, i, p):
    """A direction-consistency violation as the oracle's layer-grid edge:
    entries (k - 1, i, p) and (k - 1, i + 1, p) sit in rows r = i - k + 2
    and r + 1 of layer k - 1."""
    r = i - k + 2
    ends = {"vertical": ((r + 1, p), (r, p)), "horizontal": ((r, p), (r, p + 1)),
            "diagonal": ((r + 1, p), (r, p + 1))}
    return (k - 1, frozenset(ends[kind]), kind)


def check_link_stage(table):
    """direction_layer against its oracle, and check_direction_consistency
    against the boundary-preservation oracle on the layer grids."""
    doc = table.to_json()
    for layer in range(1, table.height + 1):
        coloring = direction_layer(table, layer)
        rows, cols = table.height + 1 - layer, table.path_len
        assert (coloring.grid.rows, coloring.grid.cols) == (rows, cols)
        chi = [list(coloring.table[k : k + cols]) for k in range(0, rows * cols, cols)]
        assert chi == naive_direction_layer(doc, layer)
    report = check_direction_consistency(table)
    violations, checked = naive_boundary_preservation(doc)
    assert report.checked == checked
    assert len(report.violations) == len(violations)
    assert {layer_edge(*v) for v in report.violations} == violations
    return report


def test_link_stage_matches_the_oracles_on_a_pipeline_table():
    graph = boxslash_product((2, 2), 4)
    table = run_passes(graph, *three_queue_layout(graph)).direction_table
    assert (table.height, table.path_len) == (2, 4)
    assert set(table.entries.values()) == {Direction.INC}
    assert check_link_stage(table).ok
    # One flipped entry in row 2 of layer 1 splits a horizontal pair whose
    # shift in layer 2 stays equal.
    entries = dict(table.entries)
    entries[(1, 2, 1)] = Direction.DEC
    report = check_link_stage(DirectionTable(2, 4, entries))
    assert report.violations == [("horizontal", 2, 2, 1)]


def test_link_stage_matches_the_oracles_on_random_tables():
    rng = random.Random(11)
    found = 0
    for _ in range(60):
        height, path_len = rng.randint(1, 5), rng.randint(1, 5)
        entries = {
            (i, j, p): rng.choice((Direction.INC, Direction.DEC))
            for i in range(1, height + 1)
            for j in range(i, height + 1)
            for p in range(1, path_len + 1)
        }
        found += not check_link_stage(DirectionTable(height, path_len, entries)).ok
    assert found > 0
