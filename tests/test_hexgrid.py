"""Hex grids: boundary tracing, cut points, spanning paths, top boundaries
and critical points against the naive oracles, frozen tracer output, and
the checks on bad lines, cells and dichotomy parameters."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from boxslash import (
    BoundaryLine,
    Direction,
    HexColoring,
    InconsistencyError,
    ShapeError,
    critical_points,
    cut_points,
    maximal_boundaries,
    monochromatic_spanning_path,
    top_or_long,
    trace_boundary,
)

from helpers_naive import (
    hex_colour,
    hex_neighbours,
    hex_spans,
    naive_boundary_lines,
    naive_top_boundaries,
)

COLOURS = (Direction.INC, Direction.DEC)


def line_key(line):
    return frozenset(frozenset(p) for p in line.pairs)


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

    for line in lines:
        check_critical_points(chi, coloring, line)


def check_critical_points(chi, coloring, line):
    """Each critical point is a strict local minimum of (depth, sign) on
    the walk, after an open line drops an end that is a plus corner below
    its neighbour; its base is the colour of cell (depth, col); and its
    d3 pair is a vertical pair on one of its two walk edges."""
    walk = line.walk
    count = len(walk)
    keys = [(v.depth, v.sign) for v in walk]
    lo, hi = 0, count - 1
    if not line.closed and line.length >= 2:
        lo = int(keys[0][1] > 0 and keys[0] < keys[1])
        hi -= int(keys[-1][1] > 0 and keys[-1] < keys[-2])
    for point in critical_points(line, coloring):
        t = point.walk_index
        assert lo <= t <= hi and point.vertex == walk[t]
        if line.closed:
            near, edges = [(t - 1) % count, (t + 1) % count], {(t - 1) % count, t}
        else:
            near, edges = [u for u in (t - 1, t + 1) if lo <= u <= hi], {t - 1, t}
        assert all(keys[t] < keys[u] for u in near)
        assert point.base == COLOURS[hex_colour(chi, (point.vertex.depth, point.vertex.col))]
        if point.d3_pair_index is not None:
            assert point.d3_pair_index in edges
            (i1, j1), (i2, j2) = line.pairs[point.d3_pair_index]
            assert j1 == j2 and abs(i1 - i2) == 1


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


# Exact tracer output: (pairs, walk as (depth, col, sign), closed, color_a, color_b).
FROZEN = [
    (
        [[0, 1, 0], [1, 1, 0], [0, 0, 1]],
        [
            (
                (((1, 1), (1, 2)), ((1, 1), (2, 1))),
                ((1, 1, 1), (2, 1, -1), (2, 0, 1)),
                False, "inc", "dec",
            ),
            (
                (((1, 2), (1, 3)), ((2, 2), (1, 3)), ((2, 2), (2, 3)), ((2, 2), (3, 2)),
                 ((2, 2), (3, 1)), ((2, 1), (3, 1))),
                ((1, 2, 1), (2, 2, -1), (2, 2, 1), (3, 2, -1), (3, 1, 1), (3, 1, -1), (3, 0, 1)),
                False, "dec", "inc",
            ),
            (
                (((3, 3), (2, 3)), ((3, 3), (3, 2))),
                ((3, 3, -1), (3, 2, 1), (4, 2, -1)),
                False, "dec", "inc",
            ),
        ],
    ),
    (
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [
            (
                (((2, 2), (1, 2)), ((2, 2), (2, 1)), ((2, 2), (3, 1)), ((2, 2), (3, 2)),
                 ((2, 2), (2, 3)), ((2, 2), (1, 3))),
                ((2, 2, -1), (2, 1, 1), (3, 1, -1), (3, 1, 1), (3, 2, -1), (2, 2, 1)),
                True, "dec", "inc",
            ),
        ],
    ),
]


@pytest.mark.parametrize("chi, expected", FROZEN)
def test_trace_boundary_frozen_output(chi, expected):
    lines = trace_boundary(HexColoring.from_matrix(chi))
    got = [
        (
            line.pairs,
            tuple((v.depth, v.col, v.sign) for v in line.walk),
            line.closed,
            line.color_a.value,
            line.color_b.value,
        )
        for line in lines
    ]
    assert got == expected


def test_the_analyses_use_the_lines_they_are_given():
    coloring = HexColoring.from_matrix([[0, 1] * 4])
    lines = trace_boundary(coloring)
    assert maximal_boundaries(coloring, lines).flagged == tuple(lines)
    with pytest.raises(InconsistencyError, match="not exactly the top endpoints"):
        maximal_boundaries(coloring, [])
    assert top_or_long(coloring, 1, 1, lines).line is lines[0]
    with pytest.raises(InconsistencyError, match="neither witness"):
        top_or_long(coloring, 1, 1, [])


@pytest.mark.parametrize("s, long_length", [(-1, 1), (1, 0), (1, -1)])
def test_top_or_long_rejects_bad_parameters(s, long_length):
    coloring = HexColoring.from_matrix([[0] * 12] * 3)
    with pytest.raises(ValueError, match="s must be nonnegative|long_length must be at least 1"):
        top_or_long(coloring, s, long_length, [])


@pytest.mark.parametrize(
    "matrix",
    [5, [[0, 2], [1, 0]], [[0, True], [1, 0]], [[0, 0.0], [1, 0]], [[0, "1"], [1, 0]], ["01", "10"]],
)
def test_from_matrix_accepts_only_zero_one_or_directions(matrix):
    with pytest.raises(ShapeError):
        HexColoring.from_matrix(matrix)


def test_from_matrix_reads_zero_one_and_directions():
    coloring = HexColoring.from_matrix([[0, 1], [Direction.DEC, Direction.INC]])
    assert [coloring.color(c) for c in itertools.product((1, 2), (1, 2))] == [
        Direction.INC, Direction.DEC, Direction.DEC, Direction.INC,
    ]


def test_verify_reports_a_cell_outside_the_grid():
    coloring = HexColoring.from_matrix([[0, 1], [1, 0]])
    line = BoundaryLine(coloring.grid, [((0, 1), (1, 1))], [2, 7], False, Direction.INC, Direction.DEC)
    problems = line.verify(coloring)
    assert [problem.split(":")[0] for problem in problems] == ["sides", "pair-shape"]


@pytest.mark.parametrize("cell", [(0, 1), (1, 0), (3, 1), (1, 4), (-1, 2), (2, -1)])
def test_color_rejects_cells_outside_the_grid(cell):
    coloring = HexColoring.from_matrix([[0, 1, 1], [1, 0, 0]])
    with pytest.raises(KeyError, match="outside the 2x3 grid"):
        coloring.color(cell)
