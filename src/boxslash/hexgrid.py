"""Two-colored hexagonal grids and their boundary-line machinery.

Cells live on an n-by-m grid, row 1 at the top, and each cell touches
six neighbours: the four axis ones plus the two anti-diagonal ones.
A two-coloring of the cells induces boundary lines: runs of crossed
grid edges that separate unequal colors.  This module traces those
lines, verifies their structural invariants, classifies the boundaries
hanging off the top row, decides the top-cells-or-long-line dichotomy,
and reads the layers of a direction table as colorings.

A coloring is one row-major table of 0 (INC) and 1 (DEC) codes, read by
integer index, and caches that table framed by a border of 2s, the
padded table every trace and flood reads.  A boundary line keeps its
two sides as padded indices and its two end corners, and builds cell
pairs only when `pairs` is read.  For N cells and P boundary pairs:
`trace_boundary` finds the boundary edges in three XORs of N-byte
integers and takes O(1) steps per pair, one color comparison each;
`BoundaryLine.verify` decides a line of its coloring's shape in a few
C-level passes over its sides, and lists a failing line pair by pair,
linear in its length either way; `monochromatic_spanning_path` and
`top_or_long` flood O(N) cells of the padded table;
`maximal_boundaries` reads two corners per line, then compares the T
top boundaries pairwise, O(T^2).  The analyses that need the lines take
them as an argument, so `hex analyze` traces each coloring once.

The dichotomy is the last stage of the paper's argument built here.
Below is the smallest input each stage needs, for k stack pages and
s + 1 top cells; a product may have at most VERTEX_LIMIT = 10^6 vertices.
A tree of height h with two or more children per level has at least
2^(h+1) - 1 nodes, so h <= 18 at every path length.

  stage                  smallest input
  passes -> directions   `run_passes` extracts a direction table once
                         every surviving level keeps >= 2 children; the
                         (2)x1 product (3 vertices) already has one.
  `direction_layer`      layer l of a table is a grid of height + 1 - l
                         rows by path_len columns; layer 1 has height
                         rows, so at most 18 under the limit.
  `top_or_long`          a grid of at least `required_grid_size(s, L)`
                         = (L, 2(s+2)L + 2L); layer 1 of (2)^L x (2s+6)L
                         is the smallest.  L = 12 is the largest in
                         reach: 589,752 vertices for s = 0 and 786,336
                         for s = 1.  L = 13 needs 1,277,874 and 1,703,832.
  good points            2s + 1 pairwise-good critical points are
                         guaranteed only on a boundary line of length
                         T(2s + 1), T(1) = 1 and T(c + 1) =
                         (c + 1)^2 (2 T(c) + 5) T(c): 28 for 2 points,
                         15,372 for 3 (s = 1), 7,562,778,048 for 4.
  bundled chain          a chain of related sequences longer than
                         10 * 2^k (20, 40, 80 for k = 1, 2, 3).  For
                         k = 1 that takes a layer grid of 21 rows, and
                         `required_grid_size(1, 21)` = (21, 168): a tree
                         of height >= 21, at least 2^22 - 1 = 4,194,303
                         nodes even at path length 1.
  rainbow chain          an interleave above 10 * 4^k (40, 160, 640
                         for k = 1, 2, 3).

No input under the limit reaches the last three stages, so the package
stops at the dichotomy and holds no code for them.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .errors import InconsistencyError, ShapeError, SizeLimitError, integer
from .passes import DirectionTable
from .sequences import Direction

Cell = tuple[int, int]

# Color of each table code.
_COLORS = (Direction.INC, Direction.DEC)

# Neighbour offsets: axis plus the two anti-diagonal directions.
NEIGHBOR_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1))


@dataclass(frozen=True)
class HexGrid:
    """rows x cols cells, each count at least 1 by ``errors.integer``."""

    rows: int
    cols: int

    def __post_init__(self):
        for field in ("rows", "cols"):
            object.__setattr__(self, field, integer(getattr(self, field), field, 1))


class HexColoring:
    """Two-coloring of a HexGrid as one row-major table of cell codes.

    `table[(i - 1) * cols + (j - 1)]` is 0 when cell (i, j) is INC and 1
    when it is DEC.
    """

    def __init__(self, grid: HexGrid, table: bytes):
        self.grid = grid
        self.table = bytes(table)
        if len(self.table) != grid.rows * grid.cols:
            raise ShapeError(f"{len(self.table)} colors for a {grid.rows}x{grid.cols} grid")
        if self.table.translate(None, b"\x00\x01"):
            raise ShapeError("color table holds a code other than 0 or 1")

    @cached_property
    def _padded(self) -> bytes:
        """The table framed by a border of 2s, rows cols + 2 wide.

        Cell (i, j) sits at i * (cols + 2) + j, so a step to a neighbour
        adds di * (cols + 2) + dj; border cells match no color, so the
        floods and walks never test bounds.
        """
        cols = self.grid.cols
        table = self.table
        border = b"\x02" * (cols + 2)
        inner = b"\x02\x02".join(table[k : k + cols] for k in range(0, len(table), cols))
        return border + b"\x02" + inner + b"\x02" + border

    def color(self, cell: Cell) -> Direction:
        i, j = cell
        if not (1 <= i <= self.grid.rows and 1 <= j <= self.grid.cols):
            raise KeyError(f"cell {(i, j)} is outside the {self.grid.rows}x{self.grid.cols} grid")
        return _COLORS[self.table[(i - 1) * self.grid.cols + j - 1]]

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence]) -> "HexColoring":
        """A coloring from a list of rows whose cells are 0 (INC), 1 (DEC) or Directions."""
        lists = (list, tuple)
        if not isinstance(matrix, lists) or not all(isinstance(row, lists) for row in matrix):
            raise ShapeError("coloring matrix must be a list of lists")
        rows = len(matrix)
        if rows == 0:
            raise ShapeError("empty coloring matrix")
        cols = len(matrix[0])
        if any(len(row) != cols for row in matrix):
            raise ShapeError("ragged coloring matrix")
        table = bytearray()
        for i, row in enumerate(matrix, start=1):
            if set(map(type, row)) == {int} and min(row) >= 0 and max(row) <= 1:
                table.extend(row)
                continue
            for j, value in enumerate(row, start=1):
                if type(value) not in (int, Direction) or value not in (0, 1, *_COLORS):
                    raise ShapeError(f"cell {(i, j)} color {value!r} is not 0, 1 or a Direction")
                table.append(value in (1, Direction.DEC))
        return cls(HexGrid(rows, cols), table)

    @classmethod
    def from_json(cls, doc: Mapping) -> "HexColoring":
        n, m = (integer(doc.get(key), f"grid size {key!r}") for key in ("n", "m"))
        if "chi" not in doc:
            raise ShapeError("coloring document has no 'chi' matrix")
        out = cls.from_matrix(doc["chi"])
        if (out.grid.rows, out.grid.cols) != (n, m):
            raise ShapeError("declared grid size disagrees with the color matrix")
        return out


# ---------------------------------------------------------------------------
# Boundary lines.

# Translation keeping only byte 1: the XOR of two codes is 1 exactly when
# they are 0 and 1; a border code 2 gives 2 or 3, or 0 against a border.
_ONLY_ONE = bytes((0, 1)) + bytes(254)


def _steps(width: int) -> tuple[int, ...]:
    """The six neighbour steps in the padded table, turning around a cell.

    Steps k and k + 1 (mod 6) lead to two neighbours that touch each
    other, and step k is step k - 1 plus step k + 1.
    """
    return (1, 1 - width, -width, -1, width - 1, width)


def _corner(cells, width: int) -> int:
    """The corner number of a triangle of padded cells, rows `width` wide.

    A corner of the dual graph is a grid triangle (depth, col, sign):
    sign -1 is the triangle of cells (d, c), (d-1, c) and (d-1, c+1),
    sign +1 that of (d, c), (d, c+1) and (d-1, c+1); corners whose
    triangle leaves the grid lie on its border.  Its number is
    ((depth * (cols + 1)) + col) * 2 + (sign > 0).
    """
    lo, mid, hi = sorted(cells)
    if mid == lo + 1:  # (d, c, -): cells hi - width, hi - width + 1 and hi
        anchor, sign = hi, 0
    else:  # (d, c, +): cells mid - width + 1, mid and mid + 1
        anchor, sign = mid, 1
    return (anchor - anchor // width) * 2 + sign


class BoundaryLine:
    """One separating line, stored as its two sides and its two end corners.

    Pair t is (a_t, b_t): the cells on the two sides of the t-th crossed
    grid edge, the a side holding color_a everywhere along the line.
    The sides are lists of padded-table indices (see
    `HexColoring._padded`); `pairs` holds them as cells.  Consecutive
    pairs are two sides of one grid triangle, so the sides fix every
    corner the line passes between its ends, and a line keeps only the
    corner numbers (see `_corner`) of its first corner and of its last,
    None for a closed line, whose last pair joins back to its first.
    """

    def __init__(self, grid: HexGrid, side_a: list[int], side_b: list[int], first: int, last: int | None,
                 color_a: Direction, color_b: Direction):
        if not side_a:
            raise ValueError("a boundary line needs at least one pair")
        self.grid, self._side_a, self._side_b = grid, side_a, side_b
        self.first_corner, self.last_corner, self.closed = first, last, last is None
        self.color_a, self.color_b = color_a, color_b

    @property
    def length(self) -> int:
        return len(self._side_a)

    @cached_property
    def pairs(self) -> tuple[tuple[Cell, Cell], ...]:
        width = self.grid.cols + 2
        return tuple((divmod(x, width), divmod(y, width)) for x, y in zip(self._side_a, self._side_b))

    def verify(self, coloring: HexColoring) -> list[str]:
        """All violations of the four line invariants, empty when sound.

        A line checked against a coloring of its own shape is first
        decided whole; only a line that fails, or one checked against
        another shape, is listed pair by pair.  A cell outside the grid is a pair-shape
        violation and, having no color, a sides one.
        """
        if coloring.grid == self.grid and self._sound(coloring._padded):
            return []
        return self._violations(coloring)

    def _sound(self, padded: bytes) -> bool:
        """Whether the padded sides hold all four invariants, in passes over whole lists.

        Every a cell is at least a row inside the table and every pair
        differs by a neighbour step, so every b cell is in the table too.
        Colors are counted, so every cell is inside the grid; then two
        cells are neighbours exactly when their indices differ by a
        neighbour step, as a row is two cells wider than the grid.  Once
        every a cell holds color_a and every b cell color_b, a pair can
        only repeat in its own orientation, so the set of pairs finds
        every repeat.
        """
        a, b = self._side_a, self._side_b
        n, width = len(a), self.grid.cols + 2
        # One pair is left to the pair loop: itemgetter of one index returns no tuple.
        if self.color_a == self.color_b or n < 2:
            return False
        if not set(map(operator.sub, a, b)) <= set(_steps(width)):
            return False
        if min(a) < width or max(a) >= len(padded) - width:
            return False
        code_a, code_b = self.color_a is Direction.DEC, self.color_b is Direction.DEC
        if (operator.itemgetter(*a)(padded).count(code_a) != n
                or operator.itemgetter(*b)(padded).count(code_b) != n):
            return False
        a_next, b_next = (a[1:] + a[:1], b[1:] + b[:1]) if self.closed else (a[1:], b[1:])
        if any(map(operator.eq, map(operator.eq, a, a_next), map(operator.eq, b, b_next))):
            return False
        return len(set(zip(a, b))) == n

    def _violations(self, coloring: HexColoring) -> list[str]:
        """`verify`'s list, made pair by pair."""
        out = []
        if self.color_a == self.color_b:
            out.append("sides: the two side colors are equal")
        rows, cols = coloring.grid.rows, coloring.grid.cols
        table = coloring.table
        code_a, code_b = self.color_a is Direction.DEC, self.color_b is Direction.DEC
        pairs = self.pairs
        for t, ((i1, j1), (i2, j2)) in enumerate(pairs):
            inside = 0 < i1 <= rows and 0 < j1 <= cols and 0 < i2 <= rows and 0 < j2 <= cols
            if not (
                inside
                and table[(i1 - 1) * cols + j1 - 1] == code_a
                and table[(i2 - 1) * cols + j2 - 1] == code_b
            ):
                out.append(f"sides: pair {t} colors are not (a={self.color_a.value}, b={self.color_b.value})")
            if not (inside and (i1 - i2, j1 - j2) in NEIGHBOR_OFFSETS):
                out.append(f"pair-shape: pair {t} cells {(i1, j1)} and {(i2, j2)} are not grid-adjacent")
        steps = list(zip(range(len(pairs) - 1), pairs, pairs[1:]))
        if self.closed and len(pairs) > 1:
            steps.append((len(pairs) - 1, pairs[-1], pairs[0]))
        for t, (a1, b1), (a2, b2) in steps:
            if (a1 == a2) == (b1 == b2):
                out.append(f"step: pairs {t} and {t + 1} must share exactly one side")
        seen = set()
        for t, (a, b) in enumerate(pairs):
            key = (a, b) if a < b else (b, a)
            if key in seen:
                out.append(f"duplicate: pair {t} repeats an earlier pair")
            seen.add(key)
        return out


def trace_boundary(coloring: HexColoring) -> list[BoundaryLine]:
    """Decompose the boundary subgraph into its separating lines.

    Every grid edge is crossed by one dual edge, and it is a boundary
    edge when its two cells differ.  Three shifted XORs of the padded
    table (see `HexColoring._padded`) flag the boundary edges by their
    deeper or left cell: vertical, to the cell above; diagonal, to the
    cell above and right; horizontal, to the cell on the right.  Edges
    are numbered per row, vertical crossings then diagonal ones, and
    then every horizontal crossing.

    A walk crosses one edge into a grid triangle.  `HexColoring` holds
    only codes 0 and 1, and a triangle in two colors has zero or two
    unequal sides, so no corner has more than two boundary edges and
    none needs its degree checked.  One color comparison with the
    triangle's third cell picks the side to leave by; a triangle with a
    border cell has only the one side, and ends an open line.  Crossing
    an edge clears its flag.  Open lines start at the border corners
    with one boundary edge, in (depth, sign, col) order: the top cuts,
    then per row the right and left sides, then the bottom.  Closed
    lines start, row by row, at the minus corner of the row's first
    unused vertical edge, which `bytearray.find` gives.  Every closed
    line has one in its highest row D of vertical and diagonal edges:
    the triangle above one of its diagonal edges there, cells (D, j),
    (D - 1, j) and (D - 1, j + 1), is left either by the vertical edge
    of row D or by a horizontal edge into row D - 1, and the triangle
    across that edge is left by a vertical or diagonal edge of row
    D - 1, or lies on the border, where only open lines end.  The a
    side holds the color of the deeper or left cell of a line's first
    edge.
    """
    grid = coloring.grid
    rows, cols = grid.rows, grid.cols
    padded = coloring._padded
    width, size = cols + 2, len(padded)

    def unequal(shift: int) -> bytes:
        # Byte k is 1 when cells k and k + shift are both grid cells and differ.
        head = int.from_bytes(padded[: size - shift], "big")
        tail = int.from_bytes(padded[shift:], "big")
        return (head ^ tail).to_bytes(size - shift, "big").translate(_ONLY_ONE)

    vertical = bytearray(bytes(width) + unequal(width))
    diagonal = bytearray(bytes(width - 1) + unequal(width - 1))
    horizontal = bytearray(unequal(1))
    steps = _steps(width)
    third = steps[1:] + steps[:1]
    # Moving p to the third cell turns the step p -> q back by one;
    # moving q there turns it on by one.
    turn_p, turn_q = (5, 0, 1, 2, 3, 4), (1, 2, 3, 4, 5, 0)
    # Edge (p, p + steps[k]) is flagged at flags[k][p + flag_at[k]].
    flags = (horizontal, diagonal, vertical) * 2
    flag_at = (0, 0, 0, *steps[3:])
    lines = []

    def follow(p: int, q: int, k: int, a_is_p: bool) -> None:
        # The walk has just crossed from cell p to cell q = p + steps[k]
        # into the triangle whose third cell is p + steps[k + 1].
        first = _corner((p, q, p + steps[k - 1]), width)
        flags[k][p + flag_at[k]] = 0
        side_p, side_q = [p], [q]
        code = padded[p]
        while True:
            t = p + third[k]
            c = padded[t]
            if c == code:
                p = t
                k = turn_p[k]
            elif c == 2:  # the border: the end of an open line
                break
            else:
                q = t
                k = turn_q[k]
            row = flags[k]
            e = p + flag_at[k]
            if not row[e]:  # back at the first edge of a closed line
                break
            row[e] = 0
            side_p.append(p)
            side_q.append(q)
        last = _corner((p, q, t), width) if c == 2 else None
        a, b = (side_p, side_q) if a_is_p else (side_q, side_p)
        code_a = padded[a[0]]
        lines.append(BoundaryLine(grid, a, b, first, last, _COLORS[code_a], _COLORS[1 - code_a]))

    for x in range(width + 1, width + cols):  # corner (1, c, +) at the top cut c
        if horizontal[x]:
            follow(x + 1, x, 3, False)
    for d in range(2, rows + 1):
        x = d * width + cols  # corner (d, cols, -) on the right
        if vertical[x]:
            follow(x, x - width, 2, True)
        x = d * width + 1  # corner (d, 0, +) on the left
        if vertical[x]:
            follow(x - width, x, 5, False)
    for x in range(rows * width + 1, rows * width + cols):  # corner (rows + 1, c, -)
        if horizontal[x]:
            follow(x, x + 1, 0, True)
    for base in range(2 * width, (rows + 1) * width, width):
        x = vertical.find(1, base, base + width)
        while x >= 0:
            follow(x, x - width, 2, True)
            x = vertical.find(1, x + 1, base + width)
    return lines


# ---------------------------------------------------------------------------
# Top cuts and the boundaries hanging off them.

def cut_points(coloring: HexColoring) -> list[int]:
    """Columns x whose top cell differs in color from its right neighbour."""
    top = coloring.table[: coloring.grid.cols]
    return [x for x in range(1, len(top)) if top[x - 1] != top[x]]


@dataclass(frozen=True)
class TopBoundary:
    left: int
    right: int
    line: BoundaryLine


@dataclass(frozen=True)
class TopBoundaries:
    all: tuple[TopBoundary, ...]
    maximal: tuple[TopBoundary, ...]
    flagged: tuple[BoundaryLine, ...]


def maximal_boundaries(coloring: HexColoring, lines: Sequence[BoundaryLine]) -> TopBoundaries:
    """Boundary lines with both ends at top cuts, and the maximal ones.

    `lines` is `trace_boundary(coloring)`.  Every top cut is an endpoint
    of exactly one line.  Lines joining two cuts x < y form intervals
    that must nest or stay disjoint, and the top colors just outside a
    boundary must agree; either failing raises InconsistencyError.  Two
    maximal intervals cannot nest, so they are disjoint.
    Lines leaving a cut but ending at some other border are reported in
    `flagged` and take no further part.
    """
    cuts = cut_points(coloring)
    tops: list[TopBoundary] = []
    flagged: list[BoundaryLine] = []
    claimed: list[int] = []
    width = coloring.grid.cols + 1
    for line in lines:
        if line.closed:
            continue
        # The top corner (1, x, +) is numbered (width + x) * 2 + 1.
        ends = (line.first_corner, line.last_corner)
        top_cols = sorted((end >> 1) - width for end in ends if end & 1 and width <= end >> 1 < 2 * width)
        if len(top_cols) == 2:
            tops.append(TopBoundary(top_cols[0], top_cols[1], line))
            claimed.extend(top_cols)
        elif len(top_cols) == 1:
            flagged.append(line)
            claimed.extend(top_cols)
    if sorted(claimed) != cuts:
        raise InconsistencyError(
            f"cuts {cuts} are not exactly the top endpoints {sorted(claimed)}"
        )
    tops.sort(key=lambda tb: (tb.left, tb.right))
    for one, two in itertools.combinations(tops, 2):
        # Sorted, so one.left <= two.left: two nests in one or follows it.
        if not (one.left < two.left and two.right < one.right or one.right < two.left):
            raise InconsistencyError(
                f"boundaries ({one.left},{one.right}) and ({two.left},{two.right}) cross"
            )
    maximal = [
        tb for tb in tops if not any(out.left < tb.left and tb.right < out.right for out in tops)
    ]
    for tb in tops:
        outside_left = coloring.color((1, tb.left))
        outside_right = coloring.color((1, tb.right + 1))
        if outside_left != outside_right:
            raise InconsistencyError(
                f"boundary ({tb.left},{tb.right}) has unequal outside top colors"
            )
    return TopBoundaries(tuple(tops), tuple(maximal), tuple(flagged))


# ---------------------------------------------------------------------------
# Spanning paths and the top-or-long dichotomy.

@dataclass(frozen=True)
class SpanningPath:
    cells: tuple[Cell, ...]
    color: Direction
    axis: str


def _flood(padded: bytes, width: int, sources: Sequence[int], parent: list[int]):
    """Breadth-first over the cells of the sources' color, in visiting order.

    `parent[k]` is 0 until padded cell k is reached, then the cell it
    was reached from (-1 for a source); neighbours are tried in
    NEIGHBOR_OFFSETS order.  A caller may stop early.
    """
    steps = [di * width + dj for di, dj in NEIGHBOR_OFFSETS]
    code = padded[sources[0]]
    for k in sources:
        parent[k] = -1
    queue = deque(sources)
    while queue:
        cur = queue.popleft()
        yield cur
        for step in steps:
            nb = cur + step
            if padded[nb] == code and not parent[nb]:
                parent[nb] = cur
                queue.append(nb)


def monochromatic_spanning_path(coloring: HexColoring) -> SpanningPath:
    """A one-color path crossing the grid; each color gets its own axis.

    The first color tries to span the columns left to right, the second
    the rows top to bottom.  The adjacency includes the anti-diagonal
    neighbours, which is what rules out a double draw; failure of both
    colors means the coloring data is corrupt.
    """
    grid = coloring.grid
    padded, width = coloring._padded, grid.cols + 2
    plans = (
        (0, "columns", [i * width + 1 for i in range(1, grid.rows + 1)], grid.cols),
        (1, "rows", [width + j for j in range(1, grid.cols + 1)], grid.rows),
    )
    for code, axis, side, far in plans:
        sources = [k for k in side if padded[k] == code]
        if not sources:
            continue
        parent = [0] * len(padded)
        goal = None
        for cur in _flood(padded, width, sources, parent):
            if (cur % width if axis == "columns" else cur // width) == far:
                goal = cur
                break
        if goal is None:
            continue
        path = []
        at = goal
        while at != -1:
            path.append(divmod(at, width))
            at = parent[at]
        path.reverse()
        if len(path) < far:
            raise InconsistencyError("spanning path shorter than the spanned side")
        return SpanningPath(tuple(path), _COLORS[code], axis)
    raise InconsistencyError("neither color spans its axis")


@dataclass(frozen=True)
class TopCellsWitness:
    color: Direction
    cells: tuple[Cell, ...]
    component_size: int


@dataclass(frozen=True)
class LongBoundaryWitness:
    line: BoundaryLine


def required_grid_size(s: int, long_length: int) -> tuple[int, int]:
    """Minimum (rows, cols) for the top-or-long dichotomy.  ``s`` and
    ``long_length`` are counts under ``errors.integer``, at least 0 and 1."""
    s, long_length = integer(s, "s", 0), integer(long_length, "long_length", 1)
    return (long_length, 2 * (s + 2) * long_length + 2 * long_length)


def top_or_long(coloring: HexColoring, s: int, long_length: int, lines: Sequence[BoundaryLine]):
    """Either a component holding s+1 top cells, or a boundary of length >= long_length.

    `lines` is `trace_boundary(coloring)`; the first long one in that
    order is the witness.  Wide enough grids always provide one of the
    two.  The returned witness is re-verified before being handed back;
    a wide grid where both searches and the recheck come up empty is
    inconsistent data.  ``s`` and ``long_length`` are checked as
    `required_grid_size` checks them.
    """
    grid = coloring.grid
    rows_needed, cols_needed = required_grid_size(s, long_length)  # which refuses a bad count
    s, long_length = operator.index(s), operator.index(long_length)
    if grid.rows < rows_needed or grid.cols < cols_needed:
        raise SizeLimitError(
            f"grid is {grid.rows}x{grid.cols} but the dichotomy needs at least "
            f"{rows_needed}x{cols_needed}"
        )
    # Only a component that holds a row-1 cell can be the witness; each
    # is flooded from its leftmost row-1 cell, left to right.
    padded, width = coloring._padded, grid.cols + 2
    seen = [0] * len(padded)
    for start in range(width + 1, width + grid.cols + 1):
        if seen[start]:
            continue
        comp = list(_flood(padded, width, [start], seen))
        top = sorted(k for k in comp if k < 2 * width)
        if len(top) >= s + 1:
            chosen = top[: s + 1]
            again = [0] * len(padded)
            deque(_flood(padded, width, chosen[:1], again), maxlen=0)
            if not all(again[k] for k in chosen):
                raise InconsistencyError("top cells witness failed its connectivity recheck")
            cells = tuple(divmod(k, width) for k in chosen)
            return TopCellsWitness(_COLORS[padded[start]], cells, len(comp))
    for line in lines:
        if line.length >= long_length:
            problems = line.verify(coloring)
            if problems:
                raise InconsistencyError(f"long line failed recheck: {problems[0]}")
            return LongBoundaryWitness(line)
    raise InconsistencyError(
        "grid is large enough yet has neither witness; the coloring data is corrupt"
    )


# ---------------------------------------------------------------------------
# Linking direction tables back to grids.

def direction_layer(table: DirectionTable, layer: int) -> HexColoring:
    """Layer `layer` of a direction table viewed as a colored grid.

    Row r, column p of the grid holds entry (layer, layer + r - 1, p);
    the grid has height + 1 - layer rows and path_len columns.  ``layer``
    is a count under ``errors.integer``, from 1 to the table's height.
    """
    layer = integer(layer, "layer")
    if not (1 <= layer <= table.height):
        raise ValueError(f"layer {layer} outside 1..{table.height}")
    return HexColoring.from_matrix([
        [table.direction(layer, row, p) for p in range(1, table.path_len + 1)]
        for row in range(layer, table.height + 1)
    ])

