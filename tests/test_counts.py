"""The one integer rule, `errors.integer`, on every public count argument:
a bool, a float or a string is refused with the rule's message, and an
object with `__index__` is taken and kept as a plain int."""

import re

import pytest

from boxslash import (
    Direction,
    DirectionTable,
    EdgeColoring,
    HexColoring,
    NodeIndex,
    TreeSpec,
    boxslash_product,
    direction_layer,
    layout_from_json,
    run_passes,
    stack_number,
    three_queue_layout,
    required_grid_size,
    top_or_long,
    trace_boundary,
)
from boxslash.hexgrid import HexGrid
from boxslash.product import restrict_ids


class Index:
    """An integer by `__index__` alone: no int, no bool."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _table(height, path_len=1):
    entries = {(i, j, p): Direction.INC for i in range(1, height + 1)
               for j in range(i, height + 1) for p in range(1, path_len + 1)}
    return DirectionTable(height, path_len, entries)


def _passes(v):
    g = boxslash_product((3, 3), 2)
    return run_passes(g, *three_queue_layout(g), colour_targets=v).graph.tree.spec.degrees[0]


# The short-first-line grid of test_hexgrid: its first long line has length 5.
_STRIPES = [[j % 2 for j in range(1, 25)], *[[0] + [j % 2 for j in range(2, 25)]] * 2]
_MONO = HexColoring.from_matrix([[0] * 12] * 3)
_DOC = {"order": ["a", "b"], "colors": {"a--b": 0}}

# id: (the name in the message, a call that takes the count, a good value).
# Each call returns what its object keeps of the count, or the result it
# gives, which must match that of the plain int.
COUNTS = {
    "NodeIndex": ("child choice", lambda v: NodeIndex((v,)).path[0], 2),
    "TreeSpec": ("degree", lambda v: TreeSpec((v,)).degrees[0], 2),
    "restrict_ids": ("child choice", lambda v: restrict_ids((3,), {0: [v]})[1][1], 2),
    "boxslash_product": ("path_len", lambda v: boxslash_product((2,), v).path_len, 3),
    "EdgeColoring.colour": ("colour of edge ('a', 'b')",
                            lambda v: EdgeColoring({("a", "b"): v}).get("a", "b"), 2),
    "EdgeColoring.k": ("k", lambda v: EdgeColoring({("a", "b"): 0}, k=v).k, 3),
    "layout_from_json.colour": ("colour of edge 'a--b'",
                                lambda v: layout_from_json({**_DOC, "colors": {"a--b": v}}, str)[1].get("a", "b"), 2),
    "layout_from_json.k": ("layout 'k'", lambda v: layout_from_json({**_DOC, "k": v}, str)[1].k, 3),
    "run_passes": ("colour pass: level 0 target", _passes, 2),
    "stack_number": ("upper_limit", lambda v: stack_number([(0, 1), (1, 2)], upper_limit=v).value, 3),
    "HexGrid.rows": ("rows", lambda v: HexGrid(v, 3).rows, 2),
    "HexGrid.cols": ("cols", lambda v: HexGrid(3, v).cols, 2),
    "HexColoring.from_json.n": ("grid size 'n'",
                                lambda v: HexColoring.from_json({"n": v, "m": 1, "chi": [[0], [1]]}).grid.rows, 2),
    "HexColoring.from_json.m": ("grid size 'm'",
                                lambda v: HexColoring.from_json({"n": 1, "m": v, "chi": [[0, 1]]}).grid.cols, 2),
    "DirectionTable.height": ("height", lambda v: DirectionTable(v, 1, _table(2).entries).height, 2),
    "DirectionTable.path_len": ("path_len", lambda v: DirectionTable(1, v, _table(1, 2).entries).path_len, 2),
    "direction_layer": ("layer", lambda v: direction_layer(_table(3), v).grid.rows, 2),
    "required_grid_size.s": ("s", lambda v: required_grid_size(v, 1)[1], 1),
    "required_grid_size.long_length": ("long_length", lambda v: required_grid_size(1, v)[0], 3),
    "top_or_long.s": ("s", lambda v: len(top_or_long(_MONO, v, 1, []).cells), 1),
    "top_or_long.long_length": ("long_length", lambda v: top_or_long(
        c := HexColoring.from_matrix(_STRIPES), 1, v, trace_boundary(c)).line.length, 3),
}

# Arguments that an earlier parametrised test already feeds True, a
# float and a string: test_product, test_layout, test_passes, test_solver
# and test_hexgrid's test_top_or_long_rejects_bad_parameters.
REFUSED_ELSEWHERE = {"NodeIndex", "TreeSpec", "boxslash_product", "EdgeColoring.colour", "EdgeColoring.k",
                     "run_passes", "stack_number", "top_or_long.s", "top_or_long.long_length"}


@pytest.mark.parametrize("bad", [True, 2.5, "3"])
@pytest.mark.parametrize("argument", sorted(set(COUNTS) - REFUSED_ELSEWHERE))
def test_a_count_refuses_what_is_no_integer(argument, bad):
    name, call, _ = COUNTS[argument]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("argument", sorted(COUNTS))
def test_a_count_takes_an_index_as_an_int(argument):
    _, call, good = COUNTS[argument]
    kept = call(Index(good))
    assert type(kept) is int
    assert kept == call(good)
