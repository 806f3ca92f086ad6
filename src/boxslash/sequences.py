"""Monotone vertex sequences and their directions.

A sequence is given by the distinct ranks of its vertices in a linear
order.  It is monotone when it runs one way throughout: it rises if no
neighbour comparison falls, and falls if none rises.  Its directions are
read off the set of its neighbour comparisons, once, as bits:
`step_bits` is the one definition of "monotone" that the passes'
direction tables and related pairs use.  The related pairs themselves
are decided in `passes._related_families`, which states their
definition; their colour clause is the colour table's, one colour per
signature, decided in `passes.ColorTable.from_colors`.  The chains of
related pairs that the paper builds on top of them need inputs far
beyond the package's size limit; the size table in the `hexgrid`
docstring gives the figures.

A single-element sequence is monotone in both directions at once;
step_bits reports that as INC_BIT | DEC_BIT.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional


class Direction(Enum):
    INC = "inc"
    DEC = "dec"

    @property
    def opposite(self) -> "Direction":
        return Direction.DEC if self is Direction.INC else Direction.INC


INC_BIT, DEC_BIT = 1, 2
_SINGLE = (None, Direction.INC, Direction.DEC, None)


def step_bits(steps) -> int:
    """The directions a sequence of distinct ranks is monotone in, from
    the set of its neighbour comparisons (a < b): ``True`` for a rise,
    ``False`` for a fall.  INC_BIT if none falls, DEC_BIT if none rises;
    both for a singleton or the empty sequence, 0 for a sequence that is
    not monotone."""
    return (False not in steps) * INC_BIT | (True not in steps) * DEC_BIT


def single_direction(bits: int) -> Optional[Direction]:
    """The direction of a bit set that holds exactly one, else None."""
    return _SINGLE[bits]
