"""Monotone vertex sequences and their directions.

A sequence is given by the distinct ranks of its vertices in a linear
order.  Its directions are read off its neighbours, once, as bits:
`step_bits`, on the set of neighbour comparisons that `direction_bits`
makes, is the one definition of "monotone" that the passes' direction
tables and related pairs use.  The related pairs themselves
are decided in `passes._related_families`, which states their
definition.  The chains of related pairs that the paper builds on
top of them need inputs far beyond the package's size limit; the size
table in the `hexgrid` docstring gives the figures.

A single-element sequence is monotone in both directions at once;
direction_bits reports that as INC_BIT | DEC_BIT.
"""

from __future__ import annotations

from enum import Enum
from operator import lt
from typing import Optional, Sequence


class Direction(Enum):
    INC = "inc"
    DEC = "dec"

    @property
    def opposite(self) -> "Direction":
        return Direction.DEC if self is Direction.INC else Direction.INC


INC_BIT, DEC_BIT = 1, 2
_SINGLE = (None, Direction.INC, Direction.DEC, None)


def direction_bits(ranks: Sequence) -> int:
    """Directions a sequence of distinct ranks is monotone in, from its
    neighbours: INC_BIT if none falls, DEC_BIT if none rises; both for a
    singleton, 0 for a sequence that is not monotone."""
    return step_bits(set(map(lt, ranks, ranks[1:])))


def step_bits(steps) -> int:
    """direction_bits of a sequence from the set of its neighbour
    comparisons (a < b): ``True`` for a rise, ``False`` for a fall."""
    return (False not in steps) * INC_BIT | (True not in steps) * DEC_BIT


def single_direction(bits: int) -> Optional[Direction]:
    """The direction of a bit set that holds exactly one, else None."""
    return _SINGLE[bits]
