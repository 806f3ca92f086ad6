"""Monotone vertex sequences and the related pairs the passes check.

A sequence is given by the distinct ranks of its vertices in a linear
order.  Its directions are read off its neighbours, once, as bits:
`direction_bits` is the one definition of "monotone" that the passes'
direction tables and related pairs use.  A pair of equal-length
sequences is "related" when it is order consistent (pointwise on the
same side), pointwise adjacent in a single colour, and both sequences
are monotone.  Same direction makes the pair bundled, opposite
directions make it rainbow-like.  `related_pair` classifies a pair from
its directions, ranks and pairing colours, and
`passes.check_related_sequence_families` reads those off its integer
rank and colour lists, each sequence's directions once per position.
The chains of related pairs that the paper builds on top of these need
inputs far beyond the package's size limit; the size table in the
`hexgrid` docstring gives the figures.

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


class RelatedKind(Enum):
    BUNDLED = "bundled"
    RAINBOW = "rainbow"


INC_BIT, DEC_BIT = 1, 2
_SINGLE = (None, Direction.INC, Direction.DEC, None)


def direction_bits(ranks: Sequence) -> int:
    """Directions a sequence of distinct ranks is monotone in, from its
    neighbours: INC_BIT if none falls, DEC_BIT if none rises; both for a
    singleton, 0 for a sequence that is not monotone."""
    steps = set(map(lt, ranks, ranks[1:]))
    return (False not in steps) * INC_BIT | (True not in steps) * DEC_BIT


def single_direction(bits: int) -> Optional[Direction]:
    """The direction of a bit set that holds exactly one, else None."""
    return _SINGLE[bits]


def related_pair(bits_a: int, bits_b: int, ranks_a: Sequence, ranks_b: Sequence,
                 colors: Sequence) -> Optional[tuple[RelatedKind, int]]:
    """Classify a pair as bundled or rainbow, with its pairing colour.

    The two sequences are given by their direction bits, their ranks
    (distinct, equal length) and the colour of each pairing edge, None
    where there is none.  When both assignments are possible
    (singletons) the bundled reading wins.
    """
    used = set(colors)
    if not bits_a or not bits_b or len(used) != 1 or None in used:
        return None
    if len(set(map(lt, ranks_a, ranks_b))) != 1:
        return None
    # Two monotone sequences share a direction or run opposite ways.
    return (RelatedKind.BUNDLED if bits_a & bits_b else RelatedKind.RAINBOW, *used)

