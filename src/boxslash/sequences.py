"""Monotone vertex sequences and the related pairs the passes check.

A sequence is given by the distinct ranks of its vertices in a linear
order.  A pair of equal-length sequences is "related" when it is order
consistent (pointwise on the same side), pointwise adjacent in a single
colour, and both sequences are monotone.  Same direction makes the pair
bundled, opposite directions make it rainbow-like.  `related_ranks`
classifies a pair from its ranks and pairing colours, and
`passes.check_related_sequence_families` reads those off its integer
rank and colour lists.  The chains of related pairs that the paper
builds on top of these need inputs far beyond the package's size limit;
the size table in the `hexgrid` docstring gives the figures.

A single-element sequence is monotone in both directions at once;
rank_directions reports that as {INC, DEC}.
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


class RelatedKind(Enum):
    BUNDLED = "bundled"
    RAINBOW = "rainbow"


def rank_directions(ranks: list) -> frozenset:
    """Directions a sequence of distinct ranks is monotone in; both for
    a singleton, none for a sequence that is not monotone."""
    rules = ((Direction.INC, False), (Direction.DEC, True))
    return frozenset(d for d, rule in rules if ranks == sorted(ranks, reverse=rule))


def related_ranks(ranks_a: list, ranks_b: list, colors: list) -> Optional[tuple[RelatedKind, int]]:
    """Classify a pair as bundled or rainbow, with its pairing colour.

    The two sequences are given by their ranks (distinct, equal length)
    and the colour of each pairing edge, None where there is none.  When
    both assignments are possible (singletons) the bundled reading wins.
    """
    dirs_a, dirs_b, used = rank_directions(ranks_a), rank_directions(ranks_b), set(colors)
    if not dirs_a or not dirs_b or len(used) != 1 or None in used:
        return None
    if len({x < y for x, y in zip(ranks_a, ranks_b)}) != 1:
        return None
    # Two monotone sequences share a direction or run opposite ways.
    return (RelatedKind.BUNDLED if dirs_a & dirs_b else RelatedKind.RAINBOW, *used)
