"""Monotone vertex sequences and the related pairs the passes check.

Sequences are plain tuples of vertices; every positional notion is
taken relative to an explicit LinearOrder.  A pair of equal-length
sequences is "related" when it is order consistent (pointwise on the
same side), pointwise adjacent in a single colour, and both sequences
are monotone.  Same direction makes the pair bundled, opposite
directions make it rainbow-like.  `related_ranks` classifies a pair
from its ranks and pairing colours; `is_related` reads those off the
order and colouring, and `passes.check_related_sequence_families` off
its integer rank and colour lists.  The chains of related pairs that
the paper builds on top of these need inputs far beyond the package's
size limit; the size table in the `hexgrid` docstring gives the figures.

A single-element sequence is monotone in both directions at once;
direction_set reports that as {INC, DEC} and is_monotone, which must
pick one, returns None for it.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from .layout import EdgeColoring, LinearOrder


class Direction(Enum):
    INC = "inc"
    DEC = "dec"

    @property
    def opposite(self) -> "Direction":
        return Direction.DEC if self is Direction.INC else Direction.INC


class RelatedKind(Enum):
    BUNDLED = "bundled"
    RAINBOW = "rainbow"


def _ranks(seq: Sequence, order: LinearOrder) -> list[int]:
    if not seq:
        raise ValueError("empty sequence")
    ranks = [order.rank(v) for v in seq]
    if len(set(ranks)) != len(ranks):
        raise ValueError("sequence elements must be distinct")
    return ranks


def rank_directions(ranks: list) -> frozenset:
    """direction_set of a sequence given by its distinct ranks."""
    rules = ((Direction.INC, False), (Direction.DEC, True))
    return frozenset(d for d, rule in rules if ranks == sorted(ranks, reverse=rule))


def direction_set(seq: Sequence, order: LinearOrder) -> frozenset:
    """Directions the sequence is monotone in; both for singletons."""
    return rank_directions(_ranks(seq, order))


def is_monotone(seq: Sequence, order: LinearOrder) -> Optional[Direction]:
    """INC or DEC for a monotone sequence of length >= 2, else None."""
    dirs = direction_set(seq, order)
    return next(iter(dirs)) if len(dirs) == 1 else None


def _check_pair_shape(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(set(a) | set(b)) != len(a) + len(b):
        raise ValueError("sequences must not share elements")


def related_ranks(ranks_a: list, ranks_b: list, colors: list) -> Optional[tuple[RelatedKind, int]]:
    """is_related on integers: the two sequences' ranks (distinct, equal
    length) and the colour of each pairing edge, None where there is none."""
    dirs_a, dirs_b, used = rank_directions(ranks_a), rank_directions(ranks_b), set(colors)
    if not dirs_a or not dirs_b or len(used) != 1 or None in used:
        return None
    if len({x < y for x, y in zip(ranks_a, ranks_b)}) != 1:
        return None
    # Two monotone sequences share a direction or run opposite ways.
    return (RelatedKind.BUNDLED if dirs_a & dirs_b else RelatedKind.RAINBOW, *used)


def is_related(
    a: Sequence, b: Sequence, order: LinearOrder, coloring: EdgeColoring, graph=None
) -> Optional[tuple[RelatedKind, int]]:
    """Classify a pair as bundled or rainbow, with its pairing colour.

    Requires order consistency, pointwise adjacency in one colour, and
    monotonicity of both sequences.  When both assignments are possible
    (singletons) the bundled reading wins.  A pairing that is not an
    edge of ``graph``, when one is given, has no colour.
    """
    _check_pair_shape(a, b)
    ranks_a, ranks_b = _ranks(a, order), _ranks(b, order)
    colors = [coloring.get(x, y) if graph is None or graph.has_edge(x, y) else None
              for x, y in zip(a, b)]
    return related_ranks(ranks_a, ranks_b, colors)
