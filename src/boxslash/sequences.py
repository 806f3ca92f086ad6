"""Monotone vertex sequences and the related pairs the passes check.

Sequences are plain tuples of vertices; every positional notion is
taken relative to an explicit LinearOrder.  A pair of equal-length
sequences is "related" when it is order consistent (pointwise on the
same side), pointwise adjacent in a single colour, and both sequences
are monotone.  Same direction makes the pair bundled, opposite
directions make it rainbow-like.  `passes.check_related_sequence_families`
classifies pairs with `is_related`.  The chains of related pairs that
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


def direction_set(seq: Sequence, order: LinearOrder) -> frozenset:
    """Directions the sequence is monotone in; both for singletons."""
    ranks = _ranks(seq, order)
    if len(ranks) == 1:
        return frozenset((Direction.INC, Direction.DEC))
    if all(a < b for a, b in zip(ranks, ranks[1:])):
        return frozenset((Direction.INC,))
    if all(a > b for a, b in zip(ranks, ranks[1:])):
        return frozenset((Direction.DEC,))
    return frozenset()


def is_monotone(seq: Sequence, order: LinearOrder) -> Optional[Direction]:
    """INC or DEC for a monotone sequence of length >= 2, else None."""
    dirs = direction_set(seq, order)
    if len(dirs) == 1:
        (d,) = dirs
        return d
    return None


def _check_pair_shape(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(set(a) | set(b)) != len(a) + len(b):
        raise ValueError("sequences must not share elements")


def _order_consistent(a, b, order: LinearOrder) -> bool:
    sides = {order.before(x, y) for x, y in zip(a, b)}
    return len(sides) == 1


def _uniform_color(a, b, coloring: EdgeColoring, graph=None) -> Optional[int]:
    colors = set()
    for x, y in zip(a, b):
        if graph is not None and not graph.has_edge(x, y):
            return None
        c = coloring.get(x, y)
        if c is None:
            return None
        colors.add(c)
    return colors.pop() if len(colors) == 1 else None


def is_related(
    a: Sequence, b: Sequence, order: LinearOrder, coloring: EdgeColoring, graph=None
) -> Optional[tuple[RelatedKind, int]]:
    """Classify a pair as bundled or rainbow, with its pairing colour.

    Requires order consistency, pointwise adjacency in one colour, and
    monotonicity of both sequences.  When both assignments are possible
    (singletons) the bundled reading wins.
    """
    _check_pair_shape(a, b)
    dirs_a = direction_set(a, order)
    dirs_b = direction_set(b, order)
    if not dirs_a or not dirs_b:
        return None
    if not _order_consistent(a, b, order):
        return None
    color = _uniform_color(a, b, coloring, graph)
    if color is None:
        return None
    if dirs_a & dirs_b:
        return (RelatedKind.BUNDLED, color)
    if any(d.opposite in dirs_b for d in dirs_a):
        return (RelatedKind.RAINBOW, color)
    return None
