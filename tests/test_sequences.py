"""Monotone sequences and the bundled/rainbow classification of pairs."""

import random

from boxslash import Direction, RelatedKind
from boxslash.sequences import DEC_BIT, INC_BIT, direction_bits, related_pair, single_direction
from helpers_naive import naive_is_related


def related_ranks(ranks_a, ranks_b, colors):
    """related_pair of two sequences given by their ranks alone."""
    return related_pair(direction_bits(ranks_a), direction_bits(ranks_b), ranks_a, ranks_b, colors)


def test_direction_set_and_is_monotone():
    assert direction_bits([2, 5, 9]) == INC_BIT
    assert direction_bits([9, 5, 2]) == DEC_BIT
    assert direction_bits([2, 9, 5]) == direction_bits([5, 2, 9]) == 0
    assert direction_bits([4]) == INC_BIT | DEC_BIT
    assert direction_bits([]) == INC_BIT | DEC_BIT
    assert [single_direction(b) for b in range(4)] == [None, Direction.INC, Direction.DEC, None]
    assert Direction.INC.opposite is Direction.DEC


def test_is_related_classification():
    assert related_ranks([2, 4], [6, 8], [0, 0]) == (RelatedKind.BUNDLED, 0)
    assert related_ranks([2, 4], [8, 6], [1, 1]) == (RelatedKind.RAINBOW, 1)
    # Singletons satisfy both readings; bundled wins.
    assert related_ranks([3], [7], [0]) == (RelatedKind.BUNDLED, 0)


def test_is_related_rejections():
    # Not order consistent: the pairing changes sides.
    assert related_ranks([2, 9], [5, 7], [0, 0]) is None
    # Two colours.
    assert related_ranks([2, 4], [6, 8], [0, 1]) is None
    # A missing pairing edge.
    assert related_ranks([2, 4], [6, 8], [0, None]) is None
    # A side that is not monotone.
    assert related_ranks([2, 9, 5], [3, 10, 6], [0, 0, 0]) is None


def test_related_ranks_matches_the_naive_oracle():
    rng = random.Random(83)
    seen = set()
    for _ in range(2000):
        length = rng.randint(1, 4)
        rank = dict(enumerate(rng.sample(range(100), 2 * length)))
        # Half the pairs put a below b, and then sort each side one way.
        vertices = sorted(rank, key=rank.get) if rng.random() < 0.5 else list(rank)
        a, b = vertices[:length], vertices[length:]
        for seq in (a, b):
            if rng.random() < 0.7:
                seq.sort(key=rank.get, reverse=rng.random() < 0.5)
        colour = {}
        for x, y in zip(a, b):
            roll = rng.random()
            if roll < 0.9:
                colour[frozenset((x, y))] = 0 if roll < 0.8 else 1
        got = related_ranks(
            [rank[x] for x in a], [rank[y] for y in b], [colour.get(frozenset(e)) for e in zip(a, b)]
        )
        want = naive_is_related(a, b, rank, colour)
        assert (got and (got[0].value, got[1])) == want
        seen.add(want and want[0])
    assert seen == {None, "bundled", "rainbow"}
