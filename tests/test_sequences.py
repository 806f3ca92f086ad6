"""The directions of monotone sequences."""

from operator import lt

from boxslash import Direction
from boxslash.sequences import DEC_BIT, INC_BIT, single_direction, step_bits


def bits(ranks):
    """The direction bits of a sequence, from the set of its neighbour comparisons."""
    return step_bits(set(map(lt, ranks, ranks[1:])))


def test_direction_set_and_is_monotone():
    assert bits([2, 5, 9]) == INC_BIT
    assert bits([9, 5, 2]) == DEC_BIT
    assert bits([2, 9, 5]) == bits([5, 2, 9]) == 0
    assert bits([4]) == INC_BIT | DEC_BIT
    assert bits([]) == INC_BIT | DEC_BIT
    assert [single_direction(b) for b in range(4)] == [None, Direction.INC, Direction.DEC, None]
    assert Direction.INC.opposite is Direction.DEC
