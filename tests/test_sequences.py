"""The directions of monotone sequences."""

from boxslash import Direction
from boxslash.sequences import DEC_BIT, INC_BIT, direction_bits, single_direction


def test_direction_set_and_is_monotone():
    assert direction_bits([2, 5, 9]) == INC_BIT
    assert direction_bits([9, 5, 2]) == DEC_BIT
    assert direction_bits([2, 9, 5]) == direction_bits([5, 2, 9]) == 0
    assert direction_bits([4]) == INC_BIT | DEC_BIT
    assert direction_bits([]) == INC_BIT | DEC_BIT
    assert [single_direction(b) for b in range(4)] == [None, Direction.INC, Direction.DEC, None]
    assert Direction.INC.opposite is Direction.DEC

