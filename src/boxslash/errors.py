"""Exception types, and the rules for the numbers the package takes: ``integer`` and ``real``."""

from __future__ import annotations

import math
import numbers
import operator


def integer(value, name, low: int | None = None) -> int:
    """``value`` as a plain int, else a ValueError: "<name> must be an
    integer, got <value!r>", or "<name> must be at least <low>, got <value>".

    What ``operator.index`` takes is an integer (an int, a numpy integer,
    an object with ``__index__``); a bool, a float or a string is not.
    ``name`` may be a function that returns it, called only to refuse:
    a name per edge, made eagerly, costs more than the check.
    """
    try:
        if isinstance(value, bool):  # an int, but True is no count
            raise TypeError
        value = operator.index(value)
        if low is None or value >= low:
            return value
        rule = f"at least {low}, got {value}"
    except TypeError:
        rule = f"an integer, got {value!r}"
    raise ValueError(f"{name() if callable(name) else name} must be {rule}")


def real(value, name: str):
    """``value`` if it is a finite real number at least 0 and, as for
    ``integer``, no bool; else a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number at least 0, got {value!r}")
    return value


class BoxslashError(Exception):
    """Base class for all package specific errors."""


class SizeLimitError(BoxslashError, ValueError):
    """An instance exceeds a hard size limit (vertex caps, grid minimums)."""


class ShapeError(BoxslashError, ValueError):
    """An input has the wrong shape: a subtree restriction with an empty
    child selection or one that would break the uniform level degrees,
    or a hex colouring (table, matrix or document) that is ragged,
    mis-sized, lacks its matrix or holds a colour other than 0 or 1."""


class InconsistencyError(BoxslashError, RuntimeError):
    """An internal consistency check failed where theory says it cannot.

    Raised when a verification that is guaranteed to pass on legal input
    fails anyway, pointing at a bug rather than bad data.
    """


class PassStarvation(BoxslashError, RuntimeError):
    """A thinning pass could not keep the requested number of children.

    The colour and order passes give a tree level and child counts.  The
    lex pass gives (level, position) and, as available and wanted, the
    shape of that rank array and of the lex-monotone subarray it lacks.
    At level 1 the array is a sequence, and the message adds the length
    (t-1)^2+1 from which Erdos-Szekeres guarantees a monotone run of t;
    higher levels state no bound.
    """

    def __init__(self, stage: str, level, available, wanted):
        self.stage = stage
        self.level = level
        self.available = available
        self.wanted = wanted
        if stage == "lex":
            depth, pos = level
            shape = "x".join(map(str, available))
            sub = "x".join(map(str, wanted))
            text = (
                f"lex: level {depth}, position {pos}: the rank array has shape "
                f"{shape} and no lex-monotone subarray of shape {sub}"
            )
            if depth == 1:
                (t,) = wanted
                text += (f"; Erdos-Szekeres guarantees a monotone run of {t} "
                         f"from (t-1)^2+1 = {(t - 1) ** 2 + 1} entries")
        else:
            text = f"{stage}: level {level} can keep {available} children, target is {wanted}"
        super().__init__(text)
