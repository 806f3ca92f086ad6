"""Exception types shared across the package."""

from __future__ import annotations


class BoxslashError(Exception):
    """Base class for all package specific errors."""


class SizeLimitError(BoxslashError, ValueError):
    """An instance exceeds a hard size limit (vertex caps, grid minimums)."""


class ShapeError(BoxslashError, ValueError):
    """A subtree restriction would break the uniform level degrees."""


class PreconditionError(BoxslashError, ValueError):
    """A checked hypothesis of an executable derivation does not hold."""


class InconsistencyError(BoxslashError, RuntimeError):
    """An internal consistency check failed where theory says it cannot.

    Raised when a verification that is guaranteed to pass on legal input
    fails anyway, pointing at a bug rather than bad data.
    """


class CrossingContradiction(BoxslashError, RuntimeError):
    """A same-colour crossing exists where the hypotheses forbid one.

    Carries the two offending edges so callers can inspect the witness.
    """

    def __init__(self, edge_a, edge_b, color=None, message=""):
        self.edge_a = edge_a
        self.edge_b = edge_b
        self.color = color
        detail = message or "same-colour crossing"
        super().__init__(f"{detail}: {edge_a} x {edge_b} (colour {color})")


class PassStarvation(BoxslashError, RuntimeError):
    """A thinning pass could not keep the requested number of children.

    The colour and order passes give a tree level and child counts.  The
    lex pass gives (level, position) and, as available and wanted, the
    shape of that rank array and of the lex-monotone subarray it lacks.
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
        else:
            text = f"{stage}: level {level} can keep {available} children, target is {wanted}"
        super().__init__(text)


class GoodPointsUnavailable(BoxslashError, RuntimeError):
    """Good critical points could not be extracted from a boundary."""

    def __init__(self, wanted: int, length: int, threshold: int):
        self.wanted = wanted
        self.length = length
        self.threshold = threshold
        super().__init__(
            f"could not extract {wanted} pairwise good critical points from a "
            f"boundary of length {length}; guaranteed only above length {threshold}"
        )
