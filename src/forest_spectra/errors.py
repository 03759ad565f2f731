"""Shared exception types."""


class InsufficientVertices(ValueError):
    """The graph is too small to carry the requested anchor edges."""


class TooLarge(ValueError):
    """A frontier walk's or the forest-count formula's estimated work
    passes MAX_FRONTIER_WORK; raised before its first step.  The message
    names the walk or the formula, not the command or graph it is for."""


class StructureViolation(ValueError):
    """A matrix failed the entry-uniformity pattern it was expected to have.

    Raised when entries within one edge-pair class disagree; this signals
    either a bug upstream or a matrix outside the supported family.
    """


class VerificationFailure(RuntimeError):
    """An exact check that is guaranteed in the valid range did not hold."""
