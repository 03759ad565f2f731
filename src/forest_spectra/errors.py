"""Shared exception types."""


class InsufficientVertices(ValueError):
    """The graph is too small to carry the requested anchor edges."""


class WalkTooLarge(ValueError):
    """A frontier walk's estimated work passes MAX_FRONTIER_WORK; raised
    before the walk takes its first step."""


class StructureViolation(ValueError):
    """A matrix failed the entry-uniformity pattern it was expected to have.

    Raised when entries within one edge-pair class disagree; this signals
    either a bug upstream or a matrix outside the supported family.
    """


class VerificationFailure(RuntimeError):
    """An exact check that is guaranteed in the valid range did not hold."""
