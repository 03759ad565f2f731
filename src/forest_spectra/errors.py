"""Shared exception types."""

__all__ = ["InsufficientVertices", "StructureViolation", "VerificationFailure"]


class InsufficientVertices(ValueError):
    """The graph is too small to carry the requested anchor edges."""


class TooLarge(ValueError):
    """An input too large to answer, refused before the work starts: an
    up-front estimate passed MAX_FRONTIER_WORK (``forests._refuse_past``
    raises these) or a count has more digits than Python writes.  The
    message names what was estimated, not the command or graph it is for;
    ``cli.run`` writes those in front of it."""


class StructureViolation(ValueError):
    """A matrix failed the entry-uniformity pattern it was expected to have.

    Raised when entries within one edge-pair class disagree; this signals
    either a bug upstream or a matrix outside the supported family.
    """


class VerificationFailure(RuntimeError):
    """An exact check that is guaranteed in the valid range did not hold."""
