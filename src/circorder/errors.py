"""Shared exception types."""

from __future__ import annotations


class InvalidGroupError(ValueError):
    """A multiplication table (or group JSON file) violates the group axioms."""


class BoundExceeded(ValueError):
    """A resource bound (group order, search radius, matrix size) was exceeded."""


class CheckFailed(Exception):
    """An internal cross-check or witness check failed: the result is not
    trustworthy.  Raised explicitly, so it still fires under `python -O`."""


def require(condition: bool, message: str) -> None:
    """Raise CheckFailed(message) unless `condition` holds."""
    if not condition:
        raise CheckFailed(message)


class AxiomError(ValueError):
    """An ordering/cocycle axiom failed.

    `kind` names the failed axiom ("normalization", "inverse-pair", "cocycle",
    "vanishing", "invariance", "value-range", "trichotomy", "closure", ...)
    and `witness` is a minimal tuple of element indices exhibiting the failure.
    """

    def __init__(self, kind: str, witness: tuple, message: str = ""):
        self.kind = kind
        self.witness = witness
        text = f"{kind} failure at {witness}"
        if message:
            text += f": {message}"
        super().__init__(text)
