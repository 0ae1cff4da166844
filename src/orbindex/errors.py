"""Error taxonomy shared across the package."""


class OrbindexError(Exception):
    """Base class for all package errors."""


class StructuralError(OrbindexError):
    """Malformed algebraic input: bad group table, mismatched groups, bad model."""


class DomainError(OrbindexError):
    """Input outside an operation's domain (t <= 0, empty fixed set, ...)."""


class ResolutionError(OrbindexError):
    """Quadrature cannot reach the requested tolerance at the given resolution."""

    def __init__(self, message: str, suggested_resolution: int):
        super().__init__(message)
        self.suggested_resolution = suggested_resolution
