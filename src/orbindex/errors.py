"""Error taxonomy shared across the package."""


class OrbindexError(Exception):
    """Base class for all package errors."""


class StructuralError(OrbindexError):
    """Malformed algebraic input: bad group table, mismatched groups, bad model."""


class DomainError(OrbindexError):
    """Input outside an operation's domain (t <= 0, empty fixed set, ...)."""


class ResolutionError(OrbindexError):
    """Heat quadrature cannot reach the requested tolerance: no truncation
    radius bounds the class-sum tail, a heat time is below the grid, or two
    grid sums differ by more than the tolerance."""
