"""Exception taxonomy shared across the package."""

__all__ = [
    "ConfigError",
    "DimensionError",
    "DomainError",
    "LevyHullError",
    "ParameterError",
    "ResourceError",
]


class LevyHullError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(LevyHullError, ValueError):
    """An argument violates an operation's precondition."""


class DomainError(LevyHullError, ValueError):
    """A value lies outside the mathematical domain of a formula."""


class DimensionError(LevyHullError, ValueError):
    """Geometric input has the wrong or a degenerate dimension."""


class ResourceError(LevyHullError, ValueError):
    """Requested work exceeds a hard size cap."""


class ConfigError(LevyHullError, ValueError):
    """A run configuration is malformed or inconsistent."""
