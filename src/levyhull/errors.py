"""Exception taxonomy shared across the package, and the one rule for
count arguments (``_count``): a dimension, an index, a number of steps,
trials or points is a Python or numpy integer, never a bool, and at least
its floor. Nothing is rounded, so a closed form is never evaluated at an
index the caller did not ask for.
"""

from numbers import Integral

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


def _count(name: str, value, lo: int = 1, error: type = ParameterError) -> int:
    """``value`` as an ``int`` if it is an integer, not a bool, and >= lo;
    otherwise raise ``error`` naming the argument."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < lo:
        raise error(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)
