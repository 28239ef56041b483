"""Exception taxonomy shared across the package, and the one rule for
each kind of numeric argument.

Counts (``_count``): a dimension, an index, a number of steps, trials or
points is a Python or numpy integer, never a bool, at least its floor
and at most its cap, if it has one. Nothing is rounded, so a closed form
is never evaluated at an index the caller did not ask for.

Reals (``_real``): a stability index, a scale, a radius, a moment order,
a horizon or a time step is a Python or numpy real, never a bool, finite,
and inside the interval on which its formula holds, such as (1, 2] for
alpha wherever gamma(1 - 1/alpha) enters. NaN and infinities are always
refused. Both rules raise the caller's error class with a message that
starts with the argument's name.
"""

import math
from numbers import Integral, Real

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


def _count(name: str, value, lo: int = 1, error: type = ParameterError, hi=math.inf) -> int:
    """``value`` as an ``int`` if it is an integer, not a bool, and in [lo,
    hi]; otherwise raise ``error`` naming the argument."""
    if type(value) is int and lo <= value <= hi:  # the common case, without the ABC check
        return value
    if not isinstance(value, Integral) or isinstance(value, bool) or not lo <= value <= hi:
        where = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise error(f"{name} must be an integer {where}, got {value!r}")
    return int(value)


def _real(
    name: str, value, gt=None, ge=None, lt=None, le=None, error: type = ParameterError
) -> float:
    """``value`` as a ``float`` if it is a real number, not a bool, finite,
    and > gt, >= ge, < lt and <= le for each bound given; otherwise raise
    ``error`` naming the argument and the interval."""
    x = math.nan
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not (
        math.isfinite(x)
        and (gt is None or x > gt)
        and (ge is None or x >= ge)
        and (lt is None or x < lt)
        and (le is None or x <= le)
    ):
        lo = f"({gt}" if gt is not None else f"[{ge}" if ge is not None else None
        hi = f"{lt})" if lt is not None else f"{le}]" if le is not None else None
        if lo and hi:
            where = f" in {lo}, {hi}"
        else:  # one-sided or unbounded
            bounds = ((">", gt), (">=", ge), ("<", lt), ("<=", le))
            where = "".join(f" {op} {b}" for op, b in bounds if b is not None)
        raise error(f"{name} must be a finite number{where}, got {value!r}")
    return x
