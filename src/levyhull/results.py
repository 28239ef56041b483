"""Shared Monte Carlo result container."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import ClosedFormTarget
from .errors import ParameterError, _count

__all__ = ["EstimateResult"]


@dataclass(frozen=True)
class EstimateResult:
    """Mean/stderr summary of one estimated quantity.

    ``z_score`` is (mean - target.value) / stderr, present only when a
    target is attached and the spread is resolvable.
    """

    mean: float
    stderr: float
    trials: int
    target: ClosedFormTarget | None = None
    z_score: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "trials", _count("trials", self.trials))
        if not (self.stderr >= 0.0):
            raise ParameterError(f"stderr must be >= 0, got {self.stderr!r}")

    @classmethod
    def from_samples(cls, values, target=None) -> "EstimateResult":
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            raise ParameterError("cannot summarise zero samples")
        mean = float(arr.mean())
        stderr = (
            float(arr.std(ddof=1)) / math.sqrt(arr.size) if arr.size > 1 else 0.0
        )
        z = None
        if target is not None and stderr > 0.0:
            z = (mean - target.value) / stderr
        return cls(
            mean=mean,
            stderr=stderr,
            trials=int(arr.size),
            target=target,
            z_score=z,
        )
