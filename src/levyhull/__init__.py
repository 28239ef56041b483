"""levyhull: simulate convex hulls of stable and Brownian paths and verify
their expected geometric functionals against closed-form values.

The public API is the union of the modules' own ``__all__`` lists."""

__version__ = "0.1.0"

import os

# Trials run in parallel on levyhull's own process team, so an OpenBLAS
# worker thread per extra CPU only spins. This must precede the first
# numpy import; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import (
    closed_form,
    errors,
    hullgeom,
    limits,
    lp_volumes,
    mc_engine,
    results,
    rng_stable,
)
from .closed_form import *  # noqa: F403
from .errors import *  # noqa: F403
from .hullgeom import *  # noqa: F403
from .limits import *  # noqa: F403
from .lp_volumes import *  # noqa: F403
from .mc_engine import *  # noqa: F403
from .results import *  # noqa: F403
from .rng_stable import *  # noqa: F403

_MODULES = (closed_form, errors, hullgeom, limits, lp_volumes, mc_engine, results, rng_stable)
__all__ = [name for module in _MODULES for name in module.__all__]
