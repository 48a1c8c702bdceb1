"""Beam synthesis and analysis for uniform linear arrays.

Closed-form Bessel-beam phases with steering/propagation/sampling limits
and self-healing onset analysis, a curving-beam trajectory optimizer for
obstacle avoidance, a scalar field simulator with hard-shadow occlusion,
intensity metrics, and a CLI front end.
"""

from __future__ import annotations

from . import array_geometry, bessel, curving, field, metrics
from .array_geometry import *  # noqa: F403
from .bessel import *  # noqa: F403
from .curving import *  # noqa: F403
from .field import *  # noqa: F403
from .metrics import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *array_geometry.__all__,
    *bessel.__all__,
    *curving.__all__,
    *field.__all__,
    *metrics.__all__,
    "__version__",
]
