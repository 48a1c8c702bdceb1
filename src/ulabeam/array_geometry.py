"""Array layout and obstacle geometry shared by the other modules.

Coordinates: the array lies on the x-axis of the xy-plane, centered on the
origin, radiating toward +y. Lengths are meters, frequencies Hz, angles
radians (the CLI converts from degrees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "Point2",
    "UlaConfig",
    "RectObstacle",
    "CircleObstacle",
    "circle_bounding_square",
]

SPEED_OF_LIGHT = 299792458.0
"""Speed of light in vacuum [m/s], CODATA exact value."""


@dataclass(frozen=True)
class Point2:
    """A point in the xy-plane [m]."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("Point2 components must be finite")

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class UlaConfig:
    """Uniform linear array description.

    Parameters
    ----------
    n_elements : int
        Number of antenna elements, at least 2.
    spacing : float
        Inter-element spacing [m].
    carrier_freq : float
        Carrier frequency [Hz].
    """

    n_elements: int
    spacing: float
    carrier_freq: float

    def __post_init__(self) -> None:
        if int(self.n_elements) != self.n_elements or self.n_elements < 2:
            raise ValueError("n_elements must be an integer >= 2")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ValueError("spacing must be positive and finite")
        if not (self.carrier_freq > 0 and math.isfinite(self.carrier_freq)):
            raise ValueError("carrier_freq must be positive and finite")

    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength()

    def half_aperture(self) -> float:
        """Half the aperture, R = (N - 1) * spacing / 2."""
        return (self.n_elements - 1) * self.spacing / 2.0

    def element_xs(self) -> np.ndarray:
        """All element x-coordinates, ascending: element n = 1..N sits at (2n - N - 1) / 2 * spacing."""
        n = np.arange(1, self.n_elements + 1)
        return (-self.n_elements + 2 * n - 1) / 2.0 * self.spacing


@dataclass(frozen=True)
class RectObstacle:
    """Axis-aligned rectangular obstacle footprint in the xy-plane.

    x_r1/x_r2 are the right/left edges, y_n/y_f the near/far edges as seen
    from the array.
    """

    x_r1: float
    x_r2: float
    y_n: float
    y_f: float

    def __post_init__(self) -> None:
        if not self.x_r1 > self.x_r2:
            raise ValueError("require x_r1 > x_r2")
        if not 0.0 < self.y_n < self.y_f:
            raise ValueError("require 0 < y_n < y_f")


@dataclass(frozen=True)
class CircleObstacle:
    """Circular obstacle cross-section, strictly in front of the array."""

    center: Point2
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not self.center.y - self.radius > 0:
            raise ValueError("circle must lie strictly in front of the array")


def circle_bounding_square(obs: CircleObstacle) -> RectObstacle:
    """Axis-aligned bounding square of a circular obstacle."""
    return RectObstacle(
        x_r1=obs.center.x + obs.radius,
        x_r2=obs.center.x - obs.radius,
        y_n=obs.center.y - obs.radius,
        y_f=obs.center.y + obs.radius,
    )
