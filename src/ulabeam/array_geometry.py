"""Array layout and obstacle geometry shared by the other modules.

Coordinates: the array lies on the x-axis of the xy-plane, centered on the
origin, radiating toward +y. Lengths are meters, frequencies Hz, angles
radians (the CLI converts from degrees).

Each obstacle class answers its own geometry (``contains``, ``shadow``,
``support``); an obstacle of None is free space, left to the callers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "ParameterError",
    "Point2",
    "UlaConfig",
    "RectObstacle",
    "CircleObstacle",
    "circle_bounding_square",
]

SPEED_OF_LIGHT = 299792458.0
"""Speed of light in vacuum [m/s], CODATA exact value."""

# Obstacle coordinates are bounded so that their shadow geometry (products
# and squares of lengths) stays finite.
_FAR = 1e100


class ParameterError(ValueError):
    """The package's parameter checks raise it; ``params`` names the parameters checked (``center.y``, ``user.x``)."""

    def __init__(self, message: str, *params: str) -> None:
        super().__init__(message)
        self.params = params


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
        if not isinstance(self.n_elements, numbers.Integral) or self.n_elements < 2:
            raise ParameterError("n_elements must be an integer >= 2", "n_elements")
        if not (self.carrier_freq > 0 and math.isfinite(self.carrier_freq)):
            raise ParameterError("carrier_freq must be positive and finite", "carrier_freq")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ParameterError("spacing must be positive and finite", "spacing")

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
    from the array; each is at most 1e100 m in magnitude.
    """

    x_r1: float
    x_r2: float
    y_n: float
    y_f: float

    def __post_init__(self) -> None:
        if not self.x_r1 > self.x_r2:
            raise ParameterError("require x_r1 > x_r2", "x_r1", "x_r2")
        if not 0.0 < self.y_n < self.y_f:
            raise ParameterError("require 0 < y_n < y_f", "y_n", "y_f")
        far = [edge for edge in ("x_r1", "x_r2", "y_n", "y_f") if not abs(getattr(self, edge)) <= _FAR]
        if far:
            raise ParameterError("obstacle edges must be at most 1e100 m in magnitude", *far)

    def contains(self, px, py):
        """True where a point lies inside (or on the boundary of) the rectangle; scalars or arrays."""
        return (px >= self.x_r2) & (px <= self.x_r1) & (py >= self.y_n) & (py <= self.y_f)

    def shadow(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed x-interval [a, b] on y = 0 hidden from each point (px, py).

        The element at (x, 0) is blocked iff its sight segment meets the
        rectangle, i.e. iff x lies in the central projection, from the
        point onto y = 0, of the rectangle clipped to y < py. The rectangle
        is convex, so that projection is one interval; a side whose
        rectangle points reach the height py projects to -inf or +inf. No
        shadow gives a = +inf, b = -inf. Points inside get an arbitrary
        interval.
        """
        # A corner (qx, qy) with qy < py projects to px + (qx - px) * py / (py - qy).
        reaches = py > self.y_n
        above = py > self.y_f
        s_n = np.divide(py, py - self.y_n, out=np.ones_like(py), where=reaches)
        s_f = np.divide(py, py - self.y_f, out=np.ones_like(py), where=above)
        left_n = px + (self.x_r2 - px) * s_n
        right_n = px + (self.x_r1 - px) * s_n
        a = np.where(
            above,
            np.minimum(left_n, px + (self.x_r2 - px) * s_f),
            np.where(px < self.x_r2, left_n, -np.inf),
        )
        b = np.where(
            above,
            np.maximum(right_n, px + (self.x_r1 - px) * s_f),
            np.where(px > self.x_r1, right_n, np.inf),
        )
        return np.where(reaches, a, np.inf), np.where(reaches, b, -np.inf)

    def support(self, ux: float, uy: float) -> float:
        """Largest ux x + uy y over the rectangle, taken at a corner."""
        return max(ux * self.x_r1, ux * self.x_r2) + max(uy * self.y_n, uy * self.y_f)


@dataclass(frozen=True)
class CircleObstacle:
    """Circular obstacle cross-section, strictly in front of the array.

    The center's coordinates and the radius are at most 1e100 m in magnitude.
    """

    center: Point2
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ParameterError("radius must be positive", "radius")
        if not self.center.y - self.radius > 0:
            raise ParameterError("circle must lie strictly in front of the array", "center.y", "radius")
        values = {"center.x": self.center.x, "center.y": self.center.y, "radius": self.radius}
        far = [name for name, v in values.items() if not abs(v) <= _FAR]
        if far:
            raise ParameterError("circle center and radius must be at most 1e100 m in magnitude", *far)

    def contains(self, px, py):
        """True where a point lies inside (or on the boundary of) the circle; scalars or arrays."""
        dx = px - self.center.x
        dy = py - self.center.y
        return dx * dx + dy * dy <= self.radius**2

    def shadow(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed x-interval [a, b] on y = 0 hidden from each point, as RectObstacle.shadow."""
        # The tangent directions from the point, u_lo = L d - R perp(d) and
        # u_hi = L d + R perp(d), with d the offset to the center,
        # perp(d) = (-dy, dx) and L the tangent length, bound the hidden
        # cone clockwise and counter-clockwise. A tangent that points down
        # (uy < 0) meets y = 0 at px - py * ux / uy; one that does not
        # leaves that side of the run unbounded. A tangent barely below the
        # horizontal (subnormal uy) overflows the divide to +-inf, its limit.
        r = self.radius
        dx = self.center.x - px
        dy = self.center.y - py
        tangent = np.sqrt(np.maximum(dx * dx + dy * dy - r * r, 0.0))
        ux_lo, uy_lo = tangent * dx + r * dy, tangent * dy - r * dx
        ux_hi, uy_hi = tangent * dx - r * dy, tangent * dy + r * dx
        down_lo, down_hi = uy_lo < 0, uy_hi < 0
        with np.errstate(over="ignore"):
            a = px - py * np.divide(ux_lo, uy_lo, out=np.zeros_like(px), where=down_lo)
            b = px - py * np.divide(ux_hi, uy_hi, out=np.zeros_like(px), where=down_hi)
        a = np.where(down_lo, a, -np.inf)
        b = np.where(down_hi, b, np.inf)
        hidden = down_lo | down_hi
        return np.where(hidden, a, np.inf), np.where(hidden, b, -np.inf)

    def support(self, ux: float, uy: float) -> float:
        """Largest ux x + uy y over the circle, taken where (ux, uy) is its outward normal."""
        return ux * self.center.x + uy * self.center.y + self.radius * math.hypot(ux, uy)


def circle_bounding_square(obs: CircleObstacle) -> RectObstacle:
    """Axis-aligned bounding square of a circular obstacle."""
    return RectObstacle(
        x_r1=obs.center.x + obs.radius,
        x_r2=obs.center.x - obs.radius,
        y_n=obs.center.y - obs.radius,
        y_f=obs.center.y + obs.radius,
    )
