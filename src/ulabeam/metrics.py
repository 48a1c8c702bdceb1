"""Intensity statistics under positioning uncertainty.

Point amplitude at the user, the amplitudes over a positioning error box
and their mean, and empirical CDFs of amplitudes pooled across obstacle
scenarios. The box is sampled on ``field.grid_nodes``, the lattice of
``field_grid``, so the metrics are reproducible; samples falling inside
an obstacle are excluded.
``scenario_amplitudes`` takes the array and a list of (excitation,
obstacle) entries of one power budget, and evaluates the user and the box
of every entry in one call of ``field.field_points_per_entry``.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .array_geometry import CircleObstacle, ParameterError, Point2, RectObstacle, UlaConfig
from .field import Excitation, field_at, field_points_per_entry, grid_nodes, write_columns

__all__ = [
    "ErrorBox",
    "amplitude_at_user",
    "mean_amplitude",
    "scenario_amplitudes",
    "empirical_cdf",
    "write_cdf_csv",
]


@dataclass(frozen=True)
class ErrorBox:
    """Axis-aligned box of candidate user positions, sampled on a grid."""

    center: Point2
    half_width_x: float = 0.1
    half_width_y: float = 0.1
    nx: int = 21
    ny: int = 21

    def __post_init__(self) -> None:
        for name in ("half_width_x", "half_width_y"):
            if not getattr(self, name) > 0:
                raise ParameterError("half-widths must be positive", name)
        for name in ("nx", "ny"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ParameterError("samples per axis must be an integer", name)
            if getattr(self, name) < 2:
                raise ParameterError("at least 2 samples per axis", name)

    def sample_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (x, y) coordinates of the nx-by-ny sample grid, ``field.grid_nodes``'s."""
        c, hx, hy = self.center, self.half_width_x, self.half_width_y
        return grid_nodes((c.x - hx, c.x + hx), (c.y - hy, c.y + hy), self.nx, self.ny)[2:]


def amplitude_at_user(
    cfg: UlaConfig, exc: Excitation, user: Point2, obstacle: RectObstacle | CircleObstacle | None = None
) -> float:
    """|E| at the user position."""
    return abs(field_at(cfg, exc, user, obstacle))


def scenario_amplitudes(
    cfg: UlaConfig, entries: Sequence[tuple[Excitation, RectObstacle | CircleObstacle | None]], box: ErrorBox
) -> tuple[list[float], list[np.ndarray]]:
    """|E| at the box center and at the box samples, for every entry, from one kernel call.

    The (excitation, obstacle) entries share the array cfg and must carry
    one power budget, so pooled amplitude statistics compare beams rather
    than power levels. Each entry's box amplitudes leave out the samples
    inside its obstacle; the center's amplitude is NaN under an obstacle
    that contains it.
    """
    if not entries:
        raise ValueError("scenario set must be non-empty")
    budgets = [float(np.sum(exc.magnitudes**2)) for exc, _ in entries]
    if any(abs(b - budgets[0]) > 1e-9 * max(1.0, abs(budgets[0])) for b in budgets[1:]):
        raise ValueError("power budgets differ across scenarios")
    px, py = box.sample_points()
    values = field_points_per_entry(cfg, entries, np.append(px, box.center.x), np.append(py, box.center.y))
    amps = np.hypot(values.real, values.imag)
    return amps[:, -1].tolist(), [row[np.isfinite(row)] for row in amps[:, :-1]]


def mean_amplitude(amps: np.ndarray) -> float:
    """Mean of one box's amplitudes from scenario_amplitudes; raises if it has none."""
    if amps.size == 0:
        raise ValueError("every box sample lies inside the obstacle")
    return float(amps.mean())


def empirical_cdf(values, levels: int) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF sampled at uniform amplitude levels.

    The level grid spans [0, max(values)] with `levels` points; each pair
    is (amplitude, fraction of values <= amplitude).
    """
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    if not isinstance(levels, numbers.Integral):
        raise ValueError("levels must be an integer")
    if levels < 2:
        raise ValueError("levels must be >= 2")
    q = np.linspace(0.0, float(vals[-1]), levels)
    probs = np.searchsorted(vals, q, side="right") / vals.size
    return [(float(a), float(p)) for a, p in zip(q, probs)]


def write_cdf_csv(pairs: list[tuple[float, float]], path: str) -> None:
    write_columns(path, "amplitude,probability", zip(*pairs))
