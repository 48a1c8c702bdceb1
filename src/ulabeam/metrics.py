"""Intensity statistics under positioning uncertainty.

Point amplitude at the user, area-averaged amplitude over a positioning
error box, and empirical CDFs of amplitude pooled across obstacle
scenarios. The box is sampled on a deterministic uniform grid, so the
metrics are reproducible; samples falling inside an obstacle are excluded
from averages and pools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_geometry import Point2, UlaConfig
from .field import Excitation, OcclusionModel, field_at, field_points

__all__ = [
    "ErrorBox",
    "ScenarioSet",
    "amplitude_at_user",
    "area_average",
    "box_amplitudes",
    "mean_amplitude",
    "pooled_box_amplitudes",
    "scenario_averages",
    "empirical_cdf",
    "write_cdf_csv",
]


@dataclass(frozen=True)
class ErrorBox:
    """Axis-aligned box of candidate user positions, sampled on a grid."""

    center: Point2
    half_width_x: float
    half_width_y: float
    nx: int = 21
    ny: int = 21

    def __post_init__(self) -> None:
        if not (self.half_width_x > 0 and self.half_width_y > 0):
            raise ValueError("half-widths must be positive")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("at least 2 samples per axis")

    def sample_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (x, y) coordinates of the nx-by-ny sample grid."""
        x = np.linspace(self.center.x - self.half_width_x, self.center.x + self.half_width_x, self.nx)
        y = np.linspace(self.center.y - self.half_width_y, self.center.y + self.half_width_y, self.ny)
        gx, gy = np.meshgrid(x, y, indexing="ij")
        return gx.ravel(), gy.ravel()


@dataclass(frozen=True)
class ScenarioSet:
    """Obstacle scenarios sharing one array: (excitation, occlusion) pairs.

    All excitations must carry the same power budget, so pooled amplitude
    statistics compare beams rather than power levels.
    """

    cfg: UlaConfig
    entries: tuple[tuple[Excitation, OcclusionModel], ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("scenario set must be non-empty")
        budgets = [float(np.sum(exc.magnitudes**2)) for exc, _ in entries]
        ref = budgets[0]
        for b in budgets[1:]:
            if abs(b - ref) > 1e-9 * max(1.0, abs(ref)):
                raise ValueError("power budgets differ across scenarios")


def amplitude_at_user(
    cfg: UlaConfig, exc: Excitation, user: Point2, occ: OcclusionModel | None = None
) -> float:
    """|E| at the user position."""
    return abs(field_at(cfg, exc, user, occ))


def box_amplitudes(
    cfg: UlaConfig, exc: Excitation, box: ErrorBox, occ: OcclusionModel | None = None
) -> np.ndarray:
    """|E| at every box sample outside the obstacle interior."""
    px, py = box.sample_points()
    amps = np.abs(field_points(cfg, exc, px, py, occ))
    return amps[np.isfinite(amps)]


def area_average(
    cfg: UlaConfig, exc: Excitation, box: ErrorBox, occ: OcclusionModel | None = None
) -> float:
    """Mean |E| over the box sample grid, obstacle-interior samples excluded."""
    return mean_amplitude(box_amplitudes(cfg, exc, box, occ))


def mean_amplitude(amps: np.ndarray) -> float:
    """Mean of one box's amplitudes from box_amplitudes; raises if it has none."""
    if amps.size == 0:
        raise ValueError("every box sample lies inside the obstacle")
    return float(amps.mean())


def pooled_box_amplitudes(scenarios: ScenarioSet, box: ErrorBox) -> np.ndarray:
    """Amplitudes pooled over all scenarios and box samples."""
    pools = [box_amplitudes(scenarios.cfg, exc, box, occ) for exc, occ in scenarios.entries]
    return np.concatenate(pools)


def scenario_averages(scenarios: ScenarioSet, box: ErrorBox) -> list[float]:
    return [area_average(scenarios.cfg, exc, box, occ) for exc, occ in scenarios.entries]


def empirical_cdf(values, levels: int) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF sampled at uniform amplitude levels.

    The level grid spans [0, max(values)] with `levels` points; each pair
    is (amplitude, fraction of values <= amplitude).
    """
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    if levels < 2:
        raise ValueError("levels must be >= 2")
    q = np.linspace(0.0, float(vals[-1]), levels)
    probs = np.searchsorted(vals, q, side="right") / vals.size
    return [(float(a), float(p)) for a, p in zip(q, probs)]


def write_cdf_csv(pairs: list[tuple[float, float]], path: str) -> None:
    lines = ["amplitude,probability"]
    lines += [f"{repr(float(a))},{repr(float(p))}" for a, p in pairs]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
