"""Bessel-beam phase synthesis and closed-form limit analyses for a ULA.

The beam is parameterized by a steering angle theta_a (from the y-axis,
positive toward +x) and an axicon-like cone angle alpha. The synthesis
phases make each element's phase equal to k times its distance to the
piecewise-linear wavefront curve, so the element rays (perpendicular to the
wavefront) converge on the steering axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_geometry import CircleObstacle, ParameterError, Point2, RectObstacle, UlaConfig
from .field import Excitation

__all__ = [
    "BesselDesign",
    "BesselLimits",
    "SelfHealReport",
    "bessel_phases",
    "propagation_limits",
    "min_elements",
    "max_spacing",
    "self_heal",
]


@dataclass(frozen=True)
class BesselDesign:
    """Steering angle theta_a and cone angle alpha, both in radians."""

    theta_a: float
    alpha: float

    def __post_init__(self) -> None:
        if not abs(self.theta_a) < math.pi / 2:
            raise ParameterError("|theta_a| must be < pi/2", "theta_a")
        if not 0.0 < self.alpha < math.pi / 2:
            raise ParameterError("alpha must be in (0, pi/2)", "alpha")

    def steering_failure(self) -> str | None:
        """The bound of |theta_a| <= alpha < pi/2 - |theta_a| that fails, or None.

        Comparisons are exact, closed on the left and open on the right.
        """
        if self.alpha < abs(self.theta_a):
            return "alpha < |theta|"
        if self.alpha >= math.pi / 2 - abs(self.theta_a):
            return "alpha >= pi/2 - |theta|"
        return None

    def marginal(self) -> bool:
        """True on the degraded boundary alpha == |theta_a| (distance collapses)."""
        return self.alpha == abs(self.theta_a)


@dataclass(frozen=True)
class BesselLimits:
    d_max: float
    d_lim: float
    ref_point_pos: Point2
    ref_point_neg: Point2


@dataclass(frozen=True)
class SelfHealReport:
    """Self-healing onset distances and the elements that set them.

    A side is None when no element clears the obstacle on that side. When
    x_p_star < 0 (resp. x_m_star > 0) every element of that side's beam
    clears the obstacle, so the beam is never blocked; the corresponding
    flag is set.
    """

    d_h_pos: float | None
    d_h_neg: float | None
    x_p_star: float | None
    x_m_star: float | None
    pos_unblocked: bool
    neg_unblocked: bool


def _require_steerable(d: BesselDesign) -> None:
    reason = d.steering_failure()
    if reason is not None:
        raise ParameterError(f"design not steerable: {reason}", "theta_a", "alpha")


def bessel_phases(cfg: UlaConfig, d: BesselDesign) -> Excitation:
    """Unit-magnitude excitation with the Bessel synthesis phases.

    phi_n = k |sin(alpha - theta_a)| x_n for x_n >= 0 and
    -k |sin(alpha + theta_a)| x_n otherwise; phi_n / k equals the distance
    from element n to the wavefront curve.
    """
    _require_steerable(d)
    k = cfg.wavenumber()
    # Phases that overflow are left non-finite for Excitation to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        xs = cfg.element_xs()
        phases = np.where(
            xs >= 0,
            k * abs(math.sin(d.alpha - d.theta_a)) * xs,
            -k * abs(math.sin(d.alpha + d.theta_a)) * xs,
        )
    return Excitation(np.ones_like(xs), phases)


def propagation_limits(cfg: UlaConfig, d: BesselDesign) -> BesselLimits:
    """Propagation-distance limits and the aperture-edge reference points.

    d_max = R cos(alpha + |theta_a|) / sin(alpha) is where the shorter-lived
    side of the beam expires; d_lim = R cos(alpha - |theta_a|) / sin(alpha)
    where the other side does. Both reference points lie on the steering
    axis x = y tan(theta_a). Raises if alpha is so small that a reference
    height or a limit overflows.
    """
    _require_steerable(d)
    r_half = cfg.half_aperture()
    t_th = math.tan(d.theta_a)
    y_pos = r_half / (t_th + math.tan(d.alpha - d.theta_a))
    y_neg = -r_half / (t_th - math.tan(d.alpha + d.theta_a))
    sin_a = math.sin(d.alpha)
    d_max = r_half * math.cos(d.alpha + abs(d.theta_a)) / sin_a
    d_lim = r_half * math.cos(d.alpha - abs(d.theta_a)) / sin_a
    if not all(map(math.isfinite, (y_pos, y_neg, d_max, d_lim))):
        raise ParameterError("alpha is too small for this aperture: the propagation limits overflow", "alpha")
    ref_pos = Point2(y_pos * t_th, y_pos)
    ref_neg = Point2(y_neg * t_th, y_neg)
    return BesselLimits(d_max=d_max, d_lim=d_lim, ref_point_pos=ref_pos, ref_point_neg=ref_neg)


def min_elements(d_target: float, d: BesselDesign, spacing: float) -> int:
    """Minimum element count so the beam's d_max reaches d_target.

    At least 2, the fewest an array has (UlaConfig rejects fewer): with a
    tiny alpha, the closed form alone would ask for one.
    """
    _require_steerable(d)
    if not (d_target > 0 and spacing > 0):
        raise ValueError("d_target and spacing must be positive")
    value = 2.0 * d_target * math.sin(d.alpha) / (spacing * math.cos(d.alpha + abs(d.theta_a))) + 1.0
    if not math.isfinite(value):
        raise ValueError("element count overflows: d_target is too far for this spacing")
    return max(2, math.ceil(value))


def max_spacing(d: BesselDesign, wavelength: float) -> float:
    """Spatial-sampling upper bound on element spacing for this design.

    Raises if alpha is so small that the bound overflows.
    """
    _require_steerable(d)
    if not (wavelength > 0 and math.isfinite(wavelength)):
        raise ParameterError("wavelength must be positive and finite", "wavelength")
    value = wavelength / 2.0 / math.sin(d.alpha + abs(d.theta_a))
    if not math.isfinite(value):
        raise ParameterError("alpha is too small for this wavelength: the maximum spacing overflows", "alpha")
    return value


def self_heal(cfg: UlaConfig, d: BesselDesign, obs: RectObstacle | CircleObstacle) -> SelfHealReport:
    """Self-healing onset distances behind an obstacle.

    The element at (x, 0) sends its positive-side ray along the line
    x' + tan(alpha - theta_a) y' = x and its negative-side ray along
    x' - tan(alpha + theta_a) y' = x. The positive ray clears the obstacle
    iff x > obs.support(1, tan(alpha - theta_a)), the largest
    x' + tan(alpha - theta_a) y' over the obstacle (x_r1 + tan(alpha - theta_a) y_f
    for a rectangle, the ray's tangent point for a circle); the negative
    ray iff x < -obs.support(-1, tan(alpha + theta_a)). The onset distance
    on each side is the axis distance where the first clearing element's
    ray lands: d_h = |x*| cos(alpha -/+ theta_a) / sin(alpha).
    """
    _require_steerable(d)
    thresh_p = obs.support(1.0, math.tan(d.alpha - d.theta_a))
    thresh_m = -obs.support(-1.0, math.tan(d.alpha + d.theta_a))
    xs = cfg.element_xs()
    sin_a = math.sin(d.alpha)
    pos = xs[xs > thresh_p]
    neg = xs[xs < thresh_m]
    x_p = float(pos.min()) if pos.size else None
    x_m = float(neg.max()) if neg.size else None
    d_p = abs(x_p) * math.cos(d.alpha - d.theta_a) / sin_a if x_p is not None else None
    d_m = abs(x_m) * math.cos(d.alpha + d.theta_a) / sin_a if x_m is not None else None
    return SelfHealReport(
        d_h_pos=d_p,
        d_h_neg=d_m,
        x_p_star=x_p,
        x_m_star=x_m,
        pos_unblocked=x_p is not None and x_p < 0,
        neg_unblocked=x_m is not None and x_m > 0,
    )
