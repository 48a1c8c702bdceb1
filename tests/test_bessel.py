"""Bessel-beam design rules: phases, limits, sampling bounds, self-healing.

Proves:
 - the steerability predicate is exact at both boundaries (closed left,
   open right) and rejects the known failure case theta=15deg, alpha=10deg;
   the failure reason names the bound, and the synthesis refuses with it
 - synthesis phases equal k times the brute-force minimum distance to the
   wavefront polyline (independent point-to-segment oracle)
 - propagation limits match frozen values, the reference points lie on the
   steering axis at distances d_lim / d_max, and the edge-element ray lands
   on the axis at d_max; for random steerable designs of either sign of
   theta, |ref_point_pos| = R cos(alpha - theta) / sin(alpha) and
   |ref_point_neg| = R cos(alpha + theta) / sin(alpha), which are
   {d_max, d_lim}; an alpha so small that these overflow is rejected
 - element-count / spacing bounds reproduce the printed design numbers, and
   the element count is the least that reaches the target distance at each
   of three spacings; a count that overflows is rejected, and a tiny alpha
   still needs two elements; a spacing bound that overflows is rejected
   naming alpha, and an infinite wavelength is rejected
 - self-healing reports match frozen values for the cuboid and cylinder
   fixtures, and the clearing element's ray really does clear the circle
   while its inward neighbor does not; steered designs behind a circle
   report the first elements past the literal tangent-point thresholds
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ulabeam import (
    BesselDesign,
    CircleObstacle,
    Point2,
    RectObstacle,
    UlaConfig,
    bessel_phases,
    max_spacing,
    min_elements,
    propagation_limits,
    self_heal,
)
from oracles import direct_ray, polyline_min_distances, wavefront

DEG = math.pi / 180.0


# ---------------------------------------------------------------- steering

def test_steerable_interior_and_failure_case():
    assert BesselDesign(15 * DEG, 20 * DEG).steering_failure() is None
    # known failure case: alpha below the steering angle
    assert BesselDesign(15 * DEG, 10 * DEG).steering_failure() is not None


def test_steerable_boundaries_exact():
    th = 15 * DEG
    eps = 1e-12
    # left boundary alpha == |theta| is included...
    assert BesselDesign(th, th).steering_failure() is None
    assert BesselDesign(th, th + eps).steering_failure() is None
    assert BesselDesign(th, th - eps).steering_failure() is not None
    # ...the right boundary alpha == pi/2 - |theta| is not
    hi = math.pi / 2 - th
    assert BesselDesign(th, hi).steering_failure() is not None
    assert BesselDesign(th, hi + eps).steering_failure() is not None
    assert BesselDesign(th, hi - eps).steering_failure() is None


def test_steering_failure_names_the_failing_bound():
    th = 15 * DEG
    assert BesselDesign(th, 20 * DEG).steering_failure() is None
    assert BesselDesign(-th, 10 * DEG).steering_failure() == "alpha < |theta|"
    assert BesselDesign(th, math.pi / 2 - th).steering_failure() == "alpha >= pi/2 - |theta|"
    cfg = UlaConfig(8, 1e-3, 140e9)
    with pytest.raises(ValueError, match=r"^design not steerable: alpha < \|theta\|$"):
        bessel_phases(cfg, BesselDesign(th, 10 * DEG))
    with pytest.raises(ValueError, match=r"^design not steerable: alpha >= pi/2 - \|theta\|$"):
        bessel_phases(cfg, BesselDesign(th, math.pi / 2 - th))


def test_steerable_symmetric_in_theta_sign():
    assert BesselDesign(-15 * DEG, 20 * DEG).steering_failure() is None
    assert BesselDesign(-15 * DEG, 10 * DEG).steering_failure() is not None


def test_marginal():
    d = BesselDesign(15 * DEG, 15 * DEG)
    assert d.marginal() and d.steering_failure() is None
    assert BesselDesign(-15 * DEG, 15 * DEG).marginal()
    assert not BesselDesign(15 * DEG, 20 * DEG).marginal()


def test_design_domain_validation():
    with pytest.raises(ValueError):
        BesselDesign(math.pi / 2, 0.3)
    with pytest.raises(ValueError):
        BesselDesign(0.0, 0.0)
    with pytest.raises(ValueError):
        BesselDesign(0.0, math.pi / 2)


def test_unsteerable_designs_rejected_with_reason():
    cfg = UlaConfig(8, 1e-3, 140e9)
    with pytest.raises(ValueError, match=r"alpha < \|theta\|"):
        bessel_phases(cfg, BesselDesign(15 * DEG, 10 * DEG))
    with pytest.raises(ValueError, match="alpha >= pi/2"):
        propagation_limits(cfg, BesselDesign(15 * DEG, 80 * DEG))


# ------------------------------------------------------------------ phases

def test_wavefront_piecewise_slopes():
    d = BesselDesign(15 * DEG, 20 * DEG)
    assert_allclose(wavefront(1.0, d), math.tan(5 * DEG))
    assert_allclose(wavefront(-1.0, d), math.tan(35 * DEG))
    assert wavefront(0.0, d) == 0.0


def test_phases_match_wavefront_distance_oracle():
    cfg = UlaConfig(65, 299792458.0 / 140e9 / 2.0, 140e9)
    rng = np.random.default_rng(42)
    r_half = cfg.half_aperture()
    curve_x = np.linspace(-6 * r_half, 6 * r_half, 40001)
    for _ in range(5):
        th = rng.uniform(-0.4, 0.4)
        al = rng.uniform(abs(th), math.pi / 2 - abs(th) - 1e-6)
        d = BesselDesign(th, al)
        if d.steering_failure() is not None:
            continue
        exc = bessel_phases(cfg, d)
        dist = polyline_min_distances(cfg.element_xs(), curve_x, wavefront(curve_x, d))
        assert_allclose(exc.phases, cfg.wavenumber() * dist, rtol=1e-6, atol=1e-12)


def test_phases_symmetric_on_axis(cfg1024):
    exc = bessel_phases(cfg1024, BesselDesign(0.0, 20 * DEG))
    assert_allclose(exc.phases, exc.phases[::-1], rtol=1e-12)
    assert np.all(exc.phases >= 0)
    assert np.all(exc.magnitudes == 1.0)


# ------------------------------------------------------------------ limits

def test_propagation_limits_frozen_values(cfg1024):
    lim20 = propagation_limits(cfg1024, BesselDesign(0.0, 20 * DEG))
    lim30 = propagation_limits(cfg1024, BesselDesign(0.0, 30 * DEG))
    assert_allclose(lim20.d_max, 1.5046740858606924, rtol=1e-12)
    assert_allclose(lim30.d_max, 0.9485690208366855, rtol=1e-12)
    # broadside: both sides of the aperture expire together
    assert lim20.d_lim == lim20.d_max


def test_reference_points_on_steering_axis(cfg1024):
    d = BesselDesign(15 * DEG, 20 * DEG)
    lim = propagation_limits(cfg1024, d)
    t = math.tan(d.theta_a)
    assert_allclose(lim.ref_point_pos.x, lim.ref_point_pos.y * t, rtol=1e-12)
    assert_allclose(lim.ref_point_neg.x, lim.ref_point_neg.y * t, rtol=1e-12)
    # for theta >= 0 the positive side lives longest: |ref_pos| = d_lim
    assert_allclose(lim.ref_point_pos.norm(), lim.d_lim, rtol=1e-12)
    assert_allclose(lim.ref_point_neg.norm(), lim.d_max, rtol=1e-12)
    assert lim.d_max < lim.d_lim


def test_reference_points_swap_for_negative_steering(cfg1024):
    lim = propagation_limits(cfg1024, BesselDesign(-15 * DEG, 20 * DEG))
    assert_allclose(lim.ref_point_pos.norm(), lim.d_max, rtol=1e-12)
    assert_allclose(lim.ref_point_neg.norm(), lim.d_lim, rtol=1e-12)


@st.composite
def steerable_designs(draw) -> tuple[UlaConfig, BesselDesign]:
    """A random array and a steerable design, |theta| <= alpha < pi/2 - |theta|, theta of either sign."""
    cfg = UlaConfig(draw(st.integers(2, 4096)), draw(st.floats(1e-4, 1e-1)), 140e9)
    magnitude = draw(st.floats(0.0, math.pi / 4, exclude_max=True))
    alpha = magnitude + draw(st.floats(0.0, 1.0, exclude_max=True)) * (math.pi / 2 - 2 * magnitude)
    assume(alpha > 0)
    d = BesselDesign(draw(st.sampled_from((1.0, -1.0))) * magnitude, alpha)
    assume(d.steering_failure() is None)
    return cfg, d


@settings(max_examples=300, deadline=None, derandomize=True)
@given(steerable_designs())
# alpha = 2e-311 degrees: R / sin(alpha) overflows at 64 elements
@example((UlaConfig(64, 299792458.0 / 140e9 / 2.0, 140e9), BesselDesign(0.0, math.radians(2.0e-311))))
def test_reference_points_match_closed_forms_for_either_sign(case):
    cfg, d = case
    r_half, t = cfg.half_aperture(), math.tan(d.theta_a)
    # the positive side's edge ray meets the axis at R cos(alpha - theta) / sin(alpha)
    pos = r_half * math.cos(d.alpha - d.theta_a) / math.sin(d.alpha)
    neg = r_half * math.cos(d.alpha + d.theta_a) / math.sin(d.alpha)
    if not (math.isfinite(pos) and math.isfinite(neg)):
        # an alpha so small that R / sin(alpha) overflows has no finite limits
        with pytest.raises(ValueError, match="alpha is too small for this aperture"):
            propagation_limits(cfg, d)
        return
    lim = propagation_limits(cfg, d)
    for point in (lim.ref_point_pos, lim.ref_point_neg):
        assert_allclose(point.x, point.y * t, rtol=1e-12)
    assert_allclose(lim.ref_point_pos.norm(), pos, rtol=1e-12)
    assert_allclose(lim.ref_point_neg.norm(), neg, rtol=1e-12)
    assert_allclose(sorted((lim.ref_point_pos.norm(), lim.ref_point_neg.norm())), (lim.d_max, lim.d_lim), rtol=1e-12)


def test_edge_ray_lands_at_d_max(cfg1024):
    d = BesselDesign(0.0, 20 * DEG)
    lim = propagation_limits(cfg1024, d)
    r_half = cfg1024.half_aperture()
    assert_allclose(direct_ray(lim.d_max, r_half, d), 0.0, atol=1e-12)
    assert direct_ray(0.0, r_half, d) == r_half


# ---------------------------------------------------------------- sampling

def test_max_spacing_frozen_value():
    d = BesselDesign(15 * DEG, 20 * DEG)
    lam = 299792458.0 / 140e9
    got = max_spacing(d, lam)
    assert_allclose(got, 0.0018666864294695452, rtol=1e-12)
    assert_allclose(got, lam / 2.0 / math.sin(35 * DEG), rtol=1e-15)


def test_max_spacing_rejects_an_overflowing_bound():
    # lambda / 2 / sin(alpha) overflows at alpha = 3.07e-310 deg
    lam = 299792458.0 / 140e9
    with pytest.raises(ValueError, match="^alpha is too small for this wavelength: the maximum spacing overflows$"):
        max_spacing(BesselDesign(0.0, math.radians(3.07e-310)), lam)
    with pytest.raises(ValueError, match="^wavelength must be positive and finite$"):
        max_spacing(BesselDesign(0.0, 20 * DEG), math.inf)


def test_min_elements_design_table():
    d = BesselDesign(15 * DEG, 20 * DEG)
    lam = 299792458.0 / 140e9
    assert min_elements(4.0, d, lam / 2.0) == 3121
    assert min_elements(4.0, d, 0.00186) == 1797
    assert min_elements(4.0, d, 0.00372) == 899


@pytest.mark.parametrize(
    "spacing", [299792458.0 / 140e9 / 2.0, 0.00186, 0.00372], ids=["half_wavelength", "1.86mm", "3.72mm"]
)
def test_min_elements_reaches_target_distance(spacing):
    d = BesselDesign(15 * DEG, 20 * DEG)
    n = min_elements(4.0, d, spacing)
    cfg = UlaConfig(n, spacing, 140e9)
    assert propagation_limits(cfg, d).d_max >= 4.0
    cfg_short = UlaConfig(n - 1, spacing, 140e9)
    assert propagation_limits(cfg_short, d).d_max < 4.0


def test_sampling_bound_argument_validation():
    d = BesselDesign(0.0, 20 * DEG)
    with pytest.raises(ValueError):
        min_elements(-1.0, d, 1e-3)
    with pytest.raises(ValueError):
        max_spacing(d, 0.0)
    # the count for a target 1e306 m away at half-wavelength spacing overflows
    with pytest.raises(ValueError, match="element count overflows"):
        min_elements(1e306, BesselDesign(0.0, 10 * DEG), 299792458.0 / 140e9 / 2.0)
    # a tiny alpha reaches a near target with one element, but an array has two
    assert min_elements(1.0, BesselDesign(0.0, math.radians(1.0e-300)), 299792458.0 / 140e9 / 2.0) == 2


# ------------------------------------------------------------- self-healing

def test_self_heal_rect_frozen_cuboid(cfg1024):
    obs = RectObstacle(0.14, -0.14, 0.10, 0.57)
    heal30 = self_heal(cfg1024, BesselDesign(0.0, 30 * DEG), obs)
    assert_allclose(heal30.d_h_pos, 0.813191623923532, rtol=1e-12)
    assert heal30.d_h_neg == heal30.d_h_pos
    assert_allclose(heal30.x_p_star, 0.469496402975, rtol=1e-12)
    assert heal30.x_m_star == -heal30.x_p_star
    assert not heal30.pos_unblocked and not heal30.neg_unblocked

    heal20 = self_heal(cfg1024, BesselDesign(0.0, 20 * DEG), obs)
    assert_allclose(heal20.d_h_pos, 0.9575198728204405, rtol=1e-12)


def test_self_heal_rect_matches_literal_threshold(cfg1024):
    d = BesselDesign(10 * DEG, 25 * DEG)
    obs = RectObstacle(0.10, -0.20, 0.15, 0.40)
    heal = self_heal(cfg1024, d, obs)
    xs = cfg1024.element_xs()
    thresh_p = obs.x_r1 + math.tan(d.alpha - d.theta_a) * obs.y_f
    thresh_m = obs.x_r2 - math.tan(d.alpha + d.theta_a) * obs.y_f
    assert heal.x_p_star == xs[xs > thresh_p].min()
    assert heal.x_m_star == xs[xs < thresh_m].max()
    assert_allclose(
        heal.d_h_pos,
        abs(heal.x_p_star) * math.cos(d.alpha - d.theta_a) / math.sin(d.alpha),
        rtol=1e-12,
    )
    assert_allclose(
        heal.d_h_neg,
        abs(heal.x_m_star) * math.cos(d.alpha + d.theta_a) / math.sin(d.alpha),
        rtol=1e-12,
    )


def test_self_heal_circle_frozen_cylinder(cfg1024):
    theta = math.atan2(-0.1, 1.0)
    d = BesselDesign(theta, 20 * DEG + abs(theta))
    heal = self_heal(cfg1024, d, CircleObstacle(Point2(0.0, 0.24), 0.14))
    assert_allclose(heal.d_h_pos, 0.6118216863745884, rtol=1e-12)
    assert_allclose(heal.d_h_neg, 0.5136969290859927, rtol=1e-12)
    assert_allclose(heal.x_p_star, 0.311034675175, rtol=1e-12)
    assert_allclose(heal.x_m_star, -0.237157248025, rtol=1e-12)
    assert not heal.pos_unblocked and not heal.neg_unblocked


def test_self_heal_circle_clearing_ray_geometry(cfg1024):
    # the reported element's ray misses the circle; one element inward hits it
    d = BesselDesign(0.0, 25 * DEG)
    obs = CircleObstacle(Point2(0.05, 0.30), 0.12)
    heal = self_heal(cfg1024, d, obs)
    ys = np.linspace(obs.center.y - obs.radius, obs.center.y + obs.radius, 20001)

    def min_gap(x_elem):
        xr = direct_ray(ys, x_elem, d)
        return np.hypot(xr - obs.center.x, ys - obs.center.y).min()

    assert min_gap(heal.x_p_star) >= obs.radius - 1e-6
    assert min_gap(heal.x_p_star - cfg1024.spacing) < obs.radius
    assert min_gap(heal.x_m_star) >= obs.radius - 1e-6
    assert min_gap(heal.x_m_star + cfg1024.spacing) < obs.radius


@pytest.mark.parametrize(
    "theta_deg, alpha_deg, center, radius",
    [(-8.0, 22.0, (0.07, 0.28), 0.11), (12.0, 30.0, (-0.10, 0.35), 0.08)],
)
def test_self_heal_circle_steered_matches_tangent_points(cfg1024, theta_deg, alpha_deg, center, radius):
    # a steered design against the thresholds through the tangent points
    # (x_c + r cos(a -/+ t), y_c + r sin(a -/+ t)) of the element rays; no
    # element lies within a tenth of a spacing of either threshold
    d = BesselDesign(theta_deg * DEG, alpha_deg * DEG)
    obs = CircleObstacle(Point2(*center), radius)
    heal = self_heal(cfg1024, d, obs)
    xs = cfg1024.element_xs()
    b, g = d.alpha - d.theta_a, d.alpha + d.theta_a
    x_c1, y_c1 = obs.center.x + radius * math.cos(b), obs.center.y + radius * math.sin(b)
    x_c2, y_c2 = obs.center.x - radius * math.cos(g), obs.center.y + radius * math.sin(g)
    thresh_p = x_c1 + math.tan(b) * y_c1
    thresh_m = x_c2 - math.tan(g) * y_c2
    assert heal.x_p_star == xs[xs > thresh_p].min()
    assert heal.x_m_star == xs[xs < thresh_m].max()
    assert_allclose(heal.d_h_pos, abs(heal.x_p_star) * math.cos(b) / math.sin(d.alpha), rtol=1e-12)
    assert_allclose(heal.d_h_neg, abs(heal.x_m_star) * math.cos(g) / math.sin(d.alpha), rtol=1e-12)


def test_self_heal_unblocked_flags(cfg1024):
    # obstacle far off to the left: the positive-side beam never crosses it
    d = BesselDesign(0.0, 30 * DEG)
    heal = self_heal(cfg1024, d, RectObstacle(-0.80, -0.90, 0.05, 0.10))
    assert heal.pos_unblocked
    assert heal.x_p_star < 0
    # and no negative-side element can pass left of it
    assert heal.x_m_star is None and heal.d_h_neg is None
    assert not heal.neg_unblocked
