"""Array layout and obstacle geometry.

Proves:
 - element x-coordinates follow the centered 1-based layout, ascending, with
   the end elements at minus and plus the half-aperture, and are exactly
   mirror-symmetric: reversed, they equal their own negatives, for random
   element counts and spacings
 - obstacle edges, circle centers and radii above 1e100 m are rejected
 - half-aperture, wavelength, and wavenumber arithmetic
 - obstacle invariant violations raise
 - the bounding square of a circle has the expected corners
 - each obstacle's support, the largest ux x + uy y over it, equals the
   maximum over densely sampled boundary points, for random rects, circles
   and directions
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import sampled_support

from ulabeam import (
    SPEED_OF_LIGHT,
    CircleObstacle,
    Point2,
    RectObstacle,
    UlaConfig,
    circle_bounding_square,
)


def test_speed_of_light_exact():
    assert SPEED_OF_LIGHT == 299792458.0


def test_wavelength_and_wavenumber(cfg1024):
    lam = SPEED_OF_LIGHT / 140e9
    assert cfg1024.wavelength() == lam
    assert_allclose(cfg1024.wavenumber(), 2.0 * math.pi / lam, rtol=1e-15)
    assert_allclose(cfg1024.spacing, 1.07068735e-3, rtol=1e-9)


def test_element_layout_small():
    cfg = UlaConfig(n_elements=4, spacing=2.0, carrier_freq=1e9)
    # centered layout: (-N + 2n - 1)/2 * spacing for n = 1..N
    assert cfg.element_xs().tolist() == [-3.0, -1.0, 1.0, 3.0]
    assert cfg.half_aperture() == 3.0


def test_element_layout_odd_count_has_center_element():
    cfg = UlaConfig(n_elements=5, spacing=1.0, carrier_freq=1e9)
    assert cfg.element_xs()[2] == 0.0
    assert_allclose(np.diff(cfg.element_xs()), 1.0)


def test_element_xs_matches_scalar_accessor(cfg1024):
    xs = cfg1024.element_xs()
    assert xs.shape == (1024,)
    assert xs[0] == -cfg1024.half_aperture()
    assert xs[-1] == cfg1024.half_aperture()
    # 511.5 * 1.07068735e-3, worked out by hand in decimal
    assert_allclose(cfg1024.half_aperture(), 0.547656579525, rtol=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from((2, 3, 1024)), st.integers(2, 5000)), st.floats(-300.0, 300.0))
def test_element_xs_are_mirror_exact(n, log_spacing):
    # the field kernel's mirror pairs rest on this: (x, y) and (-x, y) see
    # distances that are each other's reversed, bit for bit
    xs = UlaConfig(n, 10.0**log_spacing, 140e9).element_xs()
    # equal floats are equal bits, except that an odd array's middle
    # element is 0.0 and its negative -0.0, which squaring makes equal
    assert np.array_equal(xs[::-1], -xs)
    assert np.count_nonzero(xs == 0.0) == n % 2


def test_config_validation():
    with pytest.raises(ValueError):
        UlaConfig(n_elements=1, spacing=1.0, carrier_freq=1e9)
    with pytest.raises(ValueError):
        UlaConfig(n_elements=8, spacing=0.0, carrier_freq=1e9)
    with pytest.raises(ValueError):
        UlaConfig(n_elements=8, spacing=1.0, carrier_freq=-1e9)


def test_point2_norm_and_validation():
    p = Point2(3.0, 4.0)
    assert p.norm() == 5.0
    with pytest.raises(ValueError):
        Point2(math.nan, 0.0)


def test_rect_obstacle_validation():
    RectObstacle(0.14, -0.14, 0.10, 0.57)
    with pytest.raises(ValueError):
        RectObstacle(-0.14, 0.14, 0.10, 0.57)
    with pytest.raises(ValueError):
        RectObstacle(0.14, -0.14, 0.57, 0.10)
    with pytest.raises(ValueError):
        RectObstacle(0.14, -0.14, -0.10, 0.57)
    # every edge is at most 1e100 m in magnitude, where shadow stays finite
    for edges in ((1e308, -1e308, 0.1, 0.5), (0.1, -2e100, 0.3, 0.5), (2e100, 0.1, 0.3, 0.5), (0.1, -0.1, 0.3, 1.5e100)):
        with pytest.raises(ValueError, match="^obstacle edges must be at most 1e100 m in magnitude$"):
            RectObstacle(*edges)
    RectObstacle(1e100, -1e100, 1e-300, 1e100)


def test_circle_obstacle_validation():
    CircleObstacle(Point2(0.0, 0.24), 0.14)
    with pytest.raises(ValueError):
        CircleObstacle(Point2(0.0, 0.24), 0.0)
    with pytest.raises(ValueError):
        CircleObstacle(Point2(0.0, 0.10), 0.14)
    # the center and radius are at most 1e100 m in magnitude, so contains and
    # shadow stay finite (a radius whose square overflows would put every
    # point inside)
    message = "^circle center and radius must be at most 1e100 m in magnitude$"
    for center, radius in (
        ((0.0, 1e200), 1e199),
        ((0.0, 1e200), 1e150),
        ((1e200, 0.5), 0.25),
        ((-2e100, 0.5), 0.25),
        ((0.0, 3e100), 2e100),
    ):
        with pytest.raises(ValueError, match=message):
            CircleObstacle(Point2(*center), radius)
    CircleObstacle(Point2(-1e100, 1e100), 1e99)


def test_circle_bounding_square():
    sq = circle_bounding_square(CircleObstacle(Point2(0.05, 0.30), 0.14))
    assert_allclose((sq.x_r1, sq.x_r2, sq.y_n, sq.y_f), (0.19, -0.09, 0.16, 0.44))


@st.composite
def obstacles(draw):
    """A random rect or circle within a few meters of the array."""
    if draw(st.booleans()):
        x_r2 = draw(st.floats(-2.0, 2.0))
        y_n = draw(st.floats(0.01, 2.0))
        return RectObstacle(x_r2 + draw(st.floats(0.01, 1.0)), x_r2, y_n, y_n + draw(st.floats(0.01, 1.0)))
    radius = draw(st.floats(0.01, 1.0))
    return CircleObstacle(Point2(draw(st.floats(-2.0, 2.0)), radius + draw(st.floats(0.01, 2.0))), radius)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(obstacles(), st.floats(-math.pi, math.pi), st.floats(0.01, 100.0))
def test_support_matches_sampled_boundary(obstacle, angle, length):
    ux, uy = length * math.cos(angle), length * math.sin(angle)
    support = obstacle.support(ux, uy)
    sampled = sampled_support(obstacle, ux, uy)
    # the sampled points' rounding; a circle's samples also miss the maximum
    # by at most the gap between them
    rounding = 1e-11 * length
    gap = 0.0
    if isinstance(obstacle, CircleObstacle):
        gap = obstacle.radius * length * (1.0 - math.cos(math.pi / 100_000))
    assert sampled - rounding <= support <= sampled + gap + rounding
