"""Scalar field evaluation, excitation families, occlusion, serialization.

Proves:
 - Excitation holds magnitudes and phases only: an element is driven iff
   its magnitude is positive, an undriven one's phase is 0; it rejects a
   mask, bad shapes, negative or non-finite magnitudes and non-finite
   driven phases, and is immutable
 - gaussian / focusing excitations follow their closed forms; the focusing
   phases converge to the linear-steering phases for a very distant focus;
   a focused beam beats every other family at its own focus at equal power
 - field values obey the one-term and two-term closed forms, the 1/r law,
   and superposition to 1e-12
 - one driven element seen from r in 1e-150..1e150 m, at random carriers,
   magnitudes and phases, gives within 4 eps gamma / r of np.cos and
   np.sin of its phase and of k r, and raises no floating-point flag
 - hard-shadow occlusion zeroes a fully shadowed point, matches manual
   element removal bit for bit, and marks obstacle-interior samples NaN,
   without a warning for a circle-boundary point whose shadow tangent is
   within a subnormal of horizontal
 - on-axis cuts show the steered knee at d_max, residual one-sided reach
   to d_lim, shadow-then-recovery behind an obstacle, and doubling the
   element spacing past the sampling bound injects interference on axis
 - the blocked run per point equals the pair-by-pair sight-line oracle on
   every element not within 1e-9 m of a tie, for random rects, circles and
   points (y-band points included)
 - every shipped simulate scene matches the element-by-element oracle sum
   to 1e-12 of sum(gamma / r)
 - CSV / PGM serialization produces frozen bytes and survives a round trip
 - each row of a call with 1-6 (excitation, obstacle) entries equals, bit
   for bit and at chunk sizes from one pair to the whole call, a dense
   reference that follows the kernel's arithmetic on the whole pair
   matrix at once; so do the call with that entry alone, the call on the
   points without their mirrors and the call on the mirrors alone. Cases:
   random arrays; excitations with undriven elements or none, mirror-
   symmetric or not; 1-4 obstacles (rects, circles, free space and walls
   that hide the whole aperture); entries that share excitations,
   obstacles, both or neither; points with the exact mirror (-x, y) of
   each appended, and duplicate points. Points equal up to the sign of x
   pair at least once; a point above a wall carries the bits of a
   zero-magnitude excitation; every row matches the element-by-element
   oracle to 1e-12 of sum(gamma / r). Fixed cases: an obstacle whose runs
   another obstacle's copy zeroed first, a last obstacle after one that
   hid every element, undriven elements with an excitation that drives
   none and a wall that hides a point inside a circle, no points (every
   row empty, of shape (entries, 0)) and points that see no driven element
 - with no entries the kernel returns an empty (0, M) result at once
 - one call of 1,024 elements on a grid and a steered cut, over at least
   4 chunks, under a rect, under a rect and a circle, and under a rect, a
   circle and free space, equals the dense reference bit for bit at
   chunk sizes 1, 7 and the default; its grid part is field_grid's bit
   for bit, interior points are NaN, every other point is bit for bit
   the call with that point alone, and the kernel starts no thread
 - points whose squared distance to an element overflows are rejected by
   every caller, and so are points nearer than about 1e-154 m to an
   element: exactly those where some pair's squared distance is not a
   positive normal float, by a brute-force check over every element for
   N in {2, 3, 1024} and random arrays, points far off, beside the array,
   between elements and right above one
 - field_grid checks its size and ranges before any field is computed
 - each axis of grid_nodes on a symmetric range is mirror-exact, with
   np.linspace's ends and left half, and its right half within 2 ulp of
   the range end of np.linspace on the shipped and benchmark ranges (5 ulp
   on random ranges); an asymmetric axis is np.linspace bit for bit; a
   grid's x and y are the nodes the kernel evaluated, bit for bit
 - the amplitude np.hypot(re, im) equals Python's complex abs bit for bit
   over +-0, subnormal, huge, infinite and NaN parts, on arrays (NaN as
   NaN; inf where Python's abs overflows)
"""

import csv
import io
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import dense_field, field_by_elements, inside_obstacle, visible_pairs

import ulabeam.field
from ulabeam import (
    AvoidanceScenario,
    BesselDesign,
    CircleObstacle,
    Excitation,
    FieldGrid,
    Point2,
    RectObstacle,
    UlaConfig,
    bessel_phases,
    field_at,
    field_grid,
    field_points_per_entry,
    focusing_excitation,
    gaussian_excitation,
    line_cut,
    max_spacing,
    normalize_power,
    plan_excitation,
    plan_with_fallback,
    propagation_limits,
    write_field_csv,
    write_field_pgm,
)
from ulabeam.cli import load_scenario, main
from ulabeam.field import _blocked_runs, grid_nodes

DEG = math.pi / 180.0
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def two_element_cfg() -> UlaConfig:
    return UlaConfig(2, 0.5, 1e9)


# -------------------------------------------------------------- excitation

def test_excitation_zeroes_inactive_slots():
    # a zero-magnitude element is undriven, and its phase becomes 0
    exc = Excitation([2.0, 0.0], [0.3, math.inf])
    assert exc.magnitudes[1] == 0.0 and exc.phases[1] == 0.0
    assert exc.magnitudes[0] == 2.0 and exc.phases[0] == 0.3
    assert exc.active.tolist() == [True, False]
    assert exc.n_elements == 2
    # a NaN magnitude is neither driven nor zero: it is rejected
    with pytest.raises(ValueError, match="^active magnitudes must be finite and non-negative$"):
        Excitation([2.0, math.nan], [0.3, 0.0])


def test_excitation_rejects_bad_input():
    with pytest.raises(ValueError):
        Excitation([1.0, 1.0], [0.0])
    with pytest.raises(ValueError, match="^active magnitudes must be finite and non-negative$"):
        Excitation([-1.0], [0.0])
    with pytest.raises(ValueError, match="^active magnitudes must be finite and non-negative$"):
        Excitation([math.inf], [0.0])
    with pytest.raises(ValueError, match="^active phases must be finite$"):
        Excitation([1.0], [math.nan])
    # the driven elements follow from the magnitudes; there is no mask to pass
    with pytest.raises(TypeError):
        Excitation([1.0], [0.0], [True])


def test_excitation_is_immutable():
    exc = Excitation([1.0], [0.0])
    with pytest.raises(ValueError):
        exc.magnitudes[0] = 2.0
    with pytest.raises(AttributeError):
        exc.active = np.array([False])


def test_gaussian_phases_linear():
    cfg = UlaConfig(8, 1e-3, 140e9)
    assert np.all(gaussian_excitation(cfg, 0.0).phases == 0.0)
    th = 15 * DEG
    exc = gaussian_excitation(cfg, th)
    assert_allclose(exc.phases, -cfg.wavenumber() * math.sin(th) * cfg.element_xs(), rtol=1e-15)
    with pytest.raises(ValueError):
        gaussian_excitation(cfg, math.pi / 2)


def test_focusing_terms_cophase_at_focus():
    cfg = UlaConfig(32, 1.2e-3, 140e9)
    focus = Point2(0.05, 0.8)
    exc = focusing_excitation(cfg, focus)
    r = np.hypot(focus.x - cfg.element_xs(), focus.y)
    arg = exc.phases - cfg.wavenumber() * r
    assert_allclose(arg, 0.0, atol=1e-9)
    with pytest.raises(ValueError):
        focusing_excitation(cfg, Point2(0.0, 0.0))


def test_focusing_far_limit_is_linear_steering(cfg1024):
    th = 15 * DEG
    far = Point2(1e6 * math.sin(th), 1e6 * math.cos(th))
    dphi = focusing_excitation(cfg1024, far).phases - gaussian_excitation(cfg1024, th).phases
    assert dphi.max() - dphi.min() < 1e-3


def test_focusing_wins_at_its_focus_at_equal_power(cfg1024):
    user = Point2(0.0, 1.0)
    scn = AvoidanceScenario(user, RectObstacle(-1.86, -2.14, 0.10, 0.57), cfg1024)
    rivals = [
        gaussian_excitation(cfg1024, 0.0),
        bessel_phases(cfg1024, BesselDesign(0.0, 20 * DEG)),
        plan_excitation(cfg1024, plan_with_fallback(scn), 1.0),
    ]
    focus_amp = abs(field_at(cfg1024, normalize_power(focusing_excitation(cfg1024, user), 1.0), user))
    for exc in rivals:
        amp = abs(field_at(cfg1024, normalize_power(exc, 1.0), user))
        assert focus_amp > 2.0 * amp


# ------------------------------------------------------------- field values

def test_single_element_inverse_distance_phase():
    cfg = two_element_cfg()
    exc = Excitation([1.0, 0.0], [0.0, 0.0])
    p = Point2(cfg.element_xs()[0], 2.0)
    r = 2.0
    val = field_at(cfg, exc, p)
    assert_allclose(val, np.exp(-1j * cfg.wavenumber() * r) / r, rtol=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.floats(-150.0, 150.0),
    st.floats(6.0, 15.0),
    st.floats(-3.0, 3.0),
    st.integers(-(10**6), 10**6).map(lambda mrad: mrad / 1000),
)
@example(-150.0, 6.0, 0.0, 1.0)
@example(150.0, 15.0, 0.0, -1.0)
def test_one_pair_is_within_4_eps_of_cos_and_sin(log_r, log_freq, log_gamma, phi):
    # one driven element (the other is undriven) and a point r straight above
    # it; the reference takes np.cos and np.sin of phi and of k r apart, since
    # phi - k r itself would round to nothing at large k r. phi runs in steps
    # of 1 mrad, so no weight or reference product underflows
    cfg = UlaConfig(2, 1e-3, 10.0**log_freq)
    r, gamma = 10.0**log_r, 10.0**log_gamma
    exc = Excitation([gamma, 0.0], [phi, 0.0])
    with np.errstate(all="raise"):
        value = field_points_per_entry(cfg, [(exc, None)], cfg.element_xs()[:1], np.array([r]))[0, 0]
        kr = r * cfg.wavenumber()
        c, s, ck, sk = np.cos(phi), np.sin(phi), np.cos(kr), np.sin(kr)
        want = complex(gamma * (c * ck + s * sk) / r, gamma * (s * ck - c * sk) / r)
    assert abs(value - want) <= 4 * np.finfo(float).eps * gamma / r


def test_one_over_r_law_random_points():
    cfg = two_element_cfg()
    exc = Excitation([1.0, 0.0], [0.0, 0.0])
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = Point2(rng.uniform(-3, 3), rng.uniform(0.1, 5.0))
        r = math.hypot(p.x - cfg.element_xs()[0], p.y)
        assert_allclose(abs(field_at(cfg, exc, p)), 1.0 / r, rtol=1e-12)


def test_two_symmetric_elements_add_on_axis():
    cfg = two_element_cfg()
    exc = gaussian_excitation(cfg, 0.0)
    y = 1.5
    r = math.hypot(0.25, y)
    assert_allclose(abs(field_at(cfg, exc, Point2(0.0, y))), 2.0 / r, rtol=1e-12)


def test_superposition_linearity():
    cfg = UlaConfig(16, 1.1e-3, 140e9)
    rng = np.random.default_rng(11)
    c1 = rng.uniform(0.5, 2.0, 16) * np.exp(1j * rng.uniform(-math.pi, math.pi, 16))
    c2 = rng.uniform(0.5, 2.0, 16) * np.exp(1j * rng.uniform(-math.pi, math.pi, 16))
    e1 = Excitation(np.abs(c1), np.angle(c1))
    e2 = Excitation(np.abs(c2), np.angle(c2))
    e3 = Excitation(np.abs(c1 + c2), np.angle(c1 + c2))
    for _ in range(10):
        p = Point2(rng.uniform(-1, 1), rng.uniform(0.2, 3.0))
        lhs = field_at(cfg, e3, p)
        rhs = field_at(cfg, e1, p) + field_at(cfg, e2, p)
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_field_rejects_points_behind_array():
    cfg = two_element_cfg()
    exc = gaussian_excitation(cfg, 0.0)
    with pytest.raises(ValueError):
        field_at(cfg, exc, Point2(0.0, -1.0))
    with pytest.raises(ValueError):
        line_cut(cfg, exc, 0.0, 1.0, 1)


def test_field_rejects_length_mismatch():
    cfg = two_element_cfg()
    with pytest.raises(ValueError):
        field_at(cfg, Excitation([1.0], [0.0]), Point2(0.0, 1.0))


# --------------------------------------------------------------- occlusion

def test_fully_shadowed_point_is_exactly_zero():
    cfg = two_element_cfg()
    exc = gaussian_excitation(cfg, 0.0)
    obstacle = RectObstacle(10.0, -10.0, 0.4, 0.6)
    assert field_at(cfg, exc, Point2(0.0, 1.0), obstacle) == 0.0


def test_interior_point_rejected_and_grid_gets_nan():
    cfg = two_element_cfg()
    exc = gaussian_excitation(cfg, 0.0)
    obstacle = RectObstacle(0.2, -0.2, 0.4, 0.6)
    with pytest.raises(ValueError):
        field_at(cfg, exc, Point2(0.0, 0.5), obstacle)
    grid = field_grid(cfg, exc, (-0.3, 0.3), (0.3, 0.7), 7, 9, obstacle)
    gx, gy = np.meshgrid(grid.x, grid.y, indexing="ij")
    inside = (gx >= -0.2) & (gx <= 0.2) & (gy >= 0.4) & (gy <= 0.6)
    assert np.all(np.isnan(grid.values[inside]))
    assert np.all(np.isfinite(grid.values[~inside]))
    # a point on a circle's boundary whose shadow tangent is within a
    # subnormal of horizontal: its divide overflows, silently, to its limit
    cfg = UlaConfig(2, 0.0078125, 1e9)
    circle = CircleObstacle(Point2(0.0, 0.75), 0.25)
    entries = ((gaussian_excitation(cfg, 0.0), circle),)
    row = field_points_per_entry(cfg, entries, np.array([2.225e-311]), np.array([0.5]))
    assert np.isnan(row[0, 0])


def _segment_hits_obstacle(obstacle, x_e: float, p: Point2, n: int = 4001) -> bool:
    """Sampled sight-line test, independent of the shipped visibility code."""
    t = np.linspace(0.0, 1.0, n)
    sx = x_e + (p.x - x_e) * t
    sy = p.y * t
    if isinstance(obstacle, RectObstacle):
        return bool(
            np.any(
                (sx >= obstacle.x_r2)
                & (sx <= obstacle.x_r1)
                & (sy >= obstacle.y_n)
                & (sy <= obstacle.y_f)
            )
        )
    d2 = (sx - obstacle.center.x) ** 2 + (sy - obstacle.center.y) ** 2
    return bool(np.any(d2 <= obstacle.radius**2))


@pytest.mark.parametrize(
    "obstacle, points",
    [
        (
            RectObstacle(0.05, -0.11, 0.2, 0.5),
            (Point2(0.0, 1.0), Point2(-0.15, 0.8), Point2(0.2, 0.45)),
        ),
        (
            CircleObstacle(Point2(-0.03, 0.35), 0.09),
            (Point2(-0.1, 1.0), Point2(-0.25, 0.7), Point2(0.05, 0.6)),
        ),
    ],
)
def test_hard_shadow_equals_manual_element_removal(obstacle, points):
    cfg = UlaConfig(33, 9e-3, 140e9)
    exc = gaussian_excitation(cfg, 5 * DEG)
    for p in points:
        visible = np.array(
            [not _segment_hits_obstacle(obstacle, x_e, p) for x_e in cfg.element_xs()]
        )
        assert 0 < visible.sum() < cfg.n_elements
        manual = Excitation(np.where(visible, exc.magnitudes, 0.0), exc.phases)
        assert field_at(cfg, exc, p, obstacle) == field_at(cfg, manual, p)


# -------------------------------------------------------------- line cuts

def test_line_cut_matches_field_at_broadside():
    cfg = two_element_cfg()
    exc = gaussian_excitation(cfg, 0.0)
    cut = line_cut(cfg, exc, 0.0, 2.0, 4)
    assert [d for d, _ in cut] == [0.5, 1.0, 1.5, 2.0]
    for d, amp in cut:
        assert_allclose(amp, abs(field_at(cfg, exc, Point2(0.0, d))), rtol=1e-12)


def test_line_cut_follows_steering_axis():
    cfg = UlaConfig(16, 1.1e-3, 140e9)
    th = 20 * DEG
    exc = gaussian_excitation(cfg, th)
    cut = line_cut(cfg, exc, th, 1.0, 5)
    for d, amp in cut:
        p = Point2(d * math.sin(th), d * math.cos(th))
        assert_allclose(amp, abs(field_at(cfg, exc, p)), rtol=1e-12)


def test_steered_cut_knee_and_one_sided_reach(cfg1024):
    d = BesselDesign(15 * DEG, 20 * DEG)
    lim = propagation_limits(cfg1024, d)
    exc = bessel_phases(cfg1024, d)
    cut = line_cut(cfg1024, exc, d.theta_a, 1.2 * lim.d_lim, 1200)
    dist = np.array([c[0] for c in cut])
    amp = np.array([c[1] for c in cut])

    def at(target):
        return amp[np.argmin(np.abs(dist - target))]

    # knee: sharp drop right after d_max ...
    assert at(0.9 * lim.d_max) > 1.8 * at(1.05 * lim.d_max)
    # ... but one-sided propagation keeps a real residual until d_lim
    mid = 0.5 * (lim.d_max + lim.d_lim)
    assert at(mid) > 0.25 * at(0.9 * lim.d_max)
    assert at(mid) > 5.0 * at(1.1 * lim.d_lim)


def test_shadow_then_recovery_behind_cuboid(cfg1024):
    d = BesselDesign(0.0, 30 * DEG)
    exc = bessel_phases(cfg1024, d)
    cut = line_cut(cfg1024, exc, 0.0, 1.3, 1300, RectObstacle(0.14, -0.14, 0.10, 0.57))
    dist = np.array([c[0] for c in cut])
    amp = np.array([c[1] for c in cut])
    shadow = (dist > 0.60) & (dist < 0.76)
    # full shadow: every element ray is blocked, so the sum is exactly zero
    assert np.all(amp[shadow] == 0.0)
    # self-healing: the beam re-forms past the healing distance 0.8132
    beyond = (dist > 0.85) & (dist < 1.2)
    assert amp[beyond].max() > 20.0
    free = np.array([c[1] for c in line_cut(cfg1024, exc, 0.0, 1.3, 1300)])
    i = np.argmin(np.abs(dist - 0.90))
    assert amp[i] > 0.5 * free[i]


def test_oversized_spacing_injects_on_axis_interference():
    lam = 299792458.0 / 140e9
    d = BesselDesign(15 * DEG, 20 * DEG)

    def on_axis_stats(spacing):
        cfg = UlaConfig(512, spacing, 140e9)
        lim = propagation_limits(cfg, d)
        cut = line_cut(cfg, bessel_phases(cfg, d), d.theta_a, 0.9 * lim.d_max, 900)
        amp = np.array([a for dd, a in cut if dd >= 0.1 * lim.d_max])
        return amp.min() / amp.max(), amp.mean()

    ok_ripple, ok_mean = on_axis_stats(max_spacing(d, lam))
    bad_ripple, bad_mean = on_axis_stats(2.0 * max_spacing(d, lam))
    # grating beams cross the main beam: deep on-axis fading, power diverted
    assert ok_ripple > 0.25
    assert bad_ripple < 0.20
    assert bad_mean < 0.6 * ok_mean


def test_grating_ridge_appears_off_axis():
    lam = 299792458.0 / 140e9
    d = BesselDesign(15 * DEG, 20 * DEG)
    cfg = UlaConfig(512, 2.0 * max_spacing(d, lam), 140e9)
    lim = propagation_limits(cfg, d)
    y0 = 0.5 * lim.d_max * math.cos(d.theta_a)
    grid = field_grid(cfg, bessel_phases(cfg, d), (-1.5, 1.5), (y0, y0 + 1e-6), 2001, 2)
    x = grid.x
    amp = np.abs(grid.values[:, 0])
    x_beam = y0 * math.tan(d.theta_a)
    main = amp[np.abs(x - x_beam) <= 0.05].max()
    assert amp[np.abs(x - x_beam) > 0.05].max() > 0.8 * main


# ---------------------------------------------------------- far-field peak

def test_far_field_peak_matches_steering(cfg1024):
    r = 100.0 * cfg1024.half_aperture()
    for th in (0.0, 15 * DEG):
        exc = gaussian_excitation(cfg1024, th)
        ang = np.linspace(th - 6 * DEG, th + 6 * DEG, 1001)
        amp = [abs(field_at(cfg1024, exc, Point2(r * math.sin(a), r * math.cos(a)))) for a in ang]
        peak = ang[int(np.argmax(amp))]
        # Fresnel ripple at this range moves the apparent peak a little
        assert abs(peak - th) < 6e-3


# ------------------------------------------------------------ power budget

def test_normalize_power_identity_and_split(cfg1024):
    exc = gaussian_excitation(cfg1024, 0.0)
    same = normalize_power(exc, 1024.0)
    assert np.all(same.magnitudes == exc.magnitudes)

    act = np.zeros(1024, dtype=bool)
    act[::2] = True
    half = Excitation(np.where(act, 1.0, 0.0), np.zeros(1024))
    scaled = normalize_power(half, 1024.0)
    assert np.all(scaled.magnitudes[act] == math.sqrt(2.0))
    assert np.all(scaled.magnitudes[~act] == 0.0)


def test_normalize_power_idempotent():
    exc = Excitation([0.3, 1.7, 0.0], [0.1, -0.2, 0.0])
    once = normalize_power(exc, 2.5)
    twice = normalize_power(once, 2.5)
    assert_allclose(twice.magnitudes, once.magnitudes, rtol=1e-14)
    assert_allclose(float(np.sum(once.magnitudes**2)), 2.5, rtol=1e-14)


def test_normalize_power_errors():
    exc = Excitation([0.0], [0.0])
    with pytest.raises(ValueError):
        normalize_power(exc, 1.0)
    with pytest.raises(ValueError):
        normalize_power(Excitation([1.0], [0.0]), 0.0)


# ------------------------------------------------------------ grid + files

def test_field_grid_nodes_match_field_at():
    cfg = two_element_cfg()
    exc = gaussian_excitation(cfg, 10 * DEG)
    grid = field_grid(cfg, exc, (-0.4, 0.4), (0.5, 1.5), 3, 4)
    for ix, x in enumerate(grid.x):
        for iy, y in enumerate(grid.y):
            assert grid.values[ix, iy] == field_at(cfg, exc, Point2(x, y))


def test_field_grid_validation(monkeypatch):
    cfg = two_element_cfg()
    exc = gaussian_excitation(cfg, 0.0)
    with pytest.raises(ValueError, match=r"\(y > 0\)"):
        field_grid(cfg, exc, (0.0, 1.0), (-0.1, 1.0), 2, 2)

    def no_kernel(*args):
        raise AssertionError("the field was computed")

    # the size and range checks run before any field is computed
    monkeypatch.setattr(ulabeam.field, "field_points_per_entry", no_kernel)
    for x_range, y_range, nx, ny, message in (
        ((1.0, 0.0), (0.1, 1.0), 2, 2, "ranges must be increasing"),
        ((0.0, 1.0), (1.0, 1.0), 2, 2, "ranges must be increasing"),
        ((0.0, 1.0), (0.1, 1.0), 1, 1, "nx and ny must be >= 2"),
        ((0.0, 1.0), (0.1, 1.0), 2, -1, "nx and ny must be >= 2"),
    ):
        with pytest.raises(ValueError, match=message):
            field_grid(cfg, exc, x_range, y_range, nx, ny)


def assert_mirror_exact_axis(x, h, moved_ulps):
    """x spans [-h, h] mirror-exactly, with np.linspace's left half and ends, within moved_ulps of it."""
    n = x.size
    reference = np.linspace(-h, h, n)
    assert x[0] == -h and x[-1] == h
    assert np.array_equal(x[: n // 2].view(np.uint64), reference[: n // 2].view(np.uint64))
    assert np.array_equal(x[::-1], -x)
    if n % 2:
        assert x[n // 2].hex() == "0x0.0p+0"
    assert np.all(np.abs(x - reference) <= moved_ulps * np.spacing(h))


@pytest.mark.parametrize("h", (0.2, 0.7, 0.8, 1.5))
@pytest.mark.parametrize("n", (2, 3, 40, 80, 81, 300, 301, 2001))
def test_symmetric_grid_axes_are_mirror_exact(h, n):
    # the shipped and benchmark ranges move by at most 2 ulp of the range end
    x = field_grid(two_element_cfg(), gaussian_excitation(two_element_cfg(), 0.0), (-h, h), (0.5, 1.0), n, 2).x
    assert_mirror_exact_axis(x, h, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-8.0, 8.0), st.integers(2, 3000))
def test_any_symmetric_axis_is_mirror_exact(log_h, n):
    # node i is fl(fl(i * s) - h) with s = fl(2h / (n - 1)); a right node and
    # minus its mirror differ by the rounding of s times n - 1 (2 ulp of h),
    # of the two products (1 ulp each) and of the two sums (1/2 ulp each)
    h = 10.0**log_h
    x = grid_nodes((-h, h), (1.0, 2.0), n, 2)[0]
    assert_mirror_exact_axis(x, h, 5)
    # the y axis follows the same rule
    assert np.array_equal(grid_nodes((1.0, 2.0), (-h, h), 2, n)[1].view(np.uint64), x.view(np.uint64))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-10.0, 10.0), st.floats(1e-6, 20.0), st.integers(2, 3000))
def test_asymmetric_axes_are_linspace(lo, width, n):
    hi = lo + width
    if lo == -hi:
        hi = math.nextafter(hi, math.inf)
    x, y, _, _ = grid_nodes((lo, hi), (lo, hi), n, 2)
    assert np.array_equal(x.view(np.uint64), np.linspace(lo, hi, n).view(np.uint64))
    assert np.array_equal(y.view(np.uint64), np.linspace(lo, hi, 2).view(np.uint64))


@pytest.mark.parametrize("x_range", ((-0.7, 0.7), (-0.2, 0.5)))
def test_grid_nodes_are_the_evaluated_nodes(monkeypatch, x_range):
    cfg = two_element_cfg()
    seen = []

    def recording_kernel(cfg, entries, px, py):
        seen.append((px, py))
        return np.zeros((len(entries), px.size), dtype=complex)

    monkeypatch.setattr(ulabeam.field, "field_points_per_entry", recording_kernel)
    grid = field_grid(cfg, gaussian_excitation(cfg, 0.0), x_range, (0.5, 1.5), 81, 7)
    (px, py), = seen
    # values[ix, iy] is the field at (x[ix], y[iy])
    nodes = np.meshgrid(grid.x, grid.y, indexing="ij")
    for evaluated, node in zip((px, py), nodes):
        assert np.array_equal(evaluated.view(np.uint64), node.ravel().view(np.uint64))
    x, y, gx, gy = grid_nodes(x_range, (0.5, 1.5), 81, 7)
    assert np.array_equal(grid.x, x) and np.array_equal(grid.y, y)
    assert np.array_equal(px, gx) and np.array_equal(py, gy)
    assert np.array_equal(grid.y, np.linspace(0.5, 1.5, 7))


def _tiny_grid() -> FieldGrid:
    values = np.array(
        [[1.0 + 0.0j, 0.0 + 2.0j], [-1.0 + 0.0j, complex(math.nan, math.nan)]]
    )
    return FieldGrid(np.array([0.0, 1.0]), np.array([1.0, 2.0]), values)


def test_write_field_csv_golden(tmp_path):
    path = tmp_path / "grid.csv"
    write_field_csv(_tiny_grid(), str(path))
    expected = (
        "x,y,re,im,abs\n"
        "0.0,1.0,1.0,0.0,1.0\n"
        "1.0,1.0,-1.0,0.0,1.0\n"
        "0.0,2.0,0.0,2.0,2.0\n"
        "1.0,2.0,nan,nan,nan\n"
    )
    assert path.read_text() == expected


def test_write_field_csv_round_trip(tmp_path):
    path = tmp_path / "grid.csv"
    grid = _tiny_grid()
    write_field_csv(grid, str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    parsed = np.array([complex(float(r[2]), float(r[3])) for r in rows]).reshape(2, 2).T
    finite = np.isfinite(grid.values)
    assert np.array_equal(parsed[finite], grid.values[finite])
    assert np.all(np.isnan(parsed[~finite]))


def test_write_field_pgm_golden(tmp_path):
    path = tmp_path / "grid.pgm"
    write_field_pgm(_tiny_grid(), str(path))
    # amplitudes [[1, 2], [1, nan]] scale to [[128, 255], [128, 0]];
    # rows are written top down in y
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([255, 0, 128, 128])


# Float parts with the edge cases drawn often: signed zeros, subnormals,
# huge values whose modulus overflows, infinities and NaNs of either sign.
PARTS = st.floats() | st.sampled_from((0.0, -0.0, 5e-324, -2.2e-308, 1.7e308, -1e308, math.inf, -math.inf, math.nan))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(PARTS, PARTS), min_size=1, max_size=40))
@example([(0.0, -0.0), (-0.0, 5e-324), (5e-324, -5e-324)])
@example([(1.7e308, 1.7e308), (1e308, -1e308), (-1e308, 3e307)])
@example([(math.inf, math.nan), (math.nan, -math.inf), (-math.nan, 1.0), (math.nan, math.nan)])
def test_amplitude_is_pythons_complex_abs(parts):
    # the reported amplitude, np.hypot over arrays as the writers and the
    # metrics take it; Python's abs raises where the modulus overflows
    re, im = np.array(parts).T
    with np.errstate(over="ignore"):
        got = np.hypot(re, im).tolist()
    for (x, y), amp in zip(parts, got):
        try:
            want = abs(complex(x, y))
        except OverflowError:
            want = math.inf
        if math.isnan(want):
            assert math.isnan(amp)
        else:
            assert amp.hex() == want.hex()


CHUNK_CASES = (
    RectObstacle(0.05, -0.05, 0.2, 0.4),
    CircleObstacle(Point2(-0.04, 0.35), 0.08),
    None,
)


def test_field_points_matches_field_at():
    cfg = UlaConfig(33, 9e-3, 140e9)
    exc = gaussian_excitation(cfg, 5 * DEG)
    obstacle = CircleObstacle(Point2(-0.03, 0.35), 0.09)
    px = np.array([-0.1, -0.25, 0.05, -0.03])
    py = np.array([1.0, 0.7, 0.6, 0.35])
    values = field_points_per_entry(cfg, ((exc, obstacle),), px, py)[0]
    for x, y, v in zip(px[:3], py[:3], values[:3]):
        assert v == field_at(cfg, exc, Point2(x, y), obstacle)
    assert np.isnan(values[3])
    with pytest.raises(ValueError):
        field_points_per_entry(cfg, ((exc, obstacle),), px, py[:2])
    with pytest.raises(ValueError):
        field_points_per_entry(cfg, ((exc, obstacle),), np.array([math.inf]), np.array([1.0]))


def random_excitation(draw, n: int) -> Excitation:
    """n random magnitudes and phases, some zero-magnitude (undriven) elements or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitudes = rng.uniform(0.0, 1.0, n)
    # two independent draws of undriven elements
    for _ in range(2):
        if draw(st.booleans()):
            magnitudes[rng.random(n) < 0.2] = 0.0
    return Excitation(magnitudes, rng.uniform(-math.pi, math.pi, n))


@st.composite
def per_obstacle_case(draw):
    """An array, a random excitation, 1-4 obstacles and points to evaluate.

    The excitation may have undriven (zero-magnitude) elements, or none.

    Obstacles are rects, circles, free space (None) and walls that hide the
    whole aperture; the points hold each obstacle's y-band and interior
    points, points above each wall, and free points. Returns the points
    above walls as (obstacle index, point index) pairs.
    """
    unit = st.floats(0.0, 1.0)
    n = draw(st.one_of(st.sampled_from((2, 3)), st.integers(2, 80)))
    cfg = UlaConfig(n, draw(st.floats(1e-4, 1e-2)), 140e9)
    exc = random_excitation(draw, n)
    obstacles, points, hidden = [], [], []
    for j in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("rect", "circle", "wall", "none")))
        if kind == "none":
            obstacles.append(None)
            continue
        if kind == "circle":
            radius = draw(st.floats(0.005, 0.3))
            center = Point2(draw(st.floats(-0.4, 0.4)), radius + draw(st.floats(0.01, 0.8)))
            obstacles.append(CircleObstacle(center, radius))
            band = (center.y - radius, center.y + radius)
            inside = (center.x + 0.5 * radius * draw(unit), center.y)
        else:
            # a wall spans x in [-1, 1], past every aperture (half-width <= 0.4 m)
            x_r2 = -1.0 if kind == "wall" else draw(st.floats(-0.4, 0.3))
            width = 2.0 if kind == "wall" else draw(st.floats(0.005, 0.4))
            y_n = draw(st.floats(0.02, 0.8))
            obstacle = RectObstacle(x_r2 + width, x_r2, y_n, y_n + draw(st.floats(0.005, 0.5)))
            obstacles.append(obstacle)
            band = (obstacle.y_n, obstacle.y_f)
            inside = (x_r2 + width * draw(unit), y_n + (obstacle.y_f - y_n) * draw(unit))
        points += [(draw(st.floats(-1.0, 1.0)), band[0] + (band[1] - band[0]) * draw(unit)), inside]
        if kind == "wall":
            hidden.append((j, len(points)))
            points.append((draw(st.floats(-0.5, 0.5)), band[1] + draw(st.floats(0.01, 1.0))))
    for _ in range(draw(st.integers(1, 3))):
        points.append((draw(st.floats(-1.0, 1.0)), draw(st.floats(0.001, 2.0))))
    px, py = (np.array(c) for c in zip(*points))
    return cfg, exc, obstacles, px, py, hidden


def assert_matches_element_oracle(cfg, exc, obstacle, px, py, values):
    """values equal the element-by-element oracle to 1e-12 of sum(gamma / r), ties aside."""
    xs, k = cfg.element_xs(), cfg.wavenumber()
    # 1e-12 of sum(gamma / r), plus the phase rounding of both sums: each
    # rounds k r_n (up to about 6000 rad here) to a few ulps, which alone
    # reaches 2e-12 of sum(gamma / r) at a far point with one active element
    phase_rounding = 4 * np.finfo(float).eps * k * exc.magnitudes.sum()
    want, scale = field_by_elements(xs, k, exc.magnitudes, exc.phases, obstacle, px, py)
    assert np.array_equal(np.isnan(values), np.isnan(want))
    # a point whose visibility changes when it or an element moves 1e-9 m
    # sideways is a tie (the oracle rounds there): either answer holds
    visible = visible_pairs(obstacle, xs, px, py)
    check = np.isfinite(want)
    for shift in (-1e-9, 1e-9):
        check &= np.all(visible == visible_pairs(obstacle, xs + shift, px, py), axis=1)
        check &= np.all(visible == visible_pairs(obstacle, xs, px + shift, py), axis=1)
    assert np.all(np.abs(values - want)[check] <= 1e-12 * scale[check] + phase_rounding)



def mirrored_silence(exc: Excitation) -> Excitation:
    """exc with every element undriven whose mirror image is undriven."""
    silent = exc.magnitudes == 0.0
    return Excitation(np.where(silent | silent[::-1], 0.0, exc.magnitudes), exc.phases)


def mirrored(cfg, entries, px, py, hidden=()):
    """A mirrored_case value: the points, then the exact mirror (-x, y) of each point off x = 0."""
    px, py = np.array(px, dtype=float), np.array(py, dtype=float)
    off_axis = px != 0.0
    return cfg, entries, px, py, np.concatenate((px, -px[off_axis])), np.concatenate((py, py[off_axis])), list(hidden)


@st.composite
def mirrored_case(draw):
    """An array, 1-6 (excitation, obstacle) entries and points with their mirrors.

    The entries hold every obstacle of per_obstacle_case once and up to two
    of them again, each with one of one to three excitations, so two
    entries may share their excitation, their obstacle, both or neither.
    The undriven elements of the excitations are mirror-symmetric or drawn
    at random (usually not). The points are per_obstacle_case's; the exact
    mirror (-x, y) of every point off x = 0 is appended, and a few points
    may appear twice. Returns (cfg, entries, px, py, qx, qy, hidden): px,
    py the points, qx, qy all points evaluated, and hidden the points above
    walls as (entry index, point index) pairs.
    """
    cfg, exc, obstacles, px, py, above_walls = draw(per_obstacle_case())
    excitations = [exc, *(random_excitation(draw, cfg.n_elements) for _ in range(draw(st.integers(0, 2))))]
    if draw(st.booleans()):
        excitations = [mirrored_silence(e) for e in excitations]
    # every obstacle once, then up to two more
    picks = [*range(len(obstacles)), *draw(st.lists(st.integers(0, len(obstacles) - 1), max_size=2))]
    entries = [(draw(st.sampled_from(excitations)), obstacles[j]) for j in picks]
    hidden = [(t, i) for t, j in enumerate(picks) for wall, i in above_walls if wall == j]
    cfg, entries, px, py, qx, qy, hidden = mirrored(cfg, entries, px, py, hidden)
    twice = draw(st.lists(st.integers(0, qx.size - 1), max_size=3))
    return cfg, entries, px, py, np.append(qx, qx[twice]), np.append(qy, qy[twice]), hidden


def assert_entry_rows_keep_their_bits(case):
    """A mirrored_case's rows equal the dense reference, one-entry calls and calls on parts of the points."""
    cfg, entries, px, py, qx, qy, hidden = case
    want = dense_field(cfg.element_xs(), cfg.wavenumber(), entries, qx, qy)
    # points equal up to the sign of x pair at least once
    assert ulabeam.field._mirror_pairs(qx, qy)[0].size >= len({(abs(x), y) for x, y in zip(px, py) if x != 0})
    with pytest.MonkeyPatch.context() as mp:
        for chunk_pairs in (1, 7, 16_384, 65_536, 10**9):
            mp.setattr(ulabeam.field, "_CHUNK_PAIRS", chunk_pairs)
            rows = field_points_per_entry(cfg, entries, qx, qy)
            assert rows.shape == (len(entries), qx.size)
            # equal bits: equal values, NaN positions and signs of zero
            assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))
    # each entry alone, the points without their mirrors and the appended points alone
    for entry, row in zip(entries, rows):
        alone = field_points_per_entry(cfg, [entry], qx, qy)[0]
        assert np.array_equal(alone.view(np.uint64), row.view(np.uint64))
    for points in (slice(None, px.size), slice(px.size, None)):
        part = field_points_per_entry(cfg, entries, qx[points], qy[points])
        assert np.array_equal(part.view(np.uint64), rows[:, points].view(np.uint64))
    # A wall hides every element, so the point sums w = +0 terms: its bits,
    # signs of zero included, are those of an excitation of zero magnitude.
    dark = Excitation(np.zeros(cfg.n_elements), np.zeros(cfg.n_elements))
    for t, i in hidden:
        zero = field_points_per_entry(cfg, ((dark, None),), qx[i : i + 1], qy[i : i + 1])[0]
        assert zero[0] == 0.0
        assert np.array_equal(rows[t, i : i + 1].view(np.uint64), zero.view(np.uint64))
    for (exc, obstacle), row in zip(entries, rows):
        assert_matches_element_oracle(cfg, exc, obstacle, qx, qy, row)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mirrored_case())
# no points: every row is empty
@example(
    mirrored(
        UlaConfig(4, 1e-3, 140e9),
        [(Excitation(np.ones(4), np.zeros(4)), obstacle) for obstacle in (RectObstacle(0.1, -0.1, 0.2, 0.4), None)],
        [],
        [],
    )
)
def test_entry_rows_match_dense_reference_and_single_entry_calls(case):
    assert_entry_rows_keep_their_bits(case)


def test_per_obstacle_rows_match_single_obstacle_calls():
    exc = Excitation(np.linspace(1.0, 0.25, 16), np.linspace(-2.0, 2.0, 16))
    # two rects that hide different runs of the same points, then free space:
    # each obstacle must see the chunk's rows without an earlier one's zeros
    obstacles = (RectObstacle(0.004, -0.002, 0.1, 0.2), RectObstacle(0.001, -0.005, 0.3, 0.35), None)
    assert_entry_rows_keep_their_bits(
        mirrored(
            UlaConfig(16, 1e-3, 140e9),
            [(exc, obstacle) for obstacle in obstacles],
            [0.0, 0.001, -0.003, 0.003, -0.002],
            [1.0, 0.8, 0.9, 0.9, 1.5],
        )
    )
    # a wall that hides every element, then a rect that hides a few
    obstacles = (RectObstacle(1.0, -1.0, 0.05, 0.1), RectObstacle(0.004, -0.002, 0.3, 0.4))
    assert_entry_rows_keep_their_bits(
        mirrored(
            UlaConfig(16, 1e-3, 140e9),
            [(exc, obstacle) for obstacle in obstacles],
            [0.0, 0.001, -0.003, 0.003, 0.2],
            [1.0, 0.8, 0.9, 0.9, 0.07],
            [(0, 0), (0, 1), (0, 2), (0, 3)],
        )
    )


def test_per_obstacle_rows_match_dense_reference_bit_for_bit():
    # undriven elements, an excitation that drives none, a wall that hides
    # the whole aperture from four points, one of them inside a circle
    exc = Excitation(np.where(np.arange(16) % 5 == 2, 0.0, np.linspace(0.3, 1.0, 16)), np.linspace(-1.0, 3.0, 16))
    silent = Excitation(np.zeros(16), np.zeros(16))
    obstacles = (RectObstacle(1.0, -1.0, 0.2, 0.25), CircleObstacle(Point2(0.002, 0.5), 0.01), None)
    assert_entry_rows_keep_their_bits(
        mirrored(
            UlaConfig(16, 1e-3, 140e9),
            [*((exc, obstacle) for obstacle in obstacles), (silent, None)],
            [0.0, 0.004, -0.01, 0.002, 0.3],
            [0.4, 0.6, 0.7, 0.5, 0.1],
            [(0, 0), (0, 1), (0, 2), (0, 3)],
        )
    )


def test_mirrored_points_keep_the_bits_of_the_call_without_them():
    # the left three of eight elements driven, and a slab that hides them from
    # points near the axis: those see no driven element under the slab, but
    # all of them in free space, and their mirrors are hidden too
    exc = Excitation([1.0, 0.5, 0.25, 0, 0, 0, 0, 0], [0.3, -1.0, 2.0, 0, 0, 0, 0, 0])
    assert_entry_rows_keep_their_bits(
        mirrored(
            UlaConfig(8, 1e-3, 140e9),
            [(exc, obstacle) for obstacle in (RectObstacle(-0.0009, -1.0, 0.001, 0.01), None)],
            [0.01, 0.002, 0.3, -0.004],
            [1.0, 0.5, 0.05, 0.02],
        )
    )


def assert_grid_and_cut_match_reference(obstacles):
    """Check one 1,024-element call on a grid and a steered cut point by point; return the cut's points."""
    cfg = UlaConfig(1024, 1.07e-3, 140e9)
    exc = gaussian_excitation(cfg, 10 * DEG)
    grid = ((-0.3, 0.3), (0.05, 1.0), 21, 17)
    _, _, gx, gy = grid_nodes(*grid)
    d = 1.2 * np.arange(1, 41) / 40
    px = np.concatenate((gx, d * math.sin(10 * DEG)))
    py = np.concatenate((gy, d * math.cos(10 * DEG)))
    default = ulabeam.field._CHUNK_PAIRS
    # at least 4 chunks at the default size: partners ride in their representatives' chunks
    assert (px.size - ulabeam.field._mirror_pairs(px, py)[0].size) * cfg.n_elements >= 4 * default
    entries = [(exc, obstacle) for obstacle in obstacles]
    want = dense_field(cfg.element_xs(), cfg.wavenumber(), entries, px, py)
    inside = np.array([inside_obstacle(obstacle, px, py) for obstacle in obstacles])
    assert all(inside[j, : gx.size].any() for j, obstacle in enumerate(obstacles) if obstacle is not None)
    with pytest.MonkeyPatch.context() as mp:
        # a reintroduced thread pool fails here
        mp.setattr(threading.Thread, "start", lambda thread: pytest.fail("a thread was started"))
        for chunk_pairs in (1, 7, default):
            mp.setattr(ulabeam.field, "_CHUNK_PAIRS", chunk_pairs)
            rows = field_points_per_entry(cfg, entries, px, py)
            # equal bits: equal values, NaN positions and signs of zero
            assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))
        for obstacle, row in zip(obstacles, rows):
            values = field_grid(cfg, exc, *grid, obstacle).values.ravel()
            assert np.array_equal(values.view(np.uint64), row[: gx.size].view(np.uint64))
        assert np.all(np.isnan(rows[inside]))
        for i in range(px.size):
            alone = field_points_per_entry(cfg, entries, px[i : i + 1], py[i : i + 1])[:, 0]
            outside = ~inside[:, i]
            assert np.array_equal(rows[outside, i].view(np.uint64), alone[outside].view(np.uint64))
    return px[gx.size :], py[gx.size :]


def test_grid_and_cut_in_one_call_match_the_reference_point_by_point():
    # A grid's chunks share one x or a few, a steered cut's x all differ, and
    # the chunk of the grid's x = 0 column holds cut points too.
    rect, circle = RectObstacle(0.12, 0.02, 0.3, 0.6), CircleObstacle(Point2(-0.1, 0.5), 0.08)
    cx, cy = assert_grid_and_cut_match_reference((rect,))
    # the cut crosses the rect
    assert inside_obstacle(rect, cx, cy).sum() >= 10
    assert_grid_and_cut_match_reference((rect, circle))


def test_chunked_grid_evaluation_is_bitwise_stable():
    # several obstacles and free space in one call over at least 4 chunks
    assert_grid_and_cut_match_reference(CHUNK_CASES)


def test_point_whose_distance_overflows_is_rejected():
    # (x - x_n)^2 overflows to inf at x = 1e155 m, and y^2 at y = 1e160 m
    cfg = UlaConfig(16, 1e-3, 140e9)
    exc = Excitation(np.where(np.arange(16) > 3, 1.0, 0.0), np.zeros(16))
    entries = [(exc, RectObstacle(0.01, -0.01, 0.1, 0.2)), (exc, None)]
    message = "within about 1e154 m"
    for px, py in (([0.0, 1e155], [1.0, 1.0]), ([0.0, 0.0], [1.0, 1e160]), ([-1e155], [1.0])):
        with pytest.raises(ValueError, match=message):
            field_points_per_entry(cfg, entries, np.array(px), np.array(py))
        with pytest.raises(ValueError, match=message):
            field_points_per_entry(cfg, (), np.array(px), np.array(py))
    with pytest.raises(ValueError, match=message):
        field_at(cfg, exc, Point2(1e155, 1.0))
    with pytest.raises(ValueError, match=message):
        field_grid(cfg, exc, (1e155, 2e155), (1.0, 2.0), 3, 3)
    with pytest.raises(ValueError, match=message):
        line_cut(cfg, exc, 0.0, 1e160, 10)
    # the largest representable distances still evaluate
    values = field_points_per_entry(cfg, entries, np.array([1e153, 0.0]), np.array([1.0, 1e153]))
    assert np.all(np.isfinite(values))


def test_point_on_an_element_is_rejected():
    # y^2 underflows to 0 at y = 1e-200, so the distance to element 2 (x = 0) would be 0
    cfg = UlaConfig(3, 1e-3, 140e9)
    exc = gaussian_excitation(cfg, 0.0)
    message = "at least about 1e-154 m from every element"
    for x in cfg.element_xs():
        with pytest.raises(ValueError, match=message):
            field_points_per_entry(cfg, ((exc, None),), np.array([0.5, x]), np.array([1.0, 1e-200]))
        with pytest.raises(ValueError, match=message):
            field_at(cfg, exc, Point2(x, 1e-200))
    with pytest.raises(ValueError, match=message):
        field_points_per_entry(cfg, (), np.array([0.0]), np.array([1e-160]))
    with pytest.raises(ValueError, match=message):
        line_cut(cfg, exc, 0.0, 1e-200, 2)
    # between elements, and just far enough above one, the field is finite
    values = field_points_per_entry(cfg, ((exc, None),), np.array([5e-4, 0.0, -1e-3]), np.array([1e-200, 1e-153, 2e-154]))
    assert np.all(np.isfinite(values))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(2, 40),
    st.floats(1e-200, 1e-2),
    st.integers(-3, 44),
    st.floats(-1.0, 1.0),
    st.floats(1e-320, 1e-150),
)
# just left of element 3, where the next element down is far enough
@example(3, 1e-153, 3, -0.5, 1e-155)
def test_point_rejected_iff_some_squared_distance_is_not_normal(n, spacing, index, offset, py):
    # the point sits offset * py beside element `index` (an index past either end is off the array)
    cfg = UlaConfig(n, spacing, 140e9)
    xs = cfg.element_xs()
    px = (-n + 2 * index - 1) / 2.0 * spacing + offset * py
    # the kernel's r^2 on every pair
    r2 = (px - xs) ** 2 + py * py
    exc = gaussian_excitation(cfg, 0.0)
    if r2.min() >= np.finfo(float).tiny:
        assert np.all(np.isfinite(field_points_per_entry(cfg, ((exc, None),), np.array([px]), np.array([py]))))
    else:
        with pytest.raises(ValueError, match="from every element"):
            field_points_per_entry(cfg, ((exc, None),), np.array([px]), np.array([py]))


@st.composite
def checked_point(draw):
    """An array and one point: far off, beside the array, between or right above elements."""
    n = draw(st.sampled_from([2, 3, 1024]) | st.integers(2, 64))
    spacing = 10.0 ** draw(st.floats(-200.0, 160.0))
    xs = UlaConfig(n, spacing, 140e9).element_xs()
    kind = draw(st.sampled_from(["far", "beside", "between", "above"]))
    if kind == "far":
        px = draw(st.sampled_from([1e160, -1e160, 0.0]))
        py = draw(st.sampled_from([1.0, 1e160]))
    elif kind == "beside":
        px = draw(st.sampled_from([xs[0], xs[-1]])) + draw(st.floats(-3.0, 3.0)) * spacing
        py = 10.0 ** draw(st.floats(-200.0, 160.0))
    else:
        # a log-uniform fraction of the spacing to either side of an element, or none
        index = draw(st.integers(0, n - 1))
        offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-200.0, 0.0)) if kind == "between" else 0.0
        px = xs[index] + offset * spacing
        py = 10.0 ** draw(st.floats(-200.0, 0.0))
    return n, spacing, float(px), float(py)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(checked_point())
@example((1024, 1e-3, 1e160, 1.0))
@example((3, 1e-3, 0.0, 1e-200))
@example((2, 1e155, 0.0, 1.0))
# 1e-160 m right of element 2 of 4, whose right neighbours are much farther
@example((4, 1e-150, -0.5e-150 + 1e-160, 1e-200))
def test_input_checks_match_brute_force_distances(case):
    n, spacing, px, py = case
    cfg = UlaConfig(n, spacing, 140e9)
    # the squared distance to every element, as the kernel computes it
    with np.errstate(over="ignore"):
        r2 = (px - cfg.element_xs()) ** 2 + py * py
    if not np.isfinite(r2.max()):
        expected = "within about 1e154 m"
    elif r2.min() < np.finfo(float).tiny:
        expected = "at least about 1e-154 m"
    else:
        expected = None
    try:
        field_points_per_entry(cfg, (), np.array([px]), np.array([py]))
    except ValueError as e:
        assert expected is not None and expected in str(e)
    else:
        assert expected is None


def test_no_obstacles_give_an_empty_result_without_evaluating(monkeypatch):
    cfg = UlaConfig(1024, 1.07e-3, 140e9)
    exc = gaussian_excitation(cfg, 5 * DEG)
    px, py = np.linspace(-0.3, 0.3, 6400), np.linspace(0.1, 1.0, 6400)
    # a call that went on to evaluate would put its points in chunk order
    def refuse(*args):
        raise AssertionError("a chunk was run")

    monkeypatch.setattr(ulabeam.field, "_chunk_order", refuse)
    rows = field_points_per_entry(cfg, (), px, py)
    assert rows.shape == (0, 6400) and rows.dtype == complex
    with pytest.raises(ValueError):
        field_points_per_entry(cfg, (), px, -py)
    with pytest.raises(ValueError):
        field_points_per_entry(cfg, (), px, py[:5])


# ------------------------------------------------- blocked runs, oracles

@st.composite
def obstacle_and_points(draw):
    """A random rect or circle and up to 8 exterior points, some in its y-band."""
    unit = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        x_r2 = draw(st.floats(-0.4, 0.3))
        y_n = draw(st.floats(0.02, 0.8))
        obstacle = RectObstacle(x_r2 + draw(st.floats(0.005, 0.4)), x_r2, y_n, y_n + draw(st.floats(0.005, 0.5)))
        band = (obstacle.y_n, obstacle.y_f)
    else:
        radius = draw(st.floats(0.005, 0.3))
        center = Point2(draw(st.floats(-0.4, 0.4)), radius + draw(st.floats(0.01, 0.8)))
        obstacle = CircleObstacle(center, radius)
        band = (center.y - radius, center.y + radius)
    points = []
    for _ in range(draw(st.integers(1, 8))):
        px = draw(st.floats(-1.0, 1.0))
        kind = draw(st.sampled_from(("band", "edge", "free")))
        if kind == "band":
            py = band[0] + (band[1] - band[0]) * draw(unit)
        elif kind == "edge":
            py = draw(st.sampled_from(band))
        else:
            py = draw(st.floats(0.001, 2.0))
        points.append((px, py))
    return obstacle, points


@settings(max_examples=300, deadline=None, derandomize=True)
@given(obstacle_and_points(), st.integers(2, 200), st.floats(1e-4, 1e-2))
# the point sits within rounding of the corner (0, 1.0): element 0's sight
# segment ends at the point's own x, left of the obstacle
@example((RectObstacle(0.25, 0.0, 0.5, 1.0), [(-9.78e-132, 1.0)]), 2, 7.8125e-3)
def test_blocked_run_matches_pairwise_oracle(case, n_elements, spacing):
    obstacle, points = case
    xs = UlaConfig(n_elements, spacing, 140e9).element_xs()
    px = np.array([p[0] for p in points])
    py = np.array([p[1] for p in points])
    keep = ~inside_obstacle(obstacle, px, py) & (py > 0)
    px, py = px[keep], py[keep]
    lo, hi = _blocked_runs(obstacle, xs, px, py)
    index = np.arange(xs.size)
    run_visible = (index < lo[:, np.newaxis]) | (index >= hi[:, np.newaxis])
    visible = visible_pairs(obstacle, xs, px, py)
    # elements within 1e-9 m of a visibility change are ties: either answer holds
    clear = (visible == visible_pairs(obstacle, xs - 1e-9, px, py)) & (
        visible == visible_pairs(obstacle, xs + 1e-9, px, py)
    )
    assert np.array_equal(run_visible[clear], visible[clear])


SIMULATE_SCENES = (
    "bessel_axis",
    "bessel_steered",
    "self_healing_cuboid",
    "self_healing_cylinder",
    "curving_centered_cuboid",
    "smoke_two_element",
)


@pytest.mark.parametrize("scene", SIMULATE_SCENES)
def test_simulate_matches_element_loop_oracle(tmp_path, scene):
    tolerance = 1e-12  # of sum(gamma / r) at each node, fixed in advance
    path = str(SCENARIOS / f"{scene}.yaml")
    assert main(["synthesize", "--scenario", path, "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--grid", "60,60", "--scenario", path, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "excitation.csv") as fh:
        exc = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    with open(tmp_path / "field.csv") as fh:
        nodes = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    scenario = load_scenario(path)
    gamma = exc[:, 2] * exc[:, 4]
    want, scale = field_by_elements(
        exc[:, 1], scenario["cfg"].wavenumber(), gamma, exc[:, 3], scenario["obstacle"], nodes[:, 0], nodes[:, 1]
    )
    got = nodes[:, 2] + 1j * nodes[:, 3]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got - want)[finite] <= tolerance * scale[finite])
