"""Scalar field evaluation, excitation families, occlusion, serialization.

Proves:
 - Excitation sanitizes inactive slots, rejects bad shapes and non-finite
   active entries, and is immutable
 - gaussian / focusing excitations follow their closed forms; the focusing
   phases converge to the linear-steering phases for a very distant focus;
   a focused beam beats every other family at its own focus at equal power
 - field values obey the one-term and two-term closed forms, the 1/r law,
   and superposition to 1e-12
 - hard-shadow occlusion zeroes a fully shadowed point, matches manual
   element removal bit for bit, and marks obstacle-interior samples NaN
 - on-axis cuts show the steered knee at d_max, residual one-sided reach
   to d_lim, shadow-then-recovery behind an obstacle, and doubling the
   element spacing past the sampling bound injects interference on axis
 - the blocked run per point equals the pair-by-pair sight-line oracle on
   every element not within 1e-9 m of a tie, for random rects, circles and
   points (y-band points included)
 - every shipped simulate scene matches the element-by-element oracle sum
   to 1e-12 of sum(gamma / r)
 - CSV / PGM serialization produces frozen bytes and survives a round trip
 - grid evaluation is bitwise identical under any chunk size and any number
   of worker threads, also under rapid thread switching
"""

import csv
import io
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import field_by_elements, inside_obstacle, visible_pairs

import ulabeam.field
from ulabeam import (
    AvoidanceScenario,
    BesselDesign,
    CircleObstacle,
    Excitation,
    FieldGrid,
    OcclusionModel,
    Point2,
    RectObstacle,
    UlaConfig,
    bessel_phases,
    field_at,
    field_grid,
    field_points,
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
from ulabeam.field import _blocked_runs

DEG = math.pi / 180.0
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def two_element_cfg() -> UlaConfig:
    return UlaConfig(2, 0.5, 1e9)


# -------------------------------------------------------------- excitation

def test_excitation_zeroes_inactive_slots():
    exc = Excitation([2.0, math.nan], [0.3, math.inf], [True, False])
    assert exc.magnitudes[1] == 0.0 and exc.phases[1] == 0.0
    assert exc.magnitudes[0] == 2.0 and exc.phases[0] == 0.3
    assert exc.n_elements == 2


def test_excitation_rejects_bad_input():
    with pytest.raises(ValueError):
        Excitation([1.0, 1.0], [0.0], [True, True])
    with pytest.raises(ValueError):
        Excitation([-1.0], [0.0], [True])
    with pytest.raises(ValueError):
        Excitation([1.0], [math.nan], [True])


def test_excitation_is_immutable():
    exc = Excitation([1.0], [0.0], [True])
    with pytest.raises(ValueError):
        exc.magnitudes[0] = 2.0


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
    exc = Excitation([1.0, 1.0], [0.0, 0.0], [True, False])
    p = Point2(cfg.element_x(1), 2.0)
    r = 2.0
    val = field_at(cfg, exc, p)
    assert_allclose(val, np.exp(-1j * cfg.wavenumber() * r) / r, rtol=1e-12)


def test_one_over_r_law_random_points():
    cfg = two_element_cfg()
    exc = Excitation([1.0, 0.0], [0.0, 0.0], [True, False])
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = Point2(rng.uniform(-3, 3), rng.uniform(0.1, 5.0))
        r = math.hypot(p.x - cfg.element_x(1), p.y)
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
    act = np.ones(16, dtype=bool)
    e1 = Excitation(np.abs(c1), np.angle(c1), act)
    e2 = Excitation(np.abs(c2), np.angle(c2), act)
    e3 = Excitation(np.abs(c1 + c2), np.angle(c1 + c2), act)
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
        field_at(cfg, Excitation([1.0], [0.0], [True]), Point2(0.0, 1.0))


# --------------------------------------------------------------- occlusion

def test_fully_shadowed_point_is_exactly_zero():
    cfg = two_element_cfg()
    exc = gaussian_excitation(cfg, 0.0)
    occ = OcclusionModel(RectObstacle(10.0, -10.0, 0.4, 0.6))
    assert field_at(cfg, exc, Point2(0.0, 1.0), occ) == 0.0


def test_interior_point_rejected_and_grid_gets_nan():
    cfg = two_element_cfg()
    exc = gaussian_excitation(cfg, 0.0)
    occ = OcclusionModel(RectObstacle(0.2, -0.2, 0.4, 0.6))
    with pytest.raises(ValueError):
        field_at(cfg, exc, Point2(0.0, 0.5), occ)
    grid = field_grid(cfg, exc, (-0.3, 0.3), (0.3, 0.7), 7, 9, occ)
    gx, gy = np.meshgrid(grid.x_coords(), grid.y_coords(), indexing="ij")
    inside = (gx >= -0.2) & (gx <= 0.2) & (gy >= 0.4) & (gy <= 0.6)
    assert np.all(np.isnan(grid.values[inside]))
    assert np.all(np.isfinite(grid.values[~inside]))


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
    occ = OcclusionModel(obstacle)
    for p in points:
        visible = np.array(
            [not _segment_hits_obstacle(obstacle, x_e, p) for x_e in cfg.element_xs()]
        )
        assert 0 < visible.sum() < cfg.n_elements
        manual = Excitation(exc.magnitudes, exc.phases, exc.active & visible)
        assert field_at(cfg, exc, p, occ) == field_at(cfg, manual, p)


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
    occ = OcclusionModel(RectObstacle(0.14, -0.14, 0.10, 0.57))
    cut = line_cut(cfg1024, exc, 0.0, 1.3, 1300, occ)
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
    x = grid.x_coords()
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
    half = Excitation(np.ones(1024), np.zeros(1024), act)
    scaled = normalize_power(half, 1024.0)
    assert np.all(scaled.magnitudes[act] == math.sqrt(2.0))
    assert np.all(scaled.magnitudes[~act] == 0.0)


def test_normalize_power_idempotent():
    exc = Excitation([0.3, 1.7, 0.0], [0.1, -0.2, 0.0], [True, True, False])
    once = normalize_power(exc, 2.5)
    twice = normalize_power(once, 2.5)
    assert_allclose(twice.magnitudes, once.magnitudes, rtol=1e-14)
    assert_allclose(float(np.sum(once.magnitudes**2)), 2.5, rtol=1e-14)


def test_normalize_power_errors():
    exc = Excitation([1.0], [0.0], [False])
    with pytest.raises(ValueError):
        normalize_power(exc, 1.0)
    with pytest.raises(ValueError):
        normalize_power(Excitation([1.0], [0.0], [True]), 0.0)


# ------------------------------------------------------------ grid + files

def test_field_grid_nodes_match_field_at():
    cfg = two_element_cfg()
    exc = gaussian_excitation(cfg, 10 * DEG)
    grid = field_grid(cfg, exc, (-0.4, 0.4), (0.5, 1.5), 3, 4)
    for ix, x in enumerate(grid.x_coords()):
        for iy, y in enumerate(grid.y_coords()):
            assert grid.values[ix, iy] == field_at(cfg, exc, Point2(x, y))


def test_field_grid_validation():
    vals = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        FieldGrid((0.0, 1.0), (-0.1, 1.0), 2, 2, vals)
    with pytest.raises(ValueError):
        FieldGrid((1.0, 0.0), (0.1, 1.0), 2, 2, vals)
    with pytest.raises(ValueError):
        FieldGrid((0.0, 1.0), (0.1, 1.0), 2, 3, vals)
    with pytest.raises(ValueError):
        FieldGrid((0.0, 1.0), (0.1, 1.0), 1, 1, np.zeros((1, 1), dtype=complex))


def _tiny_grid() -> FieldGrid:
    values = np.array(
        [[1.0 + 0.0j, 0.0 + 2.0j], [-1.0 + 0.0j, complex(math.nan, math.nan)]]
    )
    return FieldGrid((0.0, 1.0), (1.0, 2.0), 2, 2, values)


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


CHUNK_CASES = (
    OcclusionModel(RectObstacle(0.05, -0.05, 0.2, 0.4)),
    OcclusionModel(CircleObstacle(Point2(-0.04, 0.35), 0.08)),
    None,
)


def _chunk_case_grid(occ) -> np.ndarray:
    # 1024 elements on a 31 x 23 grid: 6 chunks at the default chunk size
    cfg = UlaConfig(1024, 1.07e-3, 140e9)
    exc = gaussian_excitation(cfg, 5 * DEG)
    return field_grid(cfg, exc, (-0.3, 0.3), (0.1, 1.0), 31, 23, occ).values


def test_chunked_grid_evaluation_is_bitwise_stable(monkeypatch):
    cfg = UlaConfig(16, 1.1e-3, 140e9)
    exc = gaussian_excitation(cfg, 5 * DEG)
    occ = OcclusionModel(RectObstacle(0.05, -0.05, 0.2, 0.4))
    whole = field_grid(cfg, exc, (-0.3, 0.3), (0.1, 1.0), 11, 13, occ)
    defaults = [_chunk_case_grid(occ) for occ in CHUNK_CASES]
    assert 31 * 23 * 1024 >= 4 * ulabeam.field._CHUNK_PAIRS
    monkeypatch.setattr(ulabeam.field, "_CHUNK_PAIRS", 7)
    pieces = field_grid(cfg, exc, (-0.3, 0.3), (0.1, 1.0), 11, 13, occ)
    finite = np.isfinite(whole.values)
    assert np.array_equal(whole.values[finite], pieces.values[finite])
    assert np.array_equal(finite, np.isfinite(pieces.values))
    for occ, default in zip(CHUNK_CASES, defaults):
        assert np.array_equal(default, _chunk_case_grid(occ), equal_nan=True)
    monkeypatch.setattr(ulabeam.field, "_workers", lambda: 1)
    for occ, default in zip(CHUNK_CASES, defaults):
        assert np.array_equal(default, _chunk_case_grid(occ), equal_nan=True)


def test_threaded_chunks_match_one_chunk_under_rapid_switching(monkeypatch):
    monkeypatch.setattr(ulabeam.field, "_CHUNK_PAIRS", 10**12)
    references = [_chunk_case_grid(occ) for occ in CHUNK_CASES]
    monkeypatch.setattr(ulabeam.field, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5.0
        for chunk_pairs in (1, 1024, 3 * 1024, 7 * 1024):
            monkeypatch.setattr(ulabeam.field, "_CHUNK_PAIRS", chunk_pairs)
            for occ, reference in zip(CHUNK_CASES, references):
                assert np.array_equal(reference, _chunk_case_grid(occ), equal_nan=True)
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)


def test_field_points_matches_field_at():
    cfg = UlaConfig(33, 9e-3, 140e9)
    exc = gaussian_excitation(cfg, 5 * DEG)
    occ = OcclusionModel(CircleObstacle(Point2(-0.03, 0.35), 0.09))
    px = np.array([-0.1, -0.25, 0.05, -0.03])
    py = np.array([1.0, 0.7, 0.6, 0.35])
    values = field_points(cfg, exc, px, py, occ)
    for x, y, v in zip(px[:3], py[:3], values[:3]):
        assert v == field_at(cfg, exc, Point2(x, y), occ)
    assert np.isnan(values[3])
    with pytest.raises(ValueError):
        field_points(cfg, exc, px, py[:2], occ)
    with pytest.raises(ValueError):
        field_points(cfg, exc, np.array([math.inf]), np.array([1.0]), occ)


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
