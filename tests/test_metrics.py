"""Coverage statistics over a positioning error box.

Proves:
- ErrorBox validates its shape and samples a deterministic uniform grid;
  a box centred on x = 0 is mirror-exact, for odd and even nx, so every
  sample off x = 0 meets its mirror in the field kernel.
- The mean box amplitude over a shrunken box converges to the point
  amplitude, and over a distant box the field is nearly constant.
- Obstacle-interior samples are excluded from box amplitudes and their
  mean; a box buried inside the obstacle is rejected.
- One evaluation of a scenario set gives, entry by entry, exactly the box
  amplitudes of the single-obstacle call, a buried box's empty one
  included, and exactly the user amplitude, NaN where an obstacle holds
  the user.
- Every amplitude scenario_amplitudes reports, at the box samples and at
  the user, is Python's complex abs of the kernel value, bit for bit.
- scenario_amplitudes rejects an empty scenario set and unequal power
  budgets across entries, and keeps the (excitation, obstacle) entries in
  order; pooling the entries' box amplitudes keeps every sample of every
  scenario.
- With the user at the box center and odd sample counts, the point
  amplitude is bracketed by the box min and max.
- Frozen free-space mean box amplitudes rank focusing > Bessel > curving >
  plain steering for equal radiated power.
- Pooled amplitude CDFs: per-obstacle curving plans dominate a fixed
  focused beam across the four frozen obstacle positions.
- empirical_cdf reproduces hand-computed step functions, is monotone,
  ends at 1, and rejects degenerate input.
- Every sample count (UlaConfig's n_elements, ErrorBox's nx, field_grid's
  ny, line_cut's samples, empirical_cdf's levels) must be an integer, a
  numpy integer included; a non-integral value raises a ValueError that
  names the parameter.
- write_cdf_csv emits an exact, reproducible text format.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ulabeam import (
    AvoidanceScenario,
    BesselDesign,
    ErrorBox,
    Point2,
    RectObstacle,
    UlaConfig,
    amplitude_at_user,
    bessel_phases,
    empirical_cdf,
    field_at,
    field_grid,
    field_points_per_entry,
    focusing_excitation,
    gaussian_excitation,
    line_cut,
    mean_amplitude,
    normalize_power,
    plan_excitation,
    plan_with_fallback,
    scenario_amplitudes,
    write_cdf_csv,
)

USER = Point2(0.0, 1.0)
BOX = ErrorBox(USER, 0.1, 0.1)
# obstacle footprints used in the four-position comparison, nearest last
POSITIONS = (
    RectObstacle(-1.86, -2.14, 0.10, 0.57),
    RectObstacle(-0.06, -0.34, 0.10, 0.57),
    RectObstacle(0.14, -0.14, 0.10, 0.57),
    RectObstacle(0.29, 0.01, 0.10, 0.57),
)


def box_amplitudes(cfg, exc, box, obstacle=None):
    """|E| at the box samples outside the obstacle, from a one-entry scenario set."""
    return scenario_amplitudes(cfg, [(exc, obstacle)], box)[1][0]


def curving_for(cfg, obstacle, budget=1.0):
    plan = plan_with_fallback(AvoidanceScenario(USER, obstacle, cfg, 1.0))
    assert plan.status == "solved"
    return plan_excitation(cfg, plan, budget)


def test_error_box_rejects_bad_shape():
    with pytest.raises(ValueError, match="half-widths"):
        ErrorBox(USER, 0.0, 0.1)
    with pytest.raises(ValueError, match="half-widths"):
        ErrorBox(USER, 0.1, -0.1)
    with pytest.raises(ValueError, match="2 samples"):
        ErrorBox(USER, 0.1, 0.1, nx=1)
    with pytest.raises(ValueError, match="2 samples"):
        ErrorBox(USER, 0.1, 0.1, ny=1)


def test_error_box_sample_grid_layout():
    box = ErrorBox(Point2(0.5, 2.0), 0.1, 0.2, nx=3, ny=2)
    px, py = box.sample_points()
    assert_allclose(px, [0.4, 0.4, 0.5, 0.5, 0.6, 0.6], rtol=0, atol=1e-15)
    assert_allclose(py, [1.8, 2.2, 1.8, 2.2, 1.8, 2.2], rtol=0, atol=1e-15)


@pytest.mark.parametrize("nx", (2, 20, 21, 40, 41))
def test_centred_error_box_is_mirror_exact(nx):
    box = ErrorBox(Point2(0.0, 1.0), 0.13, 0.07, nx=nx, ny=5)
    px, py = box.sample_points()
    x = px.reshape(nx, 5)[:, 0]
    assert x[0] == -0.13 and x[-1] == 0.13
    assert np.array_equal(x[::-1], -x)
    if nx % 2:
        assert x[nx // 2].hex() == "0x0.0p+0"
    # each sample's mirror is a sample: sample nx - 1 - ix, iy
    mirrored = np.stack((-px, py)).reshape(2, nx, 5)[:, ::-1].reshape(2, -1)
    assert np.array_equal(mirrored, np.stack((px, py)))


def test_amplitude_at_user_is_field_magnitude(cfg1024):
    exc = focusing_excitation(cfg1024, USER)
    obstacle = POSITIONS[2]
    assert amplitude_at_user(cfg1024, exc, USER) == abs(field_at(cfg1024, exc, USER))
    assert amplitude_at_user(cfg1024, exc, USER, obstacle) == abs(field_at(cfg1024, exc, USER, obstacle))


def test_shrunken_box_average_matches_point_amplitude(cfg1024):
    exc = bessel_phases(cfg1024, BesselDesign(0.0, math.radians(20)))
    tiny = ErrorBox(USER, 1e-9, 1e-9, nx=2, ny=2)
    assert_allclose(
        mean_amplitude(box_amplitudes(cfg1024, exc, tiny)), amplitude_at_user(cfg1024, exc, USER), rtol=1e-9
    )


def test_distant_box_sees_nearly_constant_field():
    cfg = UlaConfig(2, 1e-3, 140e9)
    exc = gaussian_excitation(cfg, 0.0)
    far = Point2(0.0, 1e6)
    box = ErrorBox(far, 0.1, 0.1, nx=5, ny=5)
    amps = box_amplitudes(cfg, exc, box)
    assert amps.max() - amps.min() < 1e-6 * amps.max()
    assert_allclose(mean_amplitude(amps), amplitude_at_user(cfg, exc, far), rtol=1e-6)


def test_interior_samples_are_excluded(cfg1024):
    # obstacle covers the lower-left corner of the box
    obstacle = RectObstacle(0.02, -0.2, 0.85, 0.96)
    exc = focusing_excitation(cfg1024, USER)
    px, py = BOX.sample_points()
    kept = []
    n_inside = 0
    for x, y in zip(px, py):
        try:
            kept.append(abs(field_at(cfg1024, exc, Point2(x, y), obstacle)))
        except ValueError:
            n_inside += 1
    assert 0 < n_inside < px.size
    amps = box_amplitudes(cfg1024, exc, BOX, obstacle)
    assert amps.size == px.size - n_inside
    assert_allclose(mean_amplitude(amps), np.mean(kept), rtol=1e-12)


def test_buried_box_is_rejected(cfg1024):
    obstacle = RectObstacle(0.5, -0.5, 0.5, 1.5)
    exc = gaussian_excitation(cfg1024, 0.0)
    amps = box_amplitudes(cfg1024, exc, BOX, obstacle)
    assert amps.size == 0
    with pytest.raises(ValueError, match="inside the obstacle"):
        mean_amplitude(amps)


def test_per_obstacle_box_amplitudes_match_single_calls(cfg1024):
    exc = focusing_excitation(cfg1024, USER)
    obstacles = (*POSITIONS, None, RectObstacle(0.05, -0.05, 0.95, 1.05), RectObstacle(0.5, -0.5, 0.5, 1.5))
    points, rows = scenario_amplitudes(cfg1024, [(exc, obstacle) for obstacle in obstacles], BOX)
    assert len(rows) == len(points) == len(obstacles)
    for row, obstacle in zip(rows, obstacles):
        single = field_points_per_entry(cfg1024, ((exc, obstacle),), *BOX.sample_points())[0]
        single = np.hypot(single.real, single.imag)
        assert np.array_equal(row, single[np.isfinite(single)])
    for point, obstacle in zip(points[:-2], obstacles):
        assert point == amplitude_at_user(cfg1024, exc, USER, obstacle)
    # the two last rects hold the user
    assert math.isnan(points[-2]) and math.isnan(points[-1])
    # the small rect covers 11 x 11 samples of the 0.01 m grid; the large one all
    assert rows[-2].size == BOX.nx * BOX.ny - 11 * 11 and rows[-1].size == 0


def test_reported_amplitudes_are_pythons_complex_abs(cfg1024):
    # np.abs of a complex array rounds about a third of these differently
    entries = [
        (normalize_power(exc, 1.0), obstacle)
        for exc in (focusing_excitation(cfg1024, USER), bessel_phases(cfg1024, BesselDesign(0.0, math.radians(20))))
        for obstacle in (None, *POSITIONS, RectObstacle(0.02, -0.2, 0.85, 0.96))
    ]
    points, rows = scenario_amplitudes(cfg1024, entries, BOX)
    px, py = BOX.sample_points()
    values = field_points_per_entry(cfg1024, entries, np.append(px, USER.x), np.append(py, USER.y)).tolist()
    for point, row, kernel in zip(points, rows, values):
        want = [abs(v) for v in kernel[:-1]]
        assert [a.hex() for a in row.tolist()] == [a.hex() for a in want if math.isfinite(a)]
        assert point.hex() == abs(kernel[-1]).hex()


def test_scenario_set_requires_entries(cfg1024):
    with pytest.raises(ValueError, match="non-empty"):
        scenario_amplitudes(cfg1024, (), BOX)


def test_scenario_set_rejects_budget_mismatch(cfg1024):
    a = normalize_power(gaussian_excitation(cfg1024, 0.0), 1.0)
    b = normalize_power(focusing_excitation(cfg1024, USER), 2.0)
    with pytest.raises(ValueError, match="budgets differ"):
        scenario_amplitudes(cfg1024, ((a, POSITIONS[0]), (b, POSITIONS[0])), BOX)


def test_pooling_concatenates_per_scenario_amplitudes(cfg1024):
    exc = normalize_power(focusing_excitation(cfg1024, USER), 1.0)
    obstacles = (None, *POSITIONS)
    parts = scenario_amplitudes(cfg1024, [(exc, obs) for obs in obstacles], BOX)[1]
    assert len(parts) == len(obstacles)
    pooled = np.concatenate(parts)
    # no obstacle reaches the box, so every scenario pools every sample
    assert pooled.size == len(obstacles) * BOX.nx * BOX.ny
    assert np.array_equal(pooled[-parts[-1].size :], parts[-1])


def test_box_brackets_center_amplitude(cfg1024):
    # odd sample counts put the user itself on the grid
    for exc in (
        gaussian_excitation(cfg1024, 0.0),
        bessel_phases(cfg1024, BesselDesign(0.0, math.radians(20))),
    ):
        amps = box_amplitudes(cfg1024, exc, BOX)
        point = amplitude_at_user(cfg1024, exc, USER)
        assert amps.min() <= point <= amps.max()


def test_frozen_free_space_area_averages(cfg1024):
    gaussian = normalize_power(gaussian_excitation(cfg1024, 0.0), 1.0)
    focus = normalize_power(focusing_excitation(cfg1024, USER), 1.0)
    bessel = normalize_power(bessel_phases(cfg1024, BesselDesign(0.0, math.radians(20))), 1.0)
    curving = curving_for(cfg1024, POSITIONS[0])
    averages = {
        name: mean_amplitude(box_amplitudes(cfg1024, exc, BOX))
        for name, exc in (("gaussian", gaussian), ("focus", focus), ("bessel", bessel), ("curving", curving))
    }
    assert_allclose(averages["gaussian"], 1.352856876733, rtol=1e-9)
    assert_allclose(averages["focus"], 2.001006978382, rtol=1e-9)
    assert_allclose(averages["bessel"], 1.818628435172, rtol=1e-9)
    assert_allclose(averages["curving"], 1.692606155898, rtol=1e-9)
    # averaged over the error box the Bessel beam beats the curved one,
    # even though the curved beam is the obstacle-robust choice
    assert averages["bessel"] > averages["curving"] > averages["gaussian"]
    assert averages["focus"] > averages["bessel"]


def test_pooled_cdf_curving_dominates_fixed_focus(cfg1024):
    focus = normalize_power(focusing_excitation(cfg1024, USER), 1.0)
    focus_set = [(focus, obs) for obs in POSITIONS]
    curving_set = [(curving_for(cfg1024, obs), obs) for obs in POSITIONS]
    pool_f, pool_c = (np.concatenate(scenario_amplitudes(cfg1024, entries, BOX)[1]) for entries in (focus_set, curving_set))
    assert pool_f.size == pool_c.size == 4 * 21 * 21
    assert_allclose(pool_f.min(), 0.005527651848, rtol=1e-6)
    assert_allclose(pool_c.min(), 0.067103979125, rtol=1e-6)
    assert_allclose(np.median(pool_f), 0.461056303056, rtol=1e-6)
    assert_allclose(np.median(pool_c), 2.081118795190, rtol=1e-6)
    # replanning the curve per obstacle keeps worst-case coverage an order
    # of magnitude above the fixed focused beam
    assert pool_c.min() > 10 * pool_f.min()
    assert np.median(pool_c) > np.median(pool_f)
    # every low quantile improves: the outage tail moves right
    for q in (0.01, 0.05, 0.25, 0.5):
        assert np.quantile(pool_c, q) > np.quantile(pool_f, q)


def test_empirical_cdf_hand_examples():
    pairs = empirical_cdf([1.0, 2.0, 3.0], levels=4)
    assert pairs == [(0.0, 0.0), (1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]
    # a single value is a unit step at that value
    assert empirical_cdf([5.0], levels=2) == [(0.0, 0.0), (5.0, 1.0)]
    # order of the input does not matter
    assert empirical_cdf([3.0, 1.0, 2.0], levels=4) == pairs


def test_empirical_cdf_monotone_and_ends_at_one():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.01, 9.0, size=257)
    pairs = empirical_cdf(values, levels=33)
    amps = [a for a, _ in pairs]
    probs = [p for _, p in pairs]
    assert amps == sorted(amps)
    assert probs == sorted(probs)
    assert probs[0] == 0.0
    assert probs[-1] == 1.0
    assert_allclose(amps[-1], values.max(), rtol=0, atol=0)


def test_empirical_cdf_rejects_degenerate_input():
    with pytest.raises(ValueError, match="non-empty"):
        empirical_cdf([], levels=4)
    with pytest.raises(ValueError, match="levels"):
        empirical_cdf([1.0, 2.0], levels=1)


# The array and beam of the count checks: 8 elements, about half-wavelength spacing.
COUNT_CFG = UlaConfig(8, 1.07e-3, 140e9)
COUNT_EXC = gaussian_excitation(COUNT_CFG, 0.0)


@pytest.mark.parametrize(
    "call, message, params",
    [
        (lambda count: UlaConfig(count, 1.07e-3, 140e9), "n_elements must be an integer >= 2", ("n_elements",)),
        (lambda count: ErrorBox(USER, nx=count), "samples per axis must be an integer", ("nx",)),
        (lambda count: field_grid(COUNT_CFG, COUNT_EXC, (-0.1, 0.1), (0.5, 1.0), 3, count), "nx and ny must be integers", None),
        (lambda count: line_cut(COUNT_CFG, COUNT_EXC, 0.0, 1.0, count), "samples must be an integer", None),
        (lambda count: empirical_cdf([1.0, 2.0], count), "levels must be an integer", None),
    ],
    ids=["UlaConfig.n_elements", "ErrorBox.nx", "field_grid.ny", "line_cut.samples", "empirical_cdf.levels"],
)
def test_counts_must_be_integers(call, message, params):
    for count in (2.5, 4.0, np.float64(3.0)):
        with pytest.raises(ValueError, match=message) as err:
            call(count)
        assert getattr(err.value, "params", None) == params
    # numpy integers are integers
    call(np.int64(4))


def test_write_cdf_csv_golden(tmp_path):
    path = tmp_path / "cdf.csv"
    write_cdf_csv([(0.0, 0.0), (1.5, 0.5), (3.0, 1.0)], str(path))
    assert path.read_bytes() == b"amplitude,probability\n0.0,0.0\n1.5,0.5\n3.0,1.0\n"
