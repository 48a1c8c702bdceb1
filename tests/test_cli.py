"""Command-line front end.

Proves:
- Scenario files parse strictly: unknown keys, bad types, bad ranges,
  non-finite numbers and unparseable YAML all exit 2; a missing file
  exits 4. A carrier frequency that is not positive exits 2 with a
  message naming array.carrier_freq_hz. A rect edge, circle center
  coordinate or radius above 1e100 m exits 2 with the obstacle's own
  message after the keys that are, through simulate and analyze, and
  through simulate and compare for a circle whose squared radius
  overflows. A theta_deg or alpha_deg whose radians lie outside the
  library's range (a subnormal alpha_deg, 0 radians, included) exits 2
  naming the key; a curving w that is not positive, and a rect whose x
  edges do not increase or whose y_n is not in (0, y_f), exit 2 with the
  library's message after the keys it checked, in simulate and as
  beams[i] or obstacles[j] in compare.
- Every `raise ParameterError(...)` in the package is reached by one
  listed call, which names the listed parameters, each of them in the
  CLI's key table.
- compare --levels above 1,000,000 exits 2 naming the flag before any
  beam is built.
- Importing the CLI does not load scipy.
- analyze reproduces the printed design numbers (max spacing to five
  significant figures, exact element counts for three spacings), reports
  the steering-failure reason, and embeds self-healing geometry that
  matches the library calls.
- synthesize writes the excitation table (zero phases for broadside
  steering, palindromic Bessel phases) and, for curved beams, a solver
  sidecar whose trajectory anchors on the user to 1e-9; infeasible
  scenarios exit 3 and leave a JSON diagnostic instead of a beam.
- simulate honours --grid and --line-cut, writes CSV/PGM/JSON whose
  contents equal an in-process recomputation bit for bit (the CSV's abs
  column is Python's complex abs of each node; a line cut
  samples |E| along the steering axis, or along the ray at the user for
  focus and curving beams, NaN inside the obstacle), and refuses to
  run without a grid section; a grid or line cut that reaches points
  whose distance to an element overflows, or points nearer than about
  1e-154 m to an element, exits 2 and writes no file; so does a compare
  whose user or box holds such a point. A grid size below 2, a range
  that does not increase or an invalid line cut exits 2 with a message
  naming its grid key or flag before the field kernel runs, and writes
  no file; a bad cut is reported before a grid that starts at y = 0.
- compare emits one row per beam and obstacle plus a CDF file per beam;
  the focused beam tops the free-space column, a fully blocking wall
  zeroes the point amplitude, and the user and every error box are
  evaluated in one kernel call for the whole command; a compare that
  fails (a curving plan that exits 3, a user inside an obstacle that
  exits 2) writes no output file, and its checks fail in a fixed order:
  a box with a half-width that is not positive, fewer than 2 samples on
  an axis or a reach behind the array, when the scenario is parsed
  (naming its error_box key), then plans, then entry by entry its
  box buried in the obstacle and the user inside it (naming obstacles[j]).
  An error box takes the defaults of ErrorBox for every key the file
  leaves out.
- A report with a non-finite value exits 2 naming the file and the key
  path of the first one in written order, and writes no file.
- optimize exits 0 on solved or unnecessary plans and 3 on infeasible
  ones, always writing the plan JSON.
- Scenes whose numbers reach across the float range (up to three of
  them +-m 10^e with e in [-300, 307], in otherwise ordinary scenes, and
  eleven regression scenes) make analyze, optimize and synthesize exit 0,
  2 or 3, never raise, and write only standard JSON; an exit 2 never
  reports the JSON writer's refusal of a non-finite number; analyze exits
  2 and writes nothing when the element count for the user overflows.
  150 such generated scenes, through simulate on a 3-by-3 grid with a
  line cut and through compare beside a focused beam on a 2-by-2 box,
  exit 0, 2 or 3 with no warning and write only standard JSON; so do
  eight scenes whose exit-2 message once named no key. In both sets an
  exit 2 names a scenario key or flag, or is one of five listed messages
  about a derived quantity.
- Repeated runs produce byte-identical data files.
- The JSON reports keep their key sets: the plan in optimize.json
  (solved two-beam, unnecessary, infeasible), analyze.json (rect and
  circle self-heal, non-steerable) and the beam, obstacle and user echo
  in simulate.json. No internal field (relaxed_vertex, active_elements,
  trajectory, center) leaks into them.
"""

import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ulabeam
import ulabeam.cli
from ulabeam import (
    AvoidanceScenario,
    BesselDesign,
    CircleObstacle,
    ErrorBox,
    ParameterError,
    Point2,
    RectObstacle,
    UlaConfig,
    bessel_phases,
    field_at,
    field_grid,
    focusing_excitation,
    gaussian_excitation,
    max_spacing,
    normalize_power,
    plan_excitation,
    plan_with_fallback,
    propagation_limits,
    self_heal,
)
from ulabeam.cli import _write_json, load_scenario, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_dict(**overrides):
    base = {
        "array": {
            "n_elements": 1024,
            "spacing_mode": "half_wavelength",
            "carrier_freq_hz": 140e9,
        },
        "user": {"x": 0.0, "y": 4.0},
        "beam": {"type": "bessel", "theta_deg": 15.0, "alpha_deg": 20.0},
    }
    base.update(overrides)
    return base


def write_scenario(tmp_path, data, name="scen.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def read_json(out_dir, name):
    return json.loads((Path(out_dir) / name).read_text())


def read_csv_rows(path):
    lines = Path(path).read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency: the CLI must start without it
    src = str(Path(ulabeam.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ulabeam.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_missing_scenario_file_exits_4(tmp_path):
    rc = main(["analyze", "--scenario", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
    assert rc == 4


def test_unparseable_yaml_exits_2(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("array: [unclosed\n")
    assert main(["analyze", "--scenario", str(path), "--out", str(tmp_path)]) == 2


def test_unknown_top_level_key_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_dict(extra_knob=1))
    assert main(["analyze", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d["user"].update(y=0.0),
        lambda d: d.update(power_budget=-1.0),
        lambda d: d["array"].update(spacing_mode="quarter_wavelength"),
        lambda d: d["beam"].update(type="vortex"),
        lambda d: d["array"].update(n_elements=1024.5),
        lambda d: d.pop("user"),
        lambda d: d.update(obstacle={"type": "sphere"}),
        lambda d: d.update(grid={"x_range": [0.0], "y_range": [0.1, 1.0], "nx": 4, "ny": 4}),
        lambda d: d.update(grid={"x_range": [-0.8, math.inf], "y_range": [0.1, 1.0], "nx": 4, "ny": 4}),
        lambda d: d["user"].update(x=math.nan),
        lambda d: d["beam"].update(theta_deg=math.inf),
        lambda d: d["user"].update(x=10**400),
        lambda d: d["array"].update(carrier_freq_hz=0.0),
    ],
)
def test_bad_scenario_values_exit_2(tmp_path, mangle):
    data = scenario_dict()
    mangle(data)
    path = write_scenario(tmp_path, data)
    assert main(["analyze", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_negative_carrier_frequency_is_named(tmp_path, capsys):
    # the half-wavelength spacing divides by the frequency, so UlaConfig checks
    # the frequency first; a negative spacing would otherwise be blamed
    data = scenario_dict()
    data["array"]["carrier_freq_hz"] = -140e9
    path = write_scenario(tmp_path, data)
    assert main(["analyze", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: array.carrier_freq_hz: carrier_freq must be positive and finite\n"


def test_circle_whose_radius_squared_overflows_exits_2(tmp_path, capsys):
    circle = {"type": "circle", "x": 0.0, "y": 1e200, "radius": 1e199}
    message = "error: obstacle.y, obstacle.radius: circle center and radius must be at most 1e100 m in magnitude\n"
    data = scenario_dict(obstacle=circle, grid={"x_range": [-0.8, 0.8], "y_range": [0.02, 2.0], "nx": 4, "ny": 4})
    data["array"]["n_elements"] = 64
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()
    data = yaml.safe_load((SCENARIOS / "compare_four_positions.yaml").read_text())
    data["beams"] = [b for b in data["beams"] if b["type"] != "curving"]
    data["obstacles"] = [circle]
    assert main(["compare", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message.replace("obstacle.", "obstacles[0].")
    assert not out.exists()


# Obstacles far beyond 1e100 m, whose shadow geometry once overflowed.
FAR_RECT = {"type": "rect", "x_r1": 1e308, "x_r2": -1e308, "y_n": 0.1, "y_f": 0.5}
FAR_CIRCLE = {"type": "circle", "x": 1e200, "y": 0.5, "radius": 0.25}


@pytest.mark.parametrize(
    "obstacle, message",
    [
        (FAR_RECT, "error: obstacle.x_r1, obstacle.x_r2: obstacle edges must be at most 1e100 m in magnitude\n"),
        (FAR_CIRCLE, "error: obstacle.x: circle center and radius must be at most 1e100 m in magnitude\n"),
    ],
    ids=["rect", "circle"],
)
def test_far_obstacle_exits_2(tmp_path, capsys, obstacle, message):
    # simulate warned of overflow in the obstacle's shadow and exited 0
    data = scenario_dict(obstacle=obstacle, grid={"x_range": [-0.8, 0.8], "y_range": [0.02, 2.0], "nx": 4, "ny": 4})
    data["array"]["n_elements"] = 64
    data["beam"] = {"type": "bessel", "theta_deg": 0.0, "alpha_deg": 20.0}
    for command in ("simulate", "analyze"):
        out = tmp_path / command
        assert main([command, "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


def analyze_report(tmp_path, data, name="a.yaml"):
    path = write_scenario(tmp_path, data, name)
    assert main(["analyze", "--scenario", path, "--out", str(tmp_path)]) == 0
    return read_json(tmp_path, "analyze.json")


def test_analyze_reports_design_numbers(tmp_path):
    rep = analyze_report(tmp_path, scenario_dict())
    assert rep["steerable"] is True
    assert rep["marginal"] is False
    # printed value is truncated after the fifth significant digit
    assert abs(rep["max_spacing"] - 0.0018666) < 1e-7
    assert rep["min_elements_for"] == {"distance": 4.0, "n_elements": 3121}
    assert rep["d_max"] > 0 and rep["d_lim"] > rep["d_max"]
    for spacing, expected in ((0.00186, 1797), (0.00372, 899)):
        data = scenario_dict()
        data["array"] = {
            "n_elements": 1024,
            "spacing_mode": "explicit",
            "spacing_m": spacing,
            "carrier_freq_hz": 140e9,
        }
        rep = analyze_report(tmp_path, data)
        assert rep["min_elements_for"]["n_elements"] == expected


def test_analyze_reports_steering_failure_reason(tmp_path):
    data = scenario_dict()
    data["beam"].update(theta_deg=50.0, alpha_deg=10.0)
    rep = analyze_report(tmp_path, data)
    assert rep["steerable"] is False
    assert rep["reason"] == "alpha < |theta|"
    assert rep["d_max"] is None and rep["max_spacing"] is None
    data["beam"].update(theta_deg=15.0, alpha_deg=80.0)
    rep = analyze_report(tmp_path, data)
    assert rep["reason"] == "alpha >= pi/2 - |theta|"


def test_analyze_near_right_angle_reaches_almost_nowhere(tmp_path):
    data = scenario_dict()
    data["beam"].update(theta_deg=15.0, alpha_deg=74.9)
    rep = analyze_report(tmp_path, data)
    assert rep["steerable"] is True
    assert 0.0 < rep["d_max"] < 2e-3


def test_analyze_requires_bessel_beam(tmp_path):
    data = scenario_dict(beam={"type": "gaussian", "theta_deg": 0.0})
    path = write_scenario(tmp_path, data)
    assert main(["analyze", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_analyze_element_count_overflow_exits_2(tmp_path, capsys):
    # the element count that reaches a user 1e306 m away is not a finite number
    data = scenario_dict(user={"x": 0.0, "y": 1e306}, beam={"type": "bessel", "theta_deg": 0.0, "alpha_deg": 10.0})
    data["array"]["n_elements"] = 64
    out = tmp_path / "out"
    assert main(["analyze", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: element count overflows: d_target is too far for this spacing\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "name, obstacle",
    [
        ("self_healing_cuboid.yaml", RectObstacle(0.14, -0.14, 0.10, 0.57)),
        ("self_healing_cylinder.yaml", CircleObstacle(Point2(0.05, 0.30), 0.10)),
    ],
)
def test_analyze_self_heal_matches_library(tmp_path, name, obstacle):
    rc = main(["analyze", "--scenario", str(SCENARIOS / name), "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path, "analyze.json")["self_heal"]
    data = yaml.safe_load((SCENARIOS / name).read_text())
    cfg = UlaConfig(1024, 299792458.0 / 140e9 / 2.0, 140e9)
    design = BesselDesign(
        math.radians(data["beam"]["theta_deg"]), math.radians(data["beam"]["alpha_deg"])
    )
    heal = self_heal(cfg, design, obstacle)
    assert rep["d_h_pos"] == heal.d_h_pos
    assert rep["d_h_neg"] == heal.d_h_neg
    assert rep["x_p_star"] == heal.x_p_star
    assert rep["x_m_star"] == heal.x_m_star
    assert rep["pos_unblocked"] is heal.pos_unblocked
    assert rep["neg_unblocked"] is heal.neg_unblocked


def test_synthesize_gaussian_broadside_zero_phases(tmp_path):
    rc = main(
        ["synthesize", "--scenario", str(SCENARIOS / "smoke_two_element.yaml"), "--out", str(tmp_path)]
    )
    assert rc == 0
    header, rows = read_csv_rows(tmp_path / "excitation.csv")
    assert header == "index,x,gamma,phase_rad,active"
    assert len(rows) == 2
    for row in rows:
        assert row[3] == "0.0"
        assert row[4] == "1"
    assert rows[0][2] == rows[1][2]


def test_synthesize_bessel_phase_palindrome(tmp_path):
    rc = main(["synthesize", "--scenario", str(SCENARIOS / "bessel_axis.yaml"), "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv_rows(tmp_path / "excitation.csv")
    phases = [float(r[3]) for r in rows]
    assert len(phases) == 1024
    assert_allclose(phases, phases[::-1], rtol=1e-12)


def test_synthesize_curving_sidecar_anchors_on_user(tmp_path):
    rc = main(["synthesize", "--scenario", str(SCENARIOS / "curving_centered_cuboid.yaml"), "--out", str(tmp_path)])
    assert rc == 0
    side = read_json(tmp_path, "curving.json")
    assert side["status"] == "solved"
    primary = side["primary"]["solution"]
    assert_allclose(primary["beta"], 0.447547312, rtol=1e-6)
    assert primary["curvature_sign"] == 1
    assert primary["n_active"] == 419
    secondary = side["secondary"]["solution"]
    assert secondary["curvature_sign"] == -1
    assert secondary["n_active"] == 195
    # the synthesized trajectory passes through the user position
    for sol in (primary, secondary):
        x_at_user = sol["beta"] * (1.0 - sol["p"]) ** 2 + sol["q"]
        assert abs(x_at_user - (-0.1)) <= 1e-9
    _, rows = read_csv_rows(tmp_path / "excitation.csv")
    active = [int(r[4]) for r in rows]
    assert sum(active) == primary["n_active"] + secondary["n_active"]
    gammas = [float(r[2]) for r in rows]
    assert all((g > 0) == bool(a) for g, a in zip(gammas, active))


def test_synthesize_infeasible_exits_3_with_diagnostic(tmp_path):
    data = scenario_dict(
        user={"x": 0.0, "y": 0.6},
        beam={"type": "curving", "w": 1.0},
        obstacle={"type": "rect", "x_r1": 0.5, "x_r2": -0.5, "y_n": 0.15, "y_f": 0.55},
    )
    path = write_scenario(tmp_path, data)
    rc = main(["synthesize", "--scenario", path, "--out", str(tmp_path)])
    assert rc == 3
    diag = read_json(tmp_path, "curving.json")
    assert diag["status"] == "infeasible"
    assert "both curvature signs failed" in diag["message"]
    assert diag["primary"]["status"] == "infeasible"
    assert not (tmp_path / "excitation.csv").exists()


def test_curving_without_any_obstacle_exits_2(tmp_path):
    data = scenario_dict(beam={"type": "curving", "w": 1.0})
    path = write_scenario(tmp_path, data)
    assert main(["synthesize", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_optimize_reports_plan_statuses(tmp_path):
    rc = main(["optimize", "--scenario", str(SCENARIOS / "curving_centered_cuboid.yaml"), "--out", str(tmp_path)])
    assert rc == 0
    assert read_json(tmp_path, "optimize.json")["status"] == "solved"

    unnecessary = scenario_dict(
        user={"x": -0.05, "y": 1.0},
        beam={"type": "curving", "w": 1.0},
        obstacle={"type": "rect", "x_r1": 0.05, "x_r2": -0.90, "y_n": 0.10, "y_f": 0.50},
    )
    path = write_scenario(tmp_path, unnecessary)
    assert main(["optimize", "--scenario", path, "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path, "optimize.json")["status"] == "unnecessary"

    infeasible = scenario_dict(
        user={"x": 0.0, "y": 0.6},
        beam={"type": "curving", "w": 1.0},
        obstacle={"type": "rect", "x_r1": 0.5, "x_r2": -0.5, "y_n": 0.15, "y_f": 0.55},
    )
    path = write_scenario(tmp_path, infeasible)
    assert main(["optimize", "--scenario", path, "--out", str(tmp_path)]) == 3
    assert read_json(tmp_path, "optimize.json")["status"] == "infeasible"


def test_optimize_requires_curving_beam(tmp_path):
    rc = main(["optimize", "--scenario", str(SCENARIOS / "bessel_axis.yaml"), "--out", str(tmp_path)])
    assert rc == 2


def test_simulate_grid_override_matches_recomputation(tmp_path):
    rc = main(
        [
            "simulate",
            "--scenario",
            str(SCENARIOS / "smoke_two_element.yaml"),
            "--out",
            str(tmp_path),
            "--grid",
            "10,8",
        ]
    )
    assert rc == 0
    meta = read_json(tmp_path, "simulate.json")
    assert (meta["nx"], meta["ny"]) == (10, 8)
    assert meta["beam"] == {"type": "gaussian", "theta_deg": 0.0}
    header, rows = read_csv_rows(tmp_path / "field.csv")
    assert header == "x,y,re,im,abs"
    assert len(rows) == 80
    cfg = UlaConfig(2, 299792458.0 / 140e9 / 2.0, 140e9)
    exc = normalize_power(gaussian_excitation(cfg, 0.0), 1.0)
    grid = field_grid(cfg, exc, (-0.2, 0.2), (0.1, 0.6), 10, 8)
    gx, gy = grid.x, grid.y
    flat = [(gx[ix], gy[iy], grid.values[ix, iy]) for iy in range(8) for ix in range(10)]
    for row, (x, y, v) in zip(rows, flat):
        assert row[0] == repr(float(x)) and row[1] == repr(float(y))
        assert row[2] == repr(float(v.real)) and row[3] == repr(float(v.imag))
        assert row[4] == repr(abs(complex(v)))
    pgm = (tmp_path / "field.pgm").read_bytes()
    assert pgm.startswith(b"P5\n10 8\n255\n")
    assert len(pgm) == len(b"P5\n10 8\n255\n") + 80


HALF_WAVE_140 = 299792458.0 / 140e9 / 2.0


def line_cut_cases(tmp_path):
    """(scenario path, --line-cut, cfg, excitation, cut angle, obstacle) of three beams.

    A broadside Gaussian cuts along its steering axis; a focus off axis
    and a curving beam cut along the ray at the user, atan2(x_u, y_u) from
    the y-axis, which for the curving scene crosses the cuboid.
    """
    cfg = UlaConfig(2, HALF_WAVE_140, 140e9)
    exc = normalize_power(gaussian_excitation(cfg, 0.0), 1.0)
    yield str(SCENARIOS / "smoke_two_element.yaml"), "0.4,4", cfg, exc, 0.0, None
    data = scenario_dict(
        array={"n_elements": 64, "spacing_mode": "half_wavelength", "carrier_freq_hz": 140e9},
        user={"x": 0.3, "y": 0.8},
        beam={"type": "focus"},
        grid={"x_range": [-0.5, 0.5], "y_range": [0.1, 1.0], "nx": 2, "ny": 2},
    )
    cfg, user = UlaConfig(64, HALF_WAVE_140, 140e9), Point2(0.3, 0.8)
    exc = normalize_power(focusing_excitation(cfg, user), 1.0)
    yield write_scenario(tmp_path, data), "1.2,30", cfg, exc, math.atan2(0.3, 0.8), None
    cfg, user = UlaConfig(1024, HALF_WAVE_140, 140e9), Point2(-0.1, 1.0)
    rect = RectObstacle(0.14, -0.14, 0.10, 0.57)
    exc = plan_excitation(cfg, plan_with_fallback(AvoidanceScenario(user, rect, cfg, 1.0)), 1.0)
    yield str(SCENARIOS / "curving_centered_cuboid.yaml"), "1.5,40", cfg, exc, math.atan2(-0.1, 1.0), rect


def test_simulate_line_cut_matches_field_at(tmp_path):
    for i, (path, cut, cfg, exc, angle, obstacle) in enumerate(line_cut_cases(tmp_path)):
        out = tmp_path / f"out{i}"
        assert main(["simulate", "--scenario", path, "--out", str(out), "--grid", "4,4", "--line-cut", cut]) == 0
        header, rows = read_csv_rows(out / "linecut.csv")
        assert header == "distance,amplitude"
        d_max, samples = float(cut.split(",")[0]), int(cut.split(",")[1])
        assert [float(r[0]) for r in rows] == list(d_max * np.arange(1, samples + 1) / samples)
        interior = 0
        for r in rows:
            d = float(r[0])
            p = Point2(d * math.sin(angle), d * math.cos(angle))
            if obstacle is not None and obstacle.contains(p.x, p.y):
                interior += 1
                assert math.isnan(float(r[1]))
            else:
                # |E| at (d sin(angle), d cos(angle)), bit for bit
                assert float(r[1]) == abs(field_at(cfg, exc, p, obstacle))
        assert (interior > 0) == (obstacle is not None)


def test_simulate_requires_grid_section(tmp_path):
    data = scenario_dict()
    path = write_scenario(tmp_path, data)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_simulate_marks_obstacle_interior(tmp_path):
    rc = main(
        [
            "simulate",
            "--scenario",
            str(SCENARIOS / "self_healing_cuboid.yaml"),
            "--out",
            str(tmp_path),
            "--grid",
            "15,15",
        ]
    )
    assert rc == 0
    _, rows = read_csv_rows(tmp_path / "field.csv")
    inside = [r for r in rows if abs(float(r[0])) < 0.14 and 0.10 < float(r[1]) < 0.57]
    assert inside and all(r[2] == "nan" for r in inside)
    outside = [r for r in rows if not (abs(float(r[0])) <= 0.14 and 0.10 <= float(r[1]) <= 0.57)]
    assert all(r[2] != "nan" for r in outside)


@pytest.mark.parametrize("flag, value", [("--grid", "10"), ("--grid", "a,b"), ("--line-cut", "1.0"), ("--line-cut", "x,y")])
def test_simulate_flag_validation(tmp_path, flag, value):
    rc = main(
        [
            "simulate",
            "--scenario",
            str(SCENARIOS / "smoke_two_element.yaml"),
            "--out",
            str(tmp_path),
            flag,
            value,
        ]
    )
    assert rc == 2


def test_compare_rows_and_cdf_files(tmp_path):
    rc = main(
        [
            "compare",
            "--scenario",
            str(SCENARIOS / "compare_four_positions.yaml"),
            "--out",
            str(tmp_path),
            "--levels",
            "9",
        ]
    )
    assert rc == 0
    header, rows = read_csv_rows(tmp_path / "compare.csv")
    assert header == "beam,scenario,point_amplitude,area_average"
    assert len(rows) == 16
    assert [r[0] for r in rows[:4]] == ["gaussian"] * 4
    free_space = {r[0]: float(r[2]) for r in rows if r[1] == "scenario_0"}
    assert set(free_space) == {"gaussian", "focus", "bessel", "curving"}
    # at the exact user point the focused beam wins the free-space column
    assert free_space["focus"] == max(free_space.values())
    assert_allclose(free_space["gaussian"], 1.3656994765343904, rtol=1e-9)
    for label in ("gaussian", "focus", "bessel", "curving"):
        cdf_header, cdf_rows = read_csv_rows(tmp_path / f"cdf_{label}.csv")
        assert cdf_header == "amplitude,probability"
        assert len(cdf_rows) == 9
        assert float(cdf_rows[-1][1]) == 1.0


def test_compare_full_wall_zeroes_point_amplitudes(tmp_path):
    data = {
        "array": {"n_elements": 64, "spacing_mode": "half_wavelength", "carrier_freq_hz": 140e9},
        "user": {"x": 0.0, "y": 1.0},
        "beams": [{"type": "gaussian", "theta_deg": 0.0}, {"type": "focus"}],
        "obstacles": [{"type": "rect", "x_r1": 0.6, "x_r2": -0.6, "y_n": 0.3, "y_f": 0.8}],
        "error_box": {"half_width_x": 0.05, "half_width_y": 0.05, "nx": 3, "ny": 3},
    }
    path = write_scenario(tmp_path, data)
    rc = main(["compare", "--scenario", path, "--out", str(tmp_path), "--levels", "3"])
    assert rc == 0
    _, rows = read_csv_rows(tmp_path / "compare.csv")
    assert [r[2] for r in rows] == ["0.0", "0.0"]


# Each message names the scenario key or the flag at fault.
INVALID_SIMULATE = {
    "decreasing_x_range": ({"x_range": [0.7, -0.7]}, [], "grid.x_range must be increasing"),
    "empty_y_range": ({"y_range": [1.6, 1.6]}, [], "grid.y_range must be increasing"),
    "one_file_column": ({"nx": 1}, [], "grid.nx must be >= 2"),
    "one_column": ({}, ["--grid=1,300"], "--grid: nx and ny must be >= 2"),
    "negative_size": ({}, ["--grid=-1,5"], "--grid: nx and ny must be >= 2"),
    "one_cut_sample": ({}, ["--line-cut=1.5,1"], "--line-cut: samples must be >= 2"),
    "negative_cut_distance": ({}, ["--line-cut=-1,200"], "--line-cut: distance must be positive"),
    # the farthest sample's d_max_plot * samples would overflow, or d is inf
    "overflowing_cut": ({}, ["--line-cut=1e308,4"], "--line-cut: distance times samples must be finite"),
    "infinite_cut": ({}, ["--line-cut=inf,4"], "--line-cut: distance times samples must be finite"),
    # the cut is checked before the grid's first row, at y = 0, reaches the kernel
    "bad_cut_and_grid_from_zero": ({"y_range": [0.0, 1.6]}, ["--line-cut=1.5,1"], "--line-cut: samples must be >= 2"),
}


@pytest.mark.parametrize("case", INVALID_SIMULATE, ids=list(INVALID_SIMULATE))
def test_invalid_simulate_never_reaches_the_kernel(tmp_path, monkeypatch, capsys, case):
    grid, flags, message = INVALID_SIMULATE[case]

    def no_kernel(*args):
        raise AssertionError("the field was computed")

    monkeypatch.setattr(ulabeam.field, "field_points_per_entry", no_kernel)
    data = yaml.safe_load((SCENARIOS / "self_healing_cuboid.yaml").read_text())
    data["grid"].update(grid)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", write_scenario(tmp_path, data), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # a grid rejected when the scenario is parsed leaves no output directory
    assert list(out.glob("*")) == []


# A beam or obstacle value out of range exits 2 by a message that names its
# keys: the CLI's own degree ranges, or the library's check after the keys of
# the parameters it checked. (beam, obstacle, message)
_RECT = {"type": "rect", "x_r1": 0.14, "x_r2": -0.14, "y_n": 0.10, "y_f": 0.57}
NAMED_RANGES = {
    "zero_alpha": ({"type": "bessel", "theta_deg": 0.0, "alpha_deg": 0.0}, _RECT, "beam.alpha_deg must be in (0, 90)"),
    # 5e-324 degrees is 0.0 radians
    "subnormal_alpha": ({"type": "bessel", "theta_deg": 0.0, "alpha_deg": 5e-324}, _RECT, "beam.alpha_deg must be in (0, 90)"),
    "right_alpha": ({"type": "bessel", "theta_deg": 0.0, "alpha_deg": 90.0}, _RECT, "beam.alpha_deg must be in (0, 90)"),
    # theta is checked before alpha, as BesselDesign checks them
    "right_theta": ({"type": "bessel", "theta_deg": 90.0, "alpha_deg": 0.0}, _RECT, "beam.theta_deg must be in (-90, 90)"),
    "gaussian_theta": ({"type": "gaussian", "theta_deg": -90.0}, _RECT, "beam.theta_deg must be in (-90, 90)"),
    "zero_w": ({"type": "curving", "w": 0.0}, _RECT, "beam.w: weight_w must be positive"),
    "equal_x_edges": ({"type": "focus"}, {**_RECT, "x_r2": 0.14}, "obstacle.x_r1, obstacle.x_r2: require x_r1 > x_r2"),
    "rect_on_the_array": ({"type": "focus"}, {**_RECT, "y_n": 0.0}, "obstacle.y_n, obstacle.y_f: require 0 < y_n < y_f"),
    "inverted_y_edges": ({"type": "focus"}, {**_RECT, "y_f": 0.05}, "obstacle.y_n, obstacle.y_f: require 0 < y_n < y_f"),
    "design_obstacle": (
        {"type": "curving", "design_obstacle": {**_RECT, "x_r1": -0.2}},
        {"type": "none"},
        "beam.design_obstacle.x_r1, beam.design_obstacle.x_r2: require x_r1 > x_r2",
    ),
}


@pytest.mark.parametrize("case", NAMED_RANGES, ids=list(NAMED_RANGES))
def test_out_of_range_beam_or_rect_exits_2_naming_its_key(tmp_path, capsys, case):
    beam, obstacle, message = NAMED_RANGES[case]
    data = yaml.safe_load((SCENARIOS / "self_healing_cuboid.yaml").read_text())
    data.update(beam=beam, obstacle=obstacle)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # in compare, the message names the list entry
    data = yaml.safe_load((SCENARIOS / "compare_four_positions.yaml").read_text())
    data["beams"][1], data["obstacles"][2] = beam, obstacle
    named = re.sub(r"\bobstacle\.", "obstacles[2].", message.replace("beam.", "beams[1]."))
    assert main(["compare", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert list(out.glob("*")) == []


_CFG = UlaConfig(8, 1e-3, 140e9)
_SCENE_RECT = RectObstacle(0.1, -0.1, 0.3, 0.5)
# One call for each `raise ParameterError(...)` in the package, and the
# parameters it names.
PARAMETER_ERRORS = [
    (lambda: UlaConfig(1, 1e-3, 140e9), ("n_elements",)),
    (lambda: UlaConfig(8, 1e-3, 0.0), ("carrier_freq",)),
    (lambda: UlaConfig(8, 0.0, 140e9), ("spacing",)),
    (lambda: RectObstacle(-0.1, 0.1, 0.3, 0.5), ("x_r1", "x_r2")),
    (lambda: RectObstacle(0.1, -0.1, 0.5, 0.3), ("y_n", "y_f")),
    (lambda: RectObstacle(0.1, -2e100, 0.3, 1.5e100), ("x_r2", "y_f")),
    (lambda: CircleObstacle(Point2(0.0, 1.0), 0.0), ("radius",)),
    (lambda: CircleObstacle(Point2(0.0, 0.1), 0.2), ("center.y", "radius")),
    (lambda: CircleObstacle(Point2(2e100, 1.0), 0.1), ("center.x",)),
    (lambda: BesselDesign(math.pi / 2, 0.3), ("theta_a",)),
    (lambda: BesselDesign(0.0, 0.0), ("alpha",)),
    (lambda: bessel_phases(_CFG, BesselDesign(0.3, 0.1)), ("theta_a", "alpha")),
    (lambda: propagation_limits(UlaConfig(64, 1e-3, 140e9), BesselDesign(0.0, math.radians(2e-311))), ("alpha",)),
    (lambda: max_spacing(BesselDesign(0.0, 0.3), math.inf), ("wavelength",)),
    (lambda: max_spacing(BesselDesign(0.0, math.radians(3.07e-310)), 2e-3), ("alpha",)),
    (lambda: AvoidanceScenario(Point2(0.0, -1.0), _SCENE_RECT, _CFG), ("user.y",)),
    (lambda: AvoidanceScenario(Point2(0.0, 0.4), _SCENE_RECT, _CFG), ("y_f", "user.y")),
    (lambda: AvoidanceScenario(Point2(0.0, 1.0), _SCENE_RECT, _CFG, 0.0), ("weight_w",)),
    (lambda: AvoidanceScenario(Point2(0.0, 1.0), _SCENE_RECT, _CFG, 1e101), ("weight_w",)),
    (lambda: AvoidanceScenario(Point2(1e-101, 1.0), _SCENE_RECT, UlaConfig(3, 1e101, 140e9)), ("user.x", "n_elements", "spacing")),
    (lambda: ErrorBox(Point2(0.0, 1.0), 0.1, 0.0), ("half_width_y",)),
    (lambda: ErrorBox(Point2(0.0, 1.0), 0.1, 0.1, nx=1), ("nx",)),
    (lambda: ErrorBox(Point2(0.0, 1.0), 0.1, 0.1, ny=2.5), ("ny",)),
]


def test_every_parameter_error_names_parameters_the_cli_can_key():
    # a new library check whose parameter the CLI cannot name would print no
    # key; each raise site is reached by one of the calls above
    sites = set()
    for path in Path(ulabeam.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and ast.unparse(node.exc.func) == "ParameterError":
                sites.add((path.name, node.lineno))
    reached = set()
    for call, params in PARAMETER_ERRORS:
        with pytest.raises(ParameterError) as info:
            call()
        assert info.value.params == params
        assert set(params) <= set(ulabeam.cli._KEYS)
        tb = info.tb
        while tb.tb_next is not None:
            tb = tb.tb_next
        reached.add((Path(tb.tb_frame.f_code.co_filename).name, tb.tb_lineno))
    assert reached == sites


def test_huge_levels_exit_2_naming_the_flag(tmp_path, monkeypatch, capsys):
    # --levels 1e13 once allocated 1e13 floats and exited 1 with numpy's
    # memory error; it is refused before any beam is built
    def nothing(*args):
        raise AssertionError("the compare ran")

    monkeypatch.setattr(ulabeam.cli, "cmd_compare", nothing)
    out = tmp_path / "out"
    scenario = str(SCENARIOS / "compare_four_positions.yaml")
    assert main(["compare", "--scenario", scenario, "--out", str(out), "--levels", "10000000000000"]) == 2
    assert capsys.readouterr().err == "error: --levels must be at most 1000000\n"


def test_compare_evaluates_each_box_once(tmp_path, monkeypatch):
    batches = []
    per_entry = ulabeam.metrics.field_points_per_entry

    def counting(cfg, entries, px, py):
        batches.append((px.size, len(entries)))
        return per_entry(cfg, entries, px, py)

    monkeypatch.setattr(ulabeam.metrics, "field_points_per_entry", counting)
    data = {
        "array": {"n_elements": 64, "spacing_mode": "half_wavelength", "carrier_freq_hz": 140e9},
        "user": {"x": 0.0, "y": 1.0},
        "beams": [
            {"type": "gaussian", "theta_deg": 0.0},
            {"type": "focus"},
            {
                "type": "curving",
                "design_obstacle": {"type": "rect", "x_r1": 0.03, "x_r2": 0.01, "y_n": 0.49, "y_f": 0.51},
            },
        ],
        "obstacles": [{"type": "none"}, {"type": "circle", "x": 0.02, "y": 0.5, "radius": 0.01}],
        "error_box": {"half_width_x": 0.05, "half_width_y": 0.05, "nx": 3, "ny": 4},
    }
    rc = main(["compare", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path), "--levels", "3"])
    assert rc == 0
    # one kernel call for the whole command: the 12 box samples and the user,
    # under the 6 (beam, obstacle) entries
    assert batches == [(13, 6)]
    _, rows = read_csv_rows(tmp_path / "compare.csv")
    assert [r[0] for r in rows] == ["gaussian"] * 2 + ["focus"] * 2 + ["curving"] * 2


def test_failed_compare_leaves_no_output(tmp_path, capsys):
    data = {
        "array": {"n_elements": 64, "spacing_mode": "half_wavelength", "carrier_freq_hz": 140e9},
        "user": {"x": 0.0, "y": 0.6},
        "beams": [{"type": "focus"}, {"type": "curving"}],
        "obstacles": [{"type": "rect", "x_r1": 0.5, "x_r2": -0.5, "y_n": 0.15, "y_f": 0.55}],
    }
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["compare", "--scenario", path, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "optimizer did not produce a beam: both curvature signs failed (positive: infeasible, negative: infeasible)\n"
    )
    # every beam is planned before any file is written
    assert list(out.iterdir()) == []
    # and evaluated: the user inside the second obstacle fails the focused
    # beam after its boxes, before its CDF file
    data["beams"] = [{"type": "focus"}, {"type": "gaussian", "theta_deg": 0.0}]
    data["obstacles"] = [{"type": "none"}, {"type": "rect", "x_r1": 0.05, "x_r2": -0.05, "y_n": 0.5, "y_f": 0.7}]
    path = write_scenario(tmp_path, data)
    assert main(["compare", "--scenario", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: user lies inside obstacles[1]\n"
    assert list(out.iterdir()) == []


def test_error_box_defaults_are_error_boxs_own(tmp_path):
    data = {
        "array": {"n_elements": 8, "spacing_mode": "half_wavelength", "carrier_freq_hz": 140e9},
        "user": {"x": 0.0, "y": 1.0},
        "beams": [{"type": "focus"}, {"type": "gaussian", "theta_deg": 0.0}],
        "obstacles": [{"type": "none"}],
    }
    user = Point2(0.0, 1.0)
    assert load_scenario(write_scenario(tmp_path, data), compare=True)["error_box"] == ErrorBox(user)
    data["error_box"] = {"half_width_x": 0.05, "half_width_y": 0.02, "ny": 4}
    box = load_scenario(write_scenario(tmp_path, data), compare=True)["error_box"]
    assert box == ErrorBox(user, 0.05, 0.02, ny=4) and box.nx == ErrorBox(user).nx


def test_write_json_names_the_key_path_of_a_non_finite_value(tmp_path):
    path = tmp_path / "analyze.json"
    for report, where in (
        ({"self_heal": {"d_h_neg": 1.0, "d_h_pos": math.nan}, "d_max": 2.0}, "self_heal.d_h_pos"),
        ({"a": [0.0, {"c": [1.0, -math.inf]}], "b": None}, "a[1].c[1]"),
        # the first in written order: keys sorted, lists in order
        ({"z": math.inf, "y": {"x": [math.nan, math.inf]}}, "y.x[0]"),
        ({"plan": [[1.0], (2.0, math.inf)]}, "plan[1][1]"),
    ):
        with pytest.raises(ValueError) as info:
            _write_json(str(path), report)
        assert str(info.value) == f"analyze.json: {where} is not finite"
        assert not path.exists()
    _write_json(str(path), {"b": [1.0, None, "nan"], "a": {"c": 2}})
    assert json.loads(path.read_text()) == {"a": {"c": 2}, "b": [1.0, None, "nan"]}


def test_compare_input_validation(tmp_path):
    data = {
        "array": {"n_elements": 8, "spacing_mode": "half_wavelength", "carrier_freq_hz": 140e9},
        "user": {"x": 0.0, "y": 1.0},
        "beams": [{"type": "focus"}],
        "obstacles": [{"type": "none"}],
    }
    path = write_scenario(tmp_path, data)
    assert main(["compare", "--scenario", path, "--out", str(tmp_path)]) == 2
    data["beams"] = [{"type": "focus"}, {"type": "gaussian", "theta_deg": 0.0}]
    data["obstacles"] = []
    path = write_scenario(tmp_path, data)
    assert main(["compare", "--scenario", path, "--out", str(tmp_path)]) == 2
    data["obstacles"] = [{"type": "none"}]
    path = write_scenario(tmp_path, data)
    assert main(["compare", "--scenario", path, "--out", str(tmp_path), "--levels", "1"]) == 2
    data["error_box"] = {"half_width_x": math.inf, "half_width_y": 0.1}
    path = write_scenario(tmp_path, data)
    assert main(["compare", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_repeated_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        rc = main(["synthesize", "--scenario", str(SCENARIOS / "curving_centered_cuboid.yaml"), "--out", str(out)])
        assert rc == 0
        rc = main(
            [
                "simulate",
                "--scenario",
                str(SCENARIOS / "smoke_two_element.yaml"),
                "--out",
                str(out),
                "--line-cut",
                "0.4,8",
            ]
        )
        assert rc == 0
    for name in ("excitation.csv", "curving.json", "field.csv", "field.pgm", "simulate.json", "linecut.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# -- report key sets --------------------------------------------------------


def key_tree(value):
    """The keys of a JSON report at every level; leaves and null become None."""
    return {k: key_tree(v) for k, v in value.items()} if isinstance(value, dict) else None


SOLUTION_KEYS = dict.fromkeys(
    [
        "beta",
        "p",
        "q",
        "p_tilde",
        "x_adj_star",
        "x_t_star",
        "curvature_sign",
        "objective_value",
        "relaxed_objective",
        "kkt_candidate_index",
        "n_active",
    ]
)
SOLVED_KEYS = {"status": None, "message": None, "solution": SOLUTION_KEYS}
SELF_HEAL_KEYS = dict.fromkeys(["d_h_pos", "d_h_neg", "x_p_star", "x_m_star", "pos_unblocked", "neg_unblocked"])
ANALYZE_KEYS = dict.fromkeys(["steerable", "reason", "marginal", "d_max", "d_lim", "max_spacing", "self_heal"])
RECT_KEYS = dict.fromkeys(["type", "x_r1", "x_r2", "y_n", "y_f"])
CIRCLE_KEYS = dict.fromkeys(["type", "x", "y", "radius"])
CIRCLE = {"type": "circle", "x": 0.0, "y": 0.35, "radius": 0.14}


def test_optimize_report_key_sets(tmp_path):
    main(["optimize", "--scenario", str(SCENARIOS / "curving_centered_cuboid.yaml"), "--out", str(tmp_path)])
    assert key_tree(read_json(tmp_path, "optimize.json")) == {
        "status": None,
        "message": None,
        "primary": SOLVED_KEYS,
        "secondary": SOLVED_KEYS,
    }
    unnecessary = scenario_dict(
        user={"x": -0.05, "y": 1.0},
        beam={"type": "curving", "w": 1.0},
        obstacle={"type": "rect", "x_r1": 0.05, "x_r2": -0.90, "y_n": 0.10, "y_f": 0.50},
    )
    main(["optimize", "--scenario", write_scenario(tmp_path, unnecessary), "--out", str(tmp_path)])
    assert key_tree(read_json(tmp_path, "optimize.json")) == {
        "status": None,
        "message": None,
        "primary": {"status": None, "message": None},
        "secondary": None,
    }
    infeasible = scenario_dict(
        user={"x": 0.0, "y": 0.6},
        beam={"type": "curving", "w": 1.0},
        obstacle={"type": "rect", "x_r1": 0.5, "x_r2": -0.5, "y_n": 0.15, "y_f": 0.55},
    )
    main(["optimize", "--scenario", write_scenario(tmp_path, infeasible), "--out", str(tmp_path)])
    failed = {"status": None, "message": None, "most_violated": None}
    assert key_tree(read_json(tmp_path, "optimize.json")) == {
        "status": None,
        "message": None,
        "primary": failed,
        "secondary": failed,
    }


def test_analyze_report_key_sets(tmp_path):
    steerable = {
        **ANALYZE_KEYS,
        "min_elements_for": {"distance": None, "n_elements": None},
        "self_heal": SELF_HEAL_KEYS,
    }
    for name in ("self_healing_cuboid.yaml", "self_healing_cylinder.yaml"):
        main(["analyze", "--scenario", str(SCENARIOS / name), "--out", str(tmp_path)])
        assert key_tree(read_json(tmp_path, "analyze.json")) == steerable
    data = scenario_dict()
    data["beam"].update(theta_deg=50.0, alpha_deg=10.0)
    assert key_tree(analyze_report(tmp_path, data)) == {**ANALYZE_KEYS, "min_elements_for": None}


@pytest.mark.parametrize(
    "obstacle, beam, echo",
    [
        ({"type": "none"}, {"type": "gaussian", "theta_deg": 0.0}, {"type": None}),
        ({"type": "rect", "x_r1": 0.1, "x_r2": -0.1, "y_n": 0.2, "y_f": 0.3}, {"type": "focus"}, RECT_KEYS),
        ({"type": "circle", "x": 0.1, "y": 0.5, "radius": 0.05}, {"type": "focus"}, CIRCLE_KEYS),
        ({"type": "none"}, {"type": "curving", "w": 1.0, "design_obstacle": CIRCLE}, {"type": None}),
    ],
)
def test_simulate_echo_key_sets(tmp_path, obstacle, beam, echo):
    data = yaml.safe_load((SCENARIOS / "curving_centered_cuboid.yaml").read_text())
    data.update(obstacle=obstacle, beam=beam)
    path = write_scenario(tmp_path, data)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path), "--grid", "3,3"]) == 0
    meta = key_tree(read_json(tmp_path, "simulate.json"))
    beam_keys = dict.fromkeys(beam)
    if "design_obstacle" in beam:
        beam_keys["design_obstacle"] = CIRCLE_KEYS
    assert meta["beam"] == beam_keys
    assert meta["obstacle"] == echo
    assert meta["user"] == {"x": None, "y": None}
    top = ["beam", "carrier_freq_hz", "n_elements", "nx", "ny", "obstacle", "power_budget", "spacing", "user"]
    top += ["x_range", "y_range"] + (["curving_plan"] if beam["type"] == "curving" else [])
    assert sorted(meta) == sorted(top)


def test_simulate_rejects_points_whose_distance_overflows(tmp_path, capsys):
    # a squared distance overflows past about 1.3e154 m
    message = "error: field points must lie within about 1e154 m of the array\n"
    data = yaml.safe_load((SCENARIOS / "smoke_two_element.yaml").read_text())
    data["grid"]["x_range"] = [1.0e155, 2.0e155]
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert list(out.iterdir()) == []
    # the line cut is evaluated before any file is written
    smoke = str(SCENARIOS / "smoke_two_element.yaml")
    assert main(["simulate", "--scenario", smoke, "--out", str(out), "--line-cut", "1e160,10"]) == 2
    assert capsys.readouterr().err == message
    assert list(out.iterdir()) == []


def test_points_on_an_element_are_rejected(tmp_path, capsys):
    # y^2 underflows to 0 at y = 1e-200, so a point at x = 0, where the
    # middle element of a 3-element array sits, would be at distance 0
    message = "error: field points must lie at least about 1e-154 m from every element\n"
    data = yaml.safe_load((SCENARIOS / "smoke_two_element.yaml").read_text())
    data["array"]["n_elements"] = 3
    out = tmp_path / "out"
    # the line cut runs along the axis, through the middle element
    path = write_scenario(tmp_path, data)
    assert main(["simulate", "--scenario", path, "--out", str(out), "--line-cut", "1e-200,2"]) == 2
    assert capsys.readouterr().err == message
    assert list(out.iterdir()) == []
    # a grid node x = 0 of x_range [-0.2, 0.2] at nx = 3, at the lowest row
    data["grid"].update(y_range=[1e-200, 0.6], nx=3, ny=3)
    assert main(["simulate", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert list(out.iterdir()) == []
    # the user and the middle column of its box sit on the middle element
    del data["beam"], data["grid"], data["obstacle"]
    data["user"] = {"x": 0.0, "y": 1e-200}
    data.update(
        beams=[{"type": "focus"}, {"type": "gaussian", "theta_deg": 0.0}],
        obstacles=[{"type": "none"}],
        error_box={"half_width_x": 0.05, "half_width_y": 1e-201, "nx": 3, "ny": 3},
    )
    assert main(["compare", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert list(out.iterdir()) == []


# Each scene breaks two of compare's checks; the message names the one that
# runs first: a box that is empty or reaches behind the array (when the
# scenario is parsed), then curving plans (exit 3), then entry by entry its
# box buried in the obstacle and the user inside it.
BOX_BEHIND = "error: error_box.half_width_y must be less than user.y: the box must lie in front of the array\n"
COMPARE_ERROR_ORDER = {
    "negative half-width before the plan": (
        {"y": 0.6},
        {"half_width_x": -0.1, "half_width_y": 0.1},
        [{"type": "focus"}, {"type": "curving"}],
        [{"type": "rect", "x_r1": 0.5, "x_r2": -0.5, "y_n": 0.15, "y_f": 0.55}],
        2,
        "error: error_box.half_width_x: half-widths must be positive\n",
    ),
    "one box column before the plan": (
        {"y": 0.6},
        {"half_width_x": 0.05, "half_width_y": 0.05, "nx": 1},
        [{"type": "focus"}, {"type": "curving"}],
        [{"type": "rect", "x_r1": 0.5, "x_r2": -0.5, "y_n": 0.15, "y_f": 0.55}],
        2,
        "error: error_box.nx: at least 2 samples per axis\n",
    ),
    "points behind the array before the plan": (
        {"y": 0.6},
        {"half_width_x": 0.05, "half_width_y": 0.7, "nx": 3, "ny": 3},
        [{"type": "focus"}, {"type": "curving"}],
        [{"type": "rect", "x_r1": 0.5, "x_r2": -0.5, "y_n": 0.15, "y_f": 0.55}],
        2,
        BOX_BEHIND,
    ),
    "points behind the array before the user inside an obstacle": (
        {"y": 0.04},
        {"half_width_x": 0.05, "half_width_y": 0.05, "nx": 3, "ny": 3},
        [{"type": "focus"}, {"type": "gaussian", "theta_deg": 0.0}],
        [{"type": "rect", "x_r1": 0.1, "x_r2": -0.1, "y_n": 0.01, "y_f": 0.2}],
        2,
        BOX_BEHIND,
    ),
    "user inside an obstacle before a later buried box": (
        {"y": 0.6},
        {"half_width_x": 0.05, "half_width_y": 0.05, "nx": 3, "ny": 3},
        [{"type": "focus"}, {"type": "gaussian", "theta_deg": 0.0}],
        [
            {"type": "rect", "x_r1": 0.01, "x_r2": -0.01, "y_n": 0.5, "y_f": 0.7},
            {"type": "rect", "x_r1": 0.2, "x_r2": -0.2, "y_n": 0.5, "y_f": 0.7},
        ],
        2,
        "error: user lies inside obstacles[0]\n",
    ),
    "buried box before the user inside its obstacle": (
        {"y": 0.6},
        {"half_width_x": 0.05, "half_width_y": 0.05, "nx": 3, "ny": 3},
        [{"type": "focus"}, {"type": "gaussian", "theta_deg": 0.0}],
        [{"type": "none"}, {"type": "rect", "x_r1": 0.2, "x_r2": -0.2, "y_n": 0.5, "y_f": 0.7}],
        2,
        "error: every error_box sample lies inside obstacles[1]\n",
    ),
}


@pytest.mark.parametrize("case", COMPARE_ERROR_ORDER, ids=list(COMPARE_ERROR_ORDER))
def test_compare_errors_come_in_a_fixed_order(tmp_path, capsys, case):
    user, box, beams, obstacles, code, err = COMPARE_ERROR_ORDER[case]
    data = {
        "array": {"n_elements": 64, "spacing_mode": "half_wavelength", "carrier_freq_hz": 140e9},
        "user": {"x": 0.0, **user},
        "beams": beams,
        "obstacles": obstacles,
        "error_box": box,
    }
    out = tmp_path / "out"
    assert main(["compare", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    # a scenario rejected when parsed leaves no output directory either
    assert list(out.glob("*")) == []


def extreme_dict(n, spacing, freq, user, beam, rect=None):
    """A scene; spacing None means half-wavelength spacing, rect None no obstacle."""
    array = {"n_elements": n, "carrier_freq_hz": freq, "spacing_mode": "half_wavelength"}
    if spacing is not None:
        array.update(spacing_mode="explicit", spacing_m=spacing)
    scene = {"array": array, "user": dict(zip("xy", user)), "beam": beam}
    if rect is not None:
        scene["obstacle"] = {"type": "rect", **dict(zip(("x_r1", "x_r2", "y_n", "y_f"), rect))}
    return scene


def extreme_curving(n, spacing, freq, user, rect, w=1.0):
    return extreme_dict(n, spacing, freq, user, {"type": "curving", "w": w}, rect)


def scaled(exponents, signs=(1.0,)):
    """Numbers +-m 10^e with m in [1, 10) and e drawn from exponents."""
    return st.builds(lambda s, m, e: s * m * 10.0**e, st.sampled_from(signs), st.floats(1.0, 10.0, exclude_max=True), exponents)


# Each number of an ordinary scene: its exponents and signs.
ORDINARY = {
    "spacing": (st.integers(-4, -2), (1.0,)),
    "freq": (st.integers(9, 11), (1.0,)),
    "user_x": (st.integers(-2, 0), (1.0, -1.0)),
    "heights": (st.integers(-2, 0), (1.0,)),
    "edge": (st.integers(-2, 0), (1.0, -1.0)),
    "w": (st.integers(-1, 0), (1.0,)),
}


@st.composite
def extreme_scene(draw):
    """A Bessel scene for analyze, a gaussian or focus scene for synthesize,
    or a curving scene for optimize and synthesize.

    The numbers are those of an ordinary scene, except that up to three of
    them are +-m 10^e with e anywhere in [-300, 307].
    """
    extreme = draw(st.sets(st.sampled_from(list(ORDINARY)), max_size=3))

    def number(name):
        exponents, signs = ORDINARY[name]
        return draw(scaled(st.integers(-300, 307), (1.0, -1.0)) if name in extreme else scaled(exponents, signs))

    n = draw(st.sampled_from((2, 3, 64, 1024)))
    spacing = number("spacing") if "spacing" in extreme or draw(st.booleans()) else None
    freq, user_x = number("freq"), number("user_x")
    kind = draw(st.sampled_from(("bessel", "gaussian", "focus", "curving")))
    if kind != "curving":
        beam = {"type": kind}
        if kind != "focus":
            beam["theta_deg"] = draw(st.floats(-90.0, 90.0))
        if kind == "bessel":
            beam["alpha_deg"] = draw(st.floats(0.0, 90.0))
        return extreme_dict(n, spacing, freq, (user_x, number("heights")), beam)
    x_r2, x_r1 = sorted((number("edge"), number("edge")))
    y_n, y_f, y_u = sorted(number("heights") for _ in range(3))
    return extreme_curving(n, spacing, freq, (user_x, y_u), (x_r1, x_r2, y_n, y_f), number("w"))


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# A scenario key (array.spacing_m, beams[1].alpha_deg, obstacles[0], ...) or a flag.
NAMES_A_KEY = re.compile(
    r"\b(array|user|beam|obstacle|grid|error_box)\.[a-z]|\b(beams|obstacles)\[\d+\]|\bpower_budget\b|--(grid|line-cut|levels)\b"
)
# Exit-2 messages about a quantity made of several keys, which name none.
DERIVED = (
    "active phases must be finite",
    "element count overflows: d_target is too far for this spacing",
    "field points must lie within about 1e154 m of the array",
    "field points must lie at least about 1e-154 m from every element",
    "ill-conditioned scene: rounding leaves the pinned aperture problem without a feasible vertex",
)


def assert_names_its_fault(stderr):
    """An exit-2 message names a scenario key or flag, or a listed derived quantity."""
    assert stderr.startswith("error: ") and stderr.endswith("\n"), stderr
    message = stderr[len("error: ") : -1]
    assert NAMES_A_KEY.search(message) or message in DERIVED, message


@settings(max_examples=300, deadline=None, derandomize=True)
@given(extreme_scene())
# a user 1e160 m away, whose y_u**2 overflows a float
@example(extreme_curving(1024, None, 140e9, (0.0, 1e160), (0.1, -0.1, 0.3, 0.5)))
# an 8e300 m spacing and w 2.9e160, where no vertex objective is finite
@example(
    extreme_curving(
        2,
        8.182259636637394e300,
        8.920417103551834e100,
        (0.0, 1.0),
        (4.929595226941069e155, -4.929595226941069e155, 8.788757825799525e-200, 1.3183136738699289e-199),
        2.9035569747574905e160,
    )
)
# a user 6.7e160 m to the side, where the pinned solve finds no feasible vertex
@example(
    extreme_curving(
        3,
        7.058036998462971e300,
        140e9,
        (6.707909796214506e160, 32.37009941841077),
        (8.503507511589003e160, -8.503507511589003e160, 0.2, 0.20000000000020002),
    )
)
# a 1e300 m spacing, where the curving phases overflow beta**2 and the plan holds inf
@example(extreme_curving(64, 1e300, 140e9, (0.0, 1.0), (0.1, -0.1, 0.2, 0.3), 1e10))
# a 5e307 m spacing at 2.8e-300 Hz, where the vertex enumeration multiplies inf by 0
@example(extreme_curving(3, None, 2.846241208551663e-300, (0.0, 1.0), (0.05, -0.05, 0.2, 0.20000000000020002)))
# a Bessel user 1e306 m away, whose element count overflows
@example(extreme_dict(64, None, 140e9, (0.0, 1e306), {"type": "bessel", "theta_deg": 0.0, "alpha_deg": 10.0}))
# a focus 1e12 m away at 1e306 Hz, whose phases overflow
@example(extreme_dict(64, 1e-3, 1e306, (0.0, 1e12), {"type": "focus"}))
# lengths from 1e-84 to 1e99 m, where rounding loses the pinned solve's feasible vertex
@example(
    extreme_curving(
        2,
        1.3414397884608778e99,
        7.560775913239614e86,
        (-8.887629045465305e-84, 47.682160334920155),
        (3.538163208491615e48, -5.927345688447419e95, 9.170806982666714e-55, 44.50407206776284),
        993.7135445987072,
    )
)
# a 64-element Bessel beam behind a rect whose x edges are +-1e308 m
@example({**extreme_dict(64, None, 140e9, (0.0, 1.0), {"type": "bessel", "theta_deg": 0.0, "alpha_deg": 10.0}), "obstacle": FAR_RECT})
# the same beam behind a circle 1e200 m to the side
@example({**extreme_dict(64, None, 140e9, (0.0, 1.0), {"type": "bessel", "theta_deg": 0.0, "alpha_deg": 10.0}), "obstacle": FAR_CIRCLE})
# a 2-element Bessel beam at alpha 3.07e-310 deg, whose maximum spacing overflows
@example(extreme_dict(2, None, 140e9, (0.0, 1.0), {"type": "bessel", "theta_deg": 0.0, "alpha_deg": 3.07e-310}))
def test_extreme_scenes_exit_cleanly(scene):
    # numbers across the whole float range end in a result (0), a rejected
    # scene (2) or no beam (3): never a traceback, never non-standard JSON,
    # and a rejection names the scene's fault, not the JSON writer's
    by_beam = {"bessel": ("analyze",), "curving": ("optimize", "synthesize")}
    commands = by_beam.get(scene["beam"]["type"], ("synthesize",))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.yaml"
        path.write_text(yaml.safe_dump(scene), encoding="utf-8")
        for command in commands:
            out = Path(tmp) / command
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--scenario", str(path), "--out", str(out)])
            assert code in (0, 2, 3)
            if code == 2:
                # the JSON writer's refusal, in json's words or its own
                assert "not JSON compliant" not in err.getvalue() and ".json: " not in err.getvalue()
                assert_names_its_fault(err.getvalue())
            for report in out.glob("*.json"):
                json.loads(report.read_text(encoding="ascii"), parse_constant=reject_constant)


FUZZ_GRID = {"x_range": [-0.2, 0.2], "y_range": [0.1, 0.6], "nx": 3, "ny": 3}


BESSEL_20 = {"type": "bessel", "theta_deg": 0.0, "alpha_deg": 20.0}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(extreme_scene())
# scenes whose exit-2 message once named no key: a Bessel beam steered past
# its cone angle, and one whose cone reaches past the right angle
@example(extreme_dict(64, None, 140e9, (0.0, 1.0), {"type": "bessel", "theta_deg": 30.0, "alpha_deg": 10.0}))
@example(extreme_dict(64, None, 140e9, (0.0, 1.0), {"type": "bessel", "theta_deg": 20.0, "alpha_deg": 75.0}))
# a curving obstacle beyond the user, a w of 1e101 and an explicit spacing of 0
@example(extreme_curving(64, None, 140e9, (0.0, 0.4), (0.1, -0.1, 0.3, 0.5)))
@example(extreme_curving(64, None, 140e9, (0.0, 1.0), (0.1, -0.1, 0.3, 0.5), 1e101))
@example(extreme_dict(64, 0.0, 140e9, (0.0, 1.0), BESSEL_20))
# rect edges 1e308 m out, and circles of radius 0 and 1e101 m
@example({**extreme_dict(64, None, 140e9, (0.0, 1.0), BESSEL_20), "obstacle": FAR_RECT})
@example({**extreme_dict(64, None, 140e9, (0.0, 1.0), BESSEL_20), "obstacle": {**FAR_CIRCLE, "x": 0.0, "radius": 0.0}})
@example({**extreme_dict(64, None, 140e9, (0.0, 1.0), BESSEL_20), "obstacle": {**FAR_CIRCLE, "y": 2e101, "radius": 1e101}})
def test_extreme_scenes_simulate_and_compare_cleanly(scene):
    # simulate on a 3-by-3 grid with a 4-sample cut out to twice the user's
    # height, and compare the scene's beam with a focused one under the
    # scene's obstacle (or none) on a 2-by-2 box: each ends in a result (0),
    # a rejected scene (2) or no beam (3), never with a warning, and writes
    # only standard JSON; a rejection names its scenario key or flag, or a
    # listed derived quantity
    y = scene["user"]["y"]
    compare = {key: value for key, value in scene.items() if key not in ("beam", "obstacle")}
    compare.update(
        beams=[scene["beam"], {"type": "focus"}],
        obstacles=[scene.get("obstacle", {"type": "none"})],
        error_box={"half_width_x": y / 4, "half_width_y": y / 4, "nx": 2, "ny": 2},
    )
    runs = {
        "simulate": ({**scene, "grid": FUZZ_GRID}, ["--grid", "3,3", f"--line-cut={2 * y!r},4"]),
        "compare": (compare, []),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for command, (data, flags) in runs.items():
            path = Path(tmp) / f"{command}.yaml"
            path.write_text(yaml.safe_dump(data), encoding="utf-8")
            out = Path(tmp) / command
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([command, "--scenario", str(path), "--out", str(out), *flags])
            assert code in (0, 2, 3)
            assert [str(w.message) for w in caught] == []
            if code == 2:
                assert_names_its_fault(err.getvalue())
            for report in out.glob("*.json"):
                json.loads(report.read_text(encoding="ascii"), parse_constant=reject_constant)
