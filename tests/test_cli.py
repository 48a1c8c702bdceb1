"""Command-line front end.

Proves:
- Scenario files parse strictly: unknown keys, bad types, bad ranges,
  non-finite numbers and unparseable YAML all exit 2; a missing file
  exits 4.
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
  contents equal an in-process recomputation bit for bit, and refuses to
  run without a grid section.
- compare emits one row per beam and obstacle plus a CDF file per beam;
  the focused beam tops the free-space column, a fully blocking wall
  zeroes the point amplitude, and each error box is evaluated once.
- optimize exits 0 on solved or unnecessary plans and 3 on infeasible
  ones, always writing the plan JSON.
- Repeated runs produce byte-identical data files.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

import ulabeam
from ulabeam import (
    BesselDesign,
    CircleObstacle,
    OcclusionModel,
    Point2,
    RectObstacle,
    UlaConfig,
    field_at,
    field_grid,
    gaussian_excitation,
    normalize_power,
    self_heal_circle,
    self_heal_rect,
)
from ulabeam.cli import main

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
    ],
)
def test_bad_scenario_values_exit_2(tmp_path, mangle):
    data = scenario_dict()
    mangle(data)
    path = write_scenario(tmp_path, data)
    assert main(["analyze", "--scenario", path, "--out", str(tmp_path)]) == 2


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


@pytest.mark.parametrize(
    "name, obstacle, heal_fn",
    [
        (
            "self_healing_cuboid.yaml",
            RectObstacle(0.14, -0.14, 0.10, 0.57),
            self_heal_rect,
        ),
        (
            "self_healing_cylinder.yaml",
            CircleObstacle(Point2(0.05, 0.30), 0.10),
            self_heal_circle,
        ),
    ],
)
def test_analyze_self_heal_matches_library(tmp_path, name, obstacle, heal_fn):
    rc = main(["analyze", "--scenario", str(SCENARIOS / name), "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path, "analyze.json")["self_heal"]
    data = yaml.safe_load((SCENARIOS / name).read_text())
    cfg = UlaConfig(1024, 299792458.0 / 140e9 / 2.0, 140e9)
    design = BesselDesign(
        math.radians(data["beam"]["theta_deg"]), math.radians(data["beam"]["alpha_deg"])
    )
    heal = heal_fn(cfg, design, obstacle)
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
    grid = field_grid(cfg, exc, (-0.2, 0.2), (0.1, 0.6), 10, 8, OcclusionModel(None))
    gx, gy = grid.x_coords(), grid.y_coords()
    flat = [(gx[ix], gy[iy], grid.values[ix, iy]) for iy in range(8) for ix in range(10)]
    for row, (x, y, v) in zip(rows, flat):
        assert row[0] == repr(float(x)) and row[1] == repr(float(y))
        assert row[2] == repr(float(v.real)) and row[3] == repr(float(v.imag))
    pgm = (tmp_path / "field.pgm").read_bytes()
    assert pgm.startswith(b"P5\n10 8\n255\n")
    assert len(pgm) == len(b"P5\n10 8\n255\n") + 80


def test_simulate_line_cut_matches_field_at(tmp_path):
    rc = main(
        [
            "simulate",
            "--scenario",
            str(SCENARIOS / "smoke_two_element.yaml"),
            "--out",
            str(tmp_path),
            "--grid",
            "4,4",
            "--line-cut",
            "0.4,4",
        ]
    )
    assert rc == 0
    header, rows = read_csv_rows(tmp_path / "linecut.csv")
    assert header == "distance,amplitude"
    expected = 0.4 * np.arange(1, 5) / 4
    assert [float(r[0]) for r in rows] == list(expected)
    cfg = UlaConfig(2, 299792458.0 / 140e9 / 2.0, 140e9)
    exc = normalize_power(gaussian_excitation(cfg, 0.0), 1.0)
    for r in rows:
        d = float(r[0])
        assert float(r[1]) == abs(field_at(cfg, exc, Point2(0.0, d)))


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


def test_compare_evaluates_each_box_once(tmp_path, monkeypatch):
    batches = []
    field_points = ulabeam.metrics.field_points

    def counting(cfg, exc, px, py, occ=None):
        batches.append(px.size)
        return field_points(cfg, exc, px, py, occ)

    monkeypatch.setattr(ulabeam.metrics, "field_points", counting)
    data = {
        "array": {"n_elements": 64, "spacing_mode": "half_wavelength", "carrier_freq_hz": 140e9},
        "user": {"x": 0.0, "y": 1.0},
        "beams": [{"type": "gaussian", "theta_deg": 0.0}, {"type": "focus"}],
        "obstacles": [{"type": "none"}, {"type": "circle", "x": 0.02, "y": 0.5, "radius": 0.01}],
        "error_box": {"half_width_x": 0.05, "half_width_y": 0.05, "nx": 3, "ny": 4},
    }
    rc = main(["compare", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path), "--levels", "3"])
    assert rc == 0
    # one 12-sample batch per (beam, obstacle) pair, shared by its CDF and its average
    assert batches == [12] * 4


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
