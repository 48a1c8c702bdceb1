"""Scenario-file parsing properties, over random scenarios.

Proves:
- An unknown key, or a non-finite number (NaN, +-inf, or an integer too
  large for a float), at any nesting level of a scenario file exits 2, and
  the message names that level: array, user, beam, beams[i], obstacle,
  obstacles[i], a beam's design_obstacle, grid and error_box.
- A key repeated in one mapping, or a key that is a list or a mapping,
  at any of those levels or at the top exits 2 with PyYAML's message,
  which names the line and column of the offending key; a key merged in
  with ``<<`` may still be overridden.
- simulate --grid 2,2 of a random valid single-beam scenario echoes the
  beam and the obstacle in simulate.json equal to the parsed input, with
  the defaults filled in (curving w = 1.0, a missing obstacle as type
  none).
"""

import copy
import json
import math

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ulabeam.cli import load_scenario, main

# The shipped curving scene: the planner solves it for every w >= 1.
CURVING_USER = {"x": -0.1, "y": 1.0}
CUBOID = {"type": "rect", "x_r1": 0.14, "x_r2": -0.14, "y_n": 0.10, "y_f": 0.57}
NONFINITE = (math.nan, math.inf, -math.inf, 10**400)
# Every key the schema knows; injected keys are drawn outside this set.
KNOWN_KEYS = {
    "array", "n_elements", "carrier_freq_hz", "spacing_mode", "spacing_m", "user", "x", "y",
    "power_budget", "beam", "beams", "type", "theta_deg", "alpha_deg", "w", "design_obstacle",
    "obstacle", "obstacles", "x_r1", "x_r2", "y_n", "y_f", "radius", "grid", "x_range",
    "y_range", "nx", "ny", "error_box", "half_width_x", "half_width_y",
}
SUPPRESS = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]

coord = st.floats(-0.5, 0.5)


@st.composite
def arrays(draw) -> dict:
    array = {"n_elements": draw(st.integers(2, 48)), "carrier_freq_hz": draw(st.floats(1e9, 3e11))}
    if draw(st.booleans()):
        array.update(spacing_mode="explicit", spacing_m=draw(st.floats(1e-4, 1e-2)))
    else:
        array["spacing_mode"] = "half_wavelength"
    return array


@st.composite
def obstacles(draw, allow_none: bool = True) -> dict:
    kinds = ["rect", "circle"] + (["none"] if allow_none else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "none":
        return {"type": "none"}
    if kind == "rect":
        x_r2, y_n = draw(coord), draw(st.floats(0.05, 0.5))
        return {
            "type": "rect",
            "x_r1": x_r2 + draw(st.floats(0.01, 0.5)),
            "x_r2": x_r2,
            "y_n": y_n,
            "y_f": y_n + draw(st.floats(0.01, 0.5)),
        }
    radius = draw(st.floats(0.01, 0.2))
    return {"type": "circle", "x": draw(coord), "y": radius + draw(st.floats(0.01, 0.5)), "radius": radius}


@st.composite
def beams(draw) -> dict:
    kind = draw(st.sampled_from(("gaussian", "focus", "bessel", "curving")))
    if kind == "gaussian":
        return {"type": "gaussian", "theta_deg": draw(st.floats(-60.0, 60.0))}
    if kind == "focus":
        return {"type": "focus"}
    if kind == "bessel":
        # steerable: |theta| <= alpha < 90 - |theta|
        theta = draw(st.floats(-40.0, 40.0))
        alpha = draw(st.floats(max(abs(theta), 1.0), 89.0 - abs(theta)))
        return {"type": "bessel", "theta_deg": theta, "alpha_deg": alpha}
    beam = {"type": "curving"}
    if draw(st.booleans()):
        beam["w"] = draw(st.floats(1.0, 5.0))
    if draw(st.booleans()):
        beam["design_obstacle"] = draw(obstacles(allow_none=False))
    return beam


@st.composite
def grids(draw) -> dict:
    x0, y0 = draw(coord), draw(st.floats(0.01, 1.0))
    return {
        "x_range": [x0, x0 + draw(st.floats(0.01, 1.0))],
        "y_range": [y0, y0 + draw(st.floats(0.01, 1.0))],
        "nx": draw(st.integers(2, 9)),
        "ny": draw(st.integers(2, 9)),
    }


@st.composite
def single_scenarios(draw) -> dict:
    """A valid simulate scenario; curving beams get the shipped solvable scene."""
    beam = draw(beams())
    if beam["type"] == "curving":
        scen = {
            "array": {"n_elements": 1024, "spacing_mode": "half_wavelength", "carrier_freq_hz": 140e9},
            "user": dict(CURVING_USER),
            "beam": beam,
        }
        if "design_obstacle" in beam and draw(st.booleans()):
            beam["design_obstacle"] = dict(CUBOID)
            if draw(st.booleans()):
                scen["obstacle"] = {"type": "none"}
        else:
            scen["obstacle"] = dict(CUBOID)
    else:
        scen = {"array": draw(arrays()), "user": {"x": draw(coord), "y": draw(st.floats(0.5, 3.0))}, "beam": beam}
        if draw(st.booleans()):
            scen["obstacle"] = draw(obstacles())
    scen["grid"] = draw(grids())
    if draw(st.booleans()):
        scen["power_budget"] = draw(st.floats(0.1, 10.0))
    return scen


@st.composite
def compare_scenarios(draw) -> dict:
    """A compare scenario; at least one curving beam carries a design obstacle."""
    curving = {"type": "curving", "design_obstacle": draw(obstacles(allow_none=False))}
    return {
        "array": draw(arrays()),
        "user": {"x": draw(coord), "y": draw(st.floats(0.5, 3.0))},
        "beams": draw(st.lists(beams(), min_size=1, max_size=3)) + [curving],
        "obstacles": draw(st.lists(obstacles(), min_size=1, max_size=3)),
        "error_box": {"half_width_x": draw(st.floats(0.01, 0.2)), "half_width_y": draw(st.floats(0.01, 0.2))},
    }


def _levels(scen: dict) -> list[tuple[str, dict, list[str]]]:
    """(context name, mapping, its float-valued keys) for every nested mapping."""
    levels = [
        ("array", scen["array"], ["carrier_freq_hz"] + (["spacing_m"] if "spacing_m" in scen["array"] else [])),
        ("user", scen["user"], ["x", "y"]),
    ]
    if "beam" in scen:
        beam_list = [("beam", scen["beam"])]
    else:
        beam_list = [(f"beams[{i}]", b) for i, b in enumerate(scen["beams"])]
    obstacle_list = [(f"obstacles[{i}]", o) for i, o in enumerate(scen.get("obstacles", []))]
    if "obstacle" in scen:
        obstacle_list.append(("obstacle", scen["obstacle"]))
    for ctx, beam in beam_list:
        levels.append((ctx, beam, [k for k in ("theta_deg", "alpha_deg", "w") if k in beam]))
        if "design_obstacle" in beam:
            obstacle_list.append((f"{ctx}.design_obstacle", beam["design_obstacle"]))
    for ctx, obstacle in obstacle_list:
        levels.append((ctx, obstacle, [k for k in obstacle if k != "type"]))
    if "grid" in scen:
        levels.append(("grid", scen["grid"], ["x_range", "y_range"]))
    if "error_box" in scen:
        levels.append(("error_box", scen["error_box"], ["half_width_x", "half_width_y"]))
    return levels


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=SUPPRESS)
@given(st.data())
def test_unknown_or_nonfinite_at_any_level_exits_2_naming_it(tmp_path, capsys, data):
    compare = data.draw(st.booleans())
    scen = data.draw(compare_scenarios() if compare else single_scenarios())
    ctx, mapping, float_keys = data.draw(st.sampled_from(_levels(scen)))
    if float_keys and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(float_keys))
        bad = data.draw(st.sampled_from(NONFINITE))
        if key in ("x_range", "y_range"):
            j = data.draw(st.integers(0, 1))
            mapping[key][j] = bad
            expected = f"error: {ctx}.{key}[{j}] must be a finite number\n"
        else:
            mapping[key] = bad
            expected = f"error: {ctx}.{key} must be a finite number\n"
    else:
        names = st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True)
        key = data.draw(names.filter(lambda k: k not in KNOWN_KEYS))
        mapping[key] = 1.0
        expected = f"error: unknown key(s) in {ctx}: {key}\n"
    path = tmp_path / "scen.yaml"
    path.write_text(yaml.safe_dump(scen), encoding="utf-8")
    capsys.readouterr()
    command = "compare" if compare else "simulate"
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "out").exists()


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=SUPPRESS)
@given(st.data())
def test_repeated_or_unhashable_key_at_any_level_exits_2_naming_its_line(tmp_path, capsys, data):
    compare = data.draw(st.booleans())
    scen = data.draw(compare_scenarios() if compare else single_scenarios())
    levels = [scen] + [mapping for _, mapping, _ in _levels(scen)]
    mapping = data.draw(st.sampled_from(levels))
    key = data.draw(st.sampled_from(sorted(mapping)))
    # A marker key, sorted after every schema key, is renamed in the text.
    marker = "zzz_marker"
    mapping[marker] = copy.deepcopy(mapping[key]) if data.draw(st.booleans()) else 1.0
    text = yaml.safe_dump(scen)
    at = text.index(marker)
    line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    path = tmp_path / "scen.yaml"
    if data.draw(st.booleans()):
        problem = f"found duplicate key {key!r}"
        path.write_text(text.replace(marker, key), encoding="utf-8")
    else:
        problem = "found unhashable key"
        path.write_text(text.replace(marker, data.draw(st.sampled_from((f"[{key}, 1]", f"{{{key}: 1}}")))), encoding="utf-8")
    capsys.readouterr()
    command = "compare" if compare else "simulate"
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse scenario file {path}: while constructing a mapping\n")
    assert err.endswith(f'{problem}\n  in "{path}", line {line}, column {column}\n')
    assert not (tmp_path / "out").exists()


def test_keys_merged_in_may_be_overridden(tmp_path):
    path = tmp_path / "scen.yaml"
    path.write_text(
        "array: {n_elements: 8, spacing_mode: half_wavelength, carrier_freq_hz: 1.4e+11}\n"
        "user: {x: 0.0, y: 1.0}\n"
        "beams: [{type: focus}, {type: gaussian, theta_deg: 0.0}]\n"
        "obstacles:\n"
        "  - &rect {type: rect, x_r1: 0.1, x_r2: -0.1, y_n: 0.2, y_f: 0.4}\n"
        "  - <<: *rect\n"
        "    x_r1: 0.3\n",
        encoding="utf-8",
    )
    first, second = load_scenario(str(path), compare=True)["obstacles"]
    assert (first.x_r1, second.x_r1) == (0.1, 0.3)
    assert (first.x_r2, first.y_n, first.y_f) == (second.x_r2, second.y_n, second.y_f)


def _obstacle_echo(obstacle: dict | None) -> dict:
    return {k: v if k == "type" else float(v) for k, v in (obstacle or {"type": "none"}).items()}


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=SUPPRESS)
@given(single_scenarios())
def test_simulate_echoes_beam_and_obstacle_with_defaults(tmp_path, scen):
    path = tmp_path / "scen.yaml"
    path.write_text(yaml.safe_dump(scen), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out), "--grid", "2,2"]) == 0
    meta = json.loads((out / "simulate.json").read_text())
    beam = {k: v if k == "type" else float(v) for k, v in scen["beam"].items() if k != "design_obstacle"}
    if beam["type"] == "curving":
        beam.setdefault("w", 1.0)
    if "design_obstacle" in scen["beam"]:
        beam["design_obstacle"] = _obstacle_echo(scen["beam"]["design_obstacle"])
    assert meta["beam"] == beam
    assert meta["obstacle"] == _obstacle_echo(scen.get("obstacle"))
    assert meta["power_budget"] == scen.get("power_budget", 1.0)
    assert (meta["nx"], meta["ny"]) == (2, 2)
