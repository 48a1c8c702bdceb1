"""Compare the CLI's outputs of two source trees, run by run.

Usage: python3 tools/cli_diff.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository (``src/ulabeam`` and
``scenarios/``). Both trees run the same command lines:

- every command (analyze, synthesize, simulate, compare, optimize) on
  every shipped scenario (each tree's own ``scenarios/*.yaml``), simulate
  with ``--line-cut 1.5,200``;
- a curving scene whose obstacle hides the whole aperture, through
  synthesize, simulate, optimize and compare (the plan is infeasible);
- eight curving scenes on 1,024 elements through optimize and
  synthesize, which with the infeasible scene above reach all six
  returns of the planner (``plan_with_fallback``): the negative-curvature
  fallback; an unnecessary plan decided by the negative curvature (the
  positive one is infeasible); a two-beam plan; a far obstacle, which the
  negative-curvature fallback clears on the whole array; a primary with
  no reverse-curvature secondary; a two-beam plan whose secondary's cut
  is bounded where the primary's ends; an unnecessary plan decided by the
  positive curvature; and a positive-curvature primary that uses the
  full array;
- eight scenes of extreme but finite numbers, each through the command
  that once exited 1 or warned on it: optimize on a user 1e160 m away,
  on a 2-element array 8e300 m apart, on a user 6.7e160 m to the side
  and on a 2-element scene whose lengths run from 1e-84 to 1e99 m,
  synthesize on a 64-element array 1e300 m apart, optimize on a
  3-element array at 2.8e-300 Hz, analyze on a Bessel beam whose user is
  1e306 m away, and synthesize on a focus 1e12 m away at 1e306 Hz;
- analyze on a steered Bessel beam behind an off-axis circle and behind
  an off-axis rect;
- simulate on a grid whose first node lies on a circle's boundary, with
  a shadow tangent within a subnormal of horizontal;
- analyze on ``bessel_axis`` at a carrier frequency of 0 Hz, and
  simulate on ``bessel_axis`` with 64 elements behind a circle of radius
  1e199 m, whose square overflows;
- analyze on ``bessel_axis`` with 64 elements at ``alpha_deg`` 2e-311,
  whose propagation limits overflow, and at 1e-300, whose beam reaches
  the user with fewer elements than an array has, and with 2 elements at
  3.07e-310, whose maximum spacing overflows;
- simulate and analyze on ``bessel_axis`` with 64 elements behind a rect
  whose x edges are +-1e308 m and behind a circle of radius 0.25 m
  centered 1e200 m to the side;
- simulate on ``bessel_axis`` at ``--grid 81,40``, whose odd node count
  puts the middle x node on 0.0;
- simulate on ``bessel_axis`` with 64 elements on a 9 x 7 grid with x in
  +-1e150 m and y in 1e149..2e150 m, with ``--line-cut 1e149,5``: phases
  k r of up to about 7e153 rad;
- analyze on ``bessel_axis`` with 64 elements and ``obstacle`` given
  twice (a rect, then none), and simulate on it with ``user.x`` given
  twice (duplicate keys);
- compare on a 64-element scene whose error box is centred on x = 0 with
  an even ``nx`` (every sample pairs with its mirror in the field kernel),
  and five 64-element compare scenes that exit 2 naming a scenario key:
  a box that reaches behind the array, a user inside the second obstacle,
  a box buried in the only obstacle, a negative ``half_width_x`` and an
  ``nx`` of 1;
- ``compare --levels 1`` and ``simulate --grid 3`` (usage errors);
- three invalid simulate requests on ``self_healing_cuboid``: a
  decreasing ``x_range``, ``--line-cut=1.5,1`` and ``--grid=-1,5`` (the
  ``=`` form, since argparse reads a bare ``-1,5`` as an option);
- six scenes with a beam or rect value out of range, each rejected by a
  message that names its key: analyze on ``bessel_axis`` with 64 elements
  at ``alpha_deg`` 5e-324 (0 radians) and at ``theta_deg`` 90, simulate
  on it behind a rect whose x edges are equal and behind one whose
  ``y_n`` is 0, optimize on the two-beam planner scene at ``w`` 0, and
  compare on a 64-element scene whose Bessel beam has ``alpha_deg`` 90;
- six scenes that the library rejects, each named by the keys of the
  parameters it checked: simulate on ``bessel_axis`` with 64 elements
  behind a circle of radius 0, and with ``theta_deg`` 30 (not steerable),
  analyze on it with ``spacing_mode: explicit`` and ``spacing_m`` 0,
  compare on a 64-element scene whose Bessel beam has ``theta_deg`` 20
  and ``alpha_deg`` 75 (not steerable), and optimize on the two-beam
  planner scene with the user at y = 0.5 m, before the obstacle's far
  edge, and at ``w`` 1e101;
- simulate on ``bessel_axis`` with 64 elements on a grid whose
  ``y_range`` starts at 0, and on ``self_healing_cuboid`` with
  ``--line-cut=1.5,1`` on a grid whose ``y_range`` reaches 1e160 m, whose
  y**2 overflows in the kernel (the cut is reported first);
- optimize and synthesize on a 64-element curving scene whose user is
  almost in line with the array (x 3,200 m, y 9 m): optimize solves the
  plan, and synthesize cannot build it.

With the seven shipped scenarios that makes 106 runs.

Every run is a fresh ``python -m ulabeam.cli`` process with the tree's
``src`` on ``PYTHONPATH``, in its own working directory, with the scenario
copied there as ``scenario.yaml`` and output to ``out/``; so paths in
messages are the same in both trees. The script compares exit codes,
stdout, stderr, the names of the files written and their bytes. It
prints one line per run and exits 0 when every run is byte-identical, 1
on any difference, and 2 on bad arguments or when Python, so set up,
would import ``ulabeam`` from somewhere other than the tree's ``src``.

A CSV file that differs only in its numbers (same header, row count,
non-numeric cells and non-finite cells) is reported as drift: for each
column, the largest |new - old| over the column's largest finite |value|
in either tree. Any other difference is reported as ``DIFF``.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("analyze", "synthesize", "simulate", "compare", "optimize")

# A rect wider than the aperture hides every element from the user, so no
# curving beam can bend around it.
_INFEASIBLE_HEAD = """\
array:
  n_elements: 64
  spacing_mode: half_wavelength
  carrier_freq_hz: 140000000000.0
user:
  x: 0.0
  y: 0.6
power_budget: 1.0
"""
INFEASIBLE = _INFEASIBLE_HEAD + """\
beam:
  type: curving
  w: 1.0
obstacle:
  type: rect
  x_r1: 0.5
  x_r2: -0.5
  y_n: 0.15
  y_f: 0.55
grid:
  x_range: [-0.5, 0.5]
  y_range: [0.05, 1.0]
  nx: 20
  ny: 20
"""
INFEASIBLE_COMPARE = _INFEASIBLE_HEAD + """\
beams:
  - type: focus
  - type: curving
    w: 1.0
obstacles:
  - type: rect
    x_r1: 0.5
    x_r2: -0.5
    y_n: 0.15
    y_f: 0.55
error_box:
  half_width_x: 0.05
  half_width_y: 0.05
  nx: 5
  ny: 5
"""

# Planner scenes: label -> (user x, user y, rect (x_r1, x_r2, y_n, y_f), w).
PLANNER = {
    "negative_fallback": (0.0, 1.0, (0.08, -0.90, 0.15, 0.55), 1.0),
    "unnecessary": (-0.05, 1.0, (0.05, -0.90, 0.10, 0.50), 1.0),
    "two_beam": (0.0, 1.0, (0.14, -0.14, 0.10, 0.57), 1.0),
    "far_obstacle": (0.0, 1.0, (-1.86, -2.14, 0.10, 0.57), 1.0),
    "no_secondary": (0.0, 1.0, (0.30, -0.10, 0.10, 0.50), 2.0),
    "clamped_secondary": (0.07, 0.86, (0.0, -0.04, 0.46, 0.57), 1.0),
    "positive_unnecessary": (
        -0.46922913407961575,
        0.351005966668638,
        (0.6745831984132615, 0.033572577358564226, 0.1211082881317152, 0.21358156447904164),
        0.231298062317091,
    ),
    "full_array_primary": (
        -0.3296809196857353,
        1.22593343693787,
        (0.8457464093940377, 0.22113796415125297, 0.45980786270665025, 0.9726945645125373),
        2.3772944614055542,
    ),
}
# A user almost in line with the array, on 64 elements: the plan is solved,
# but its phases find no tangent for element 0 (ROADMAP item 10).
IN_LINE_USER = (
    3199.69380069604,
    8.956016591784554,
    (-0.04655037364984701, -0.0925950333537483, 3.606079547795165, 6.182321646193966),
    1.4560008356132104,
    64,
)


# Extreme scenes: label -> (command, (user x, user y, rect, w, N, explicit
# spacing or None for half-wavelength, carrier frequency)).
EXTREME = {
    "huge_user_distance": ("optimize", (0.0, 1e160, (0.1, -0.1, 0.3, 0.5), 1.0)),
    "no_best_vertex": (
        "optimize",
        (
            0.0,
            1.0,
            (4.929595226941069e155, -4.929595226941069e155, 8.788757825799525e-200, 1.3183136738699289e-199),
            2.9035569747574905e160,
            2,
            8.182259636637394e300,
            8.920417103551834e100,
        ),
    ),
    "pinned_solve_assert": (
        "optimize",
        (
            6.707909796214506e160,
            32.37009941841077,
            (8.503507511589003e160, -8.503507511589003e160, 0.2, 0.20000000000020002),
            1.0,
            3,
            7.058036998462971e300,
        ),
    ),
    "phase_overflow": ("synthesize", (0.0, 1.0, (0.1, -0.1, 0.2, 0.3), 1e10, 64, 1e300)),
    "matmul_warning": (
        "optimize",
        (0.0, 1.0, (0.05, -0.05, 0.2, 0.20000000000020002), 1.0, 3, None, 2.846241208551663e-300),
    ),
    "pinned_solve_rounding": (
        "optimize",
        (
            -8.887629045465305e-84,
            47.682160334920155,
            (3.538163208491615e48, -5.927345688447419e95, 9.170806982666714e-55, 44.50407206776284),
            993.7135445987072,
            2,
            1.3414397884608778e99,
            7.560775913239614e86,
        ),
    ),
}
BESSEL_FAR_USER = """\
array:
  n_elements: 64
  spacing_mode: half_wavelength
  carrier_freq_hz: 140000000000.0
user:
  x: 0.0
  y: 1.0e+306
beam:
  type: bessel
  theta_deg: 0.0
  alpha_deg: 10.0
"""
FOCUS_PHASE_OVERFLOW = """\
array:
  n_elements: 64
  spacing_mode: explicit
  spacing_m: 0.001
  carrier_freq_hz: 1.0e+306
user:
  x: 0.0
  y: 1.0e+12
beam:
  type: focus
"""
_STEERED_BESSEL_HEAD = """\
array:
  n_elements: 1024
  spacing_mode: half_wavelength
  carrier_freq_hz: 140000000000.0
user:
  x: 0.3
  y: 2.0
"""
STEERED_BESSEL = {
    "steered_bessel_circle": _STEERED_BESSEL_HEAD + """\
beam:
  type: bessel
  theta_deg: 12.0
  alpha_deg: 30.0
obstacle:
  type: circle
  x: -0.1
  y: 0.35
  radius: 0.08
""",
    "steered_bessel_rect": _STEERED_BESSEL_HEAD + """\
beam:
  type: bessel
  theta_deg: -8.0
  alpha_deg: 22.0
obstacle:
  type: rect
  x_r1: 0.25
  x_r2: 0.05
  y_n: 0.1
  y_f: 0.4
""",
}
# The first grid node, (2.225e-311, 0.5), lies on the circle's lowest point.
CIRCLE_BOUNDARY_POINT = """\
array:
  n_elements: 2
  spacing_mode: explicit
  spacing_m: 0.0078125
  carrier_freq_hz: 140000000000.0
user:
  x: 0.0
  y: 1.0
beam:
  type: gaussian
  theta_deg: 0.0
obstacle:
  type: circle
  x: 0.0
  y: 0.75
  radius: 0.25
grid:
  x_range: [2.225e-311, 0.5]
  y_range: [0.5, 1.0]
  nx: 2
  ny: 2
"""

# Compare scenes on 64 elements: label -> (user y, error box, obstacles).
_SMALL_BOX = "  half_width_x: 0.05\n  half_width_y: 0.05\n"
_COMPARE_RECT = "  - type: rect\n    x_r1: {0}\n    x_r2: -{0}\n    y_n: {1}\n    y_f: {2}\n"
COMPARE_64 = {
    "centred_even_box": (
        1.0,
        "  half_width_x: 0.1\n  half_width_y: 0.05\n  nx: 20\n  ny: 5\n",
        "  - type: none\n" + _COMPARE_RECT.format(0.14, 0.1, 0.57),
    ),
    "box_behind_array": (0.04, _SMALL_BOX, "  - type: none\n"),
    "user_inside_obstacle": (0.6, _SMALL_BOX, "  - type: none\n" + _COMPARE_RECT.format(0.01, 0.5, 0.7)),
    "buried_box": (0.6, _SMALL_BOX, _COMPARE_RECT.format(0.2, 0.5, 0.7)),
    "negative_half_width": (1.0, "  half_width_x: -0.1\n  half_width_y: 0.1\n", "  - type: none\n"),
    "one_box_column": (1.0, _SMALL_BOX + "  nx: 1\n", "  - type: none\n"),
}


def compare_scene(user_y: float, box: str, obstacles: str) -> str:
    return f"""\
array:
  n_elements: 64
  spacing_mode: half_wavelength
  carrier_freq_hz: 140000000000.0
user:
  x: 0.0
  y: {user_y}
beams:
  - type: focus
  - type: gaussian
    theta_deg: 0.0
  - type: bessel
    theta_deg: 0.0
    alpha_deg: 20.0
obstacles:
{obstacles}error_box:
{box}"""


# Obstacles of bessel_axis at 64 elements: label -> obstacle mapping.
FAR_OBSTACLES = {
    "far_rect": "  type: rect\n  x_r1: 1.0e+308\n  x_r2: -1.0e+308\n  y_n: 0.1\n  y_f: 0.5\n",
    "far_circle": "  type: circle\n  x: 1.0e+200\n  y: 0.5\n  radius: 0.25\n",
}


def planner_scene(
    x_u: float, y_u: float, rect: tuple, w: float, n: int = 1024, spacing: float | None = None, freq: float = 140e9
) -> str:
    edges = "".join(f"  {key}: {value}\n" for key, value in zip(("x_r1", "x_r2", "y_n", "y_f"), rect))
    mode = "half_wavelength" if spacing is None else f"explicit\n  spacing_m: {spacing}"
    return f"""\
array:
  n_elements: {n}
  spacing_mode: {mode}
  carrier_freq_hz: {freq}
user:
  x: {x_u}
  y: {y_u}
beam:
  type: curving
  w: {w}
obstacle:
  type: rect
{edges}"""


def runs(tree: Path) -> dict[str, tuple[str, list[str]]]:
    """label -> (scenario text, command words) of every run, for the tree's scenarios."""
    out = {}
    shipped = tree / "scenarios"
    for path in sorted(shipped.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        for command in COMMANDS:
            extra = ["--line-cut", "1.5,200"] if command == "simulate" else []
            out[f"{command} {path.stem}"] = (text, [command, *extra])
    for command in ("synthesize", "simulate", "optimize"):
        out[f"{command} infeasible_curving"] = (INFEASIBLE, [command])
    out["compare infeasible_curving"] = (INFEASIBLE_COMPARE, ["compare"])
    for label, scene in PLANNER.items():
        for command in ("optimize", "synthesize"):
            out[f"{command} {label}"] = (planner_scene(*scene), [command])
    for label, (command, scene) in EXTREME.items():
        out[f"{command} {label}"] = (planner_scene(*scene), [command])
    out["analyze bessel_far_user"] = (BESSEL_FAR_USER, ["analyze"])
    out["synthesize focus_phase_overflow"] = (FOCUS_PHASE_OVERFLOW, ["synthesize"])
    for label, text in STEERED_BESSEL.items():
        out[f"analyze {label}"] = (text, ["analyze"])
    out["simulate circle_boundary_point"] = (CIRCLE_BOUNDARY_POINT, ["simulate"])
    axis_text = (shipped / "bessel_axis.yaml").read_text(encoding="utf-8")
    zero_freq = axis_text.replace("carrier_freq_hz: 140000000000.0", "carrier_freq_hz: 0.0")
    out["analyze zero_frequency"] = (zero_freq, ["analyze"])
    small_axis = axis_text.replace("n_elements: 1024", "n_elements: 64")
    # the circle's radius squared overflows a float
    circle = "  type: circle\n  x: 0.0\n  y: 1.0e+200\n  radius: 1.0e+199\n"
    out["simulate huge_circle"] = (small_axis.replace("  type: none\n", circle), ["simulate"])
    for label, alpha in (("tiny_alpha_overflow", "2.0e-311"), ("tiny_alpha_one_element", "1.0e-300")):
        out[f"analyze {label}"] = (small_axis.replace("alpha_deg: 20.0", f"alpha_deg: {alpha}"), ["analyze"])
    two_axis = axis_text.replace("n_elements: 1024", "n_elements: 2")
    out["analyze tiny_alpha_max_spacing"] = (two_axis.replace("alpha_deg: 20.0", "alpha_deg: 3.07e-310"), ["analyze"])
    # obstacles beyond 1e100 m, whose shadow geometry overflowed
    for label, obstacle in FAR_OBSTACLES.items():
        far = small_axis.replace("  type: none\n", obstacle)
        for command in ("simulate", "analyze"):
            out[f"{command} {label}"] = (far, [command])
    # a key given twice, which the parser once resolved to its last value
    rect_then_none = "  type: rect\n  x_r1: 0.1\n  x_r2: -0.1\n  y_n: 0.2\n  y_f: 0.4\nobstacle:\n  type: none\n"
    out["analyze duplicate obstacle"] = (small_axis.replace("  type: none\n", rect_then_none), ["analyze"])
    two_xs = small_axis.replace("user:\n  x: 0.0\n", "user:\n  x: 0.0\n  x: 0.3\n")
    out["simulate duplicate user.x"] = (two_xs, ["simulate"])
    # an odd grid size puts the middle x node of the symmetric range on 0.0
    out["simulate bessel_axis --grid 81,40"] = (axis_text, ["simulate", "--grid", "81,40"])
    # points up to about 2e150 m away, whose phases k r reach about 7e153 rad
    far_field = small_axis.replace("x_range: [-0.8, 0.8]", "x_range: [-1.0e+150, 1.0e+150]")
    far_field = far_field.replace("y_range: [0.02, 2.0]", "y_range: [1.0e+149, 2.0e+150]")
    out["simulate far-field grid"] = (far_field, ["simulate", "--grid", "9,7", "--line-cut", "1e149,5"])
    for label, scene in COMPARE_64.items():
        out[f"compare {label}"] = (compare_scene(*scene), ["compare"])
    compare_text = (shipped / "compare_four_positions.yaml").read_text(encoding="utf-8")
    out["compare --levels 1"] = (compare_text, ["compare", "--levels", "1"])
    smoke_text = (shipped / "smoke_two_element.yaml").read_text(encoding="utf-8")
    out["simulate --grid 3"] = (smoke_text, ["simulate", "--grid", "3"])
    cuboid_text = (shipped / "self_healing_cuboid.yaml").read_text(encoding="utf-8")
    decreasing = cuboid_text.replace("x_range: [-0.7, 0.7]", "x_range: [0.7, -0.7]")
    out["simulate decreasing x_range"] = (decreasing, ["simulate"])
    for flag in ("--line-cut=1.5,1", "--grid=-1,5"):
        out[f"simulate {flag}"] = (cuboid_text, ["simulate", flag])
    # beam and rect values out of the library's ranges, named by their key
    out["analyze subnormal alpha_deg"] = (small_axis.replace("alpha_deg: 20.0", "alpha_deg: 5.0e-324"), ["analyze"])
    out["analyze right-angle theta_deg"] = (small_axis.replace("theta_deg: 0.0", "theta_deg: 90.0"), ["analyze"])
    for label, rect in (("equal x edges", (0.1, 0.1, 0.2, 0.4)), ("y_n of 0", (0.1, -0.1, 0.0, 0.4))):
        edges = "".join(f"  {key}: {value}\n" for key, value in zip(("x_r1", "x_r2", "y_n", "y_f"), rect))
        out[f"simulate rect {label}"] = (small_axis.replace("  type: none\n", "  type: rect\n" + edges), ["simulate"])
    out["optimize w of 0"] = (planner_scene(*PLANNER["two_beam"][:3], 0.0), ["optimize"])
    right_alpha = compare_scene(1.0, _SMALL_BOX, "  - type: none\n").replace("alpha_deg: 20.0", "alpha_deg: 90.0")
    out["compare right-angle alpha_deg"] = (right_alpha, ["compare"])
    # values the library rejects, named by the keys of the parameters it checked
    zero_circle = "  type: circle\n  x: 0.0\n  y: 0.5\n  radius: 0.0\n"
    out["simulate circle radius 0"] = (small_axis.replace("  type: none\n", zero_circle), ["simulate"])
    zero_spacing = small_axis.replace("spacing_mode: half_wavelength", "spacing_mode: explicit\n  spacing_m: 0.0")
    out["analyze explicit spacing_m 0"] = (zero_spacing, ["analyze"])
    out["simulate non-steerable bessel"] = (small_axis.replace("theta_deg: 0.0", "theta_deg: 30.0"), ["simulate"])
    steered = compare_scene(1.0, _SMALL_BOX, "  - type: none\n").replace("alpha_deg: 20.0", "alpha_deg: 75.0")
    out["compare non-steerable bessel"] = (steered.replace("    theta_deg: 0.0\n    alpha", "    theta_deg: 20.0\n    alpha"), ["compare"])
    out["optimize obstacle beyond the user"] = (planner_scene(0.0, 0.5, PLANNER["two_beam"][2], 1.0), ["optimize"])
    out["optimize w of 1e101"] = (planner_scene(*PLANNER["two_beam"][:3], 1e101), ["optimize"])
    # a grid from y = 0, named by its key; a bad cut reported before a grid that fails in the kernel
    out["simulate grid from y = 0"] = (small_axis.replace("y_range: [0.02, 2.0]", "y_range: [0.0, 2.0]"), ["simulate"])
    overflowing = cuboid_text.replace("y_range: [0.02, 1.6]", "y_range: [0.02, 1.0e+160]")
    out["simulate --line-cut=1.5,1 overflowing grid"] = (overflowing, ["simulate", "--line-cut=1.5,1"])
    for command in ("optimize", "synthesize"):
        out[f"{command} in_line_user"] = (planner_scene(*IN_LINE_USER), [command])
    return out

def environment(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")


def imports_own_source(tree: Path) -> bool:
    """True if a process with the tree's environment imports ulabeam from the tree."""
    probe = [sys.executable, "-c", "import ulabeam; print(ulabeam.__file__)"]
    done = subprocess.run(probe, env=environment(tree), capture_output=True, text=True)
    return done.returncode == 0 and Path(done.stdout.strip()).resolve().is_relative_to(tree.resolve() / "src")


def run(tree: Path, scenario: str, words: list[str], work: Path) -> dict:
    """Run one command line in a fresh directory; its exit code, streams and files."""
    work.mkdir(parents=True)
    (work / "scenario.yaml").write_text(scenario, encoding="utf-8")
    argv = [sys.executable, "-m", "ulabeam.cli", *words[:1], "--scenario", "scenario.yaml", "--out", "out", *words[1:]]
    done = subprocess.run(argv, cwd=work, env=environment(tree), capture_output=True)
    out = work / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr, "files": files}


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def csv_drift(old: bytes, new: bytes) -> dict[str, float] | None:
    """Per column, max |new - old| over the largest finite |value|; None if more than numbers differ."""
    try:
        old_rows, new_rows = ([line.split(",") for line in data.decode("ascii").splitlines()] for data in (old, new))
    except UnicodeDecodeError:
        return None
    if not old_rows or len(old_rows) != len(new_rows) or old_rows[0] != new_rows[0]:
        return None
    header = old_rows[0]
    delta, scale = [0.0] * len(header), [0.0] * len(header)
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        if not len(old_row) == len(new_row) == len(header):
            return None
        for c, (a, b) in enumerate(zip(old_row, new_row)):
            x, y = _number(a), _number(b)
            if a != b and not (x is not None and y is not None and math.isfinite(x) and math.isfinite(y)):
                return None
            for v in (x, y):
                if v is not None and math.isfinite(v):
                    scale[c] = max(scale[c], abs(v))
            if a != b:
                delta[c] = max(delta[c], abs(y - x))
    return {name: d / s if d else 0.0 for name, d, s in zip(header, delta, scale)}


def differences(old: dict, new: dict) -> tuple[list[str], list[str]]:
    """What differs between two runs: (structural differences, numeric CSV drifts)."""
    found = [key for key in ("exit code", "stdout", "stderr") if old[key] != new[key]]
    if old["files"].keys() != new["files"].keys():
        found.append(f"files {sorted(old['files'])} vs {sorted(new['files'])}")
    drifts = []
    for name in old["files"]:
        if name not in new["files"] or old["files"][name] == new["files"][name]:
            continue
        drift = csv_drift(old["files"][name], new["files"][name]) if name.endswith(".csv") else None
        if drift is None:
            found.append(name)
        else:
            drifts.append(f"{name} (" + ", ".join(f"{column} {d:.2g}" for column, d in drift.items()) + ")")
    return found, drifts


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_tree, new_tree = map(Path, argv)
    for tree in (old_tree, new_tree):
        if not (tree / "src" / "ulabeam" / "cli.py").is_file() or not (tree / "scenarios").is_dir():
            print(f"{tree}: not a source tree (expected src/ulabeam and scenarios/)", file=sys.stderr)
            return 2
        if not imports_own_source(tree):
            print(f"{tree}: python does not import ulabeam from {tree / 'src'}", file=sys.stderr)
            return 2
    old_runs, new_runs = runs(old_tree), runs(new_tree)
    labels = [*new_runs, *(label for label in old_runs if label not in new_runs)]
    same = 0
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        for i, label in enumerate(labels):
            if label not in old_runs or label not in new_runs:
                print(f"{label}: DIFF run exists in one tree only", flush=True)
                continue
            old = run(old_tree, *old_runs[label], Path(tmp) / f"old{i}")
            new = run(new_tree, *new_runs[label], Path(tmp) / f"new{i}")
            found, drifts = differences(old, new)
            same += not (found or drifts)
            parts = []
            if found:
                parts.append(f"DIFF {', '.join(found)}")
            if drifts:
                parts.append(f"DRIFT {', '.join(drifts)}")
            status = "; ".join(parts) or "same"
            print(f"{label}: exit {new['exit code']}, {len(new['files'])} files: {status}", flush=True)
    print(f"{same} of {len(labels)} runs byte-identical")
    return 0 if same == len(labels) else 1

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
