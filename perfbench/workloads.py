"""Seeded scenario generators for the three benchmark workloads.

Every workload is a sequence of rounds. A round is a short list of CLI
commands whose mix (beam families, obstacle kinds, grid and box sizes,
element counts) is the same in every round; the seed and the round index
only jitter positions, angles and weights. So any prefix of whole rounds
carries the same kind of work whatever the seed, and no two rounds hand
the program identical inputs (a result cache across commands gains
nothing that a real one-command-per-process user would not see).

A command is a dict: ``argv`` (the CLI words before ``--scenario``),
``scenario`` (the mapping written to the YAML file), and ``meta`` (what
the output checks and the work counts need to know about it).
"""

from __future__ import annotations

import copy
import math

import numpy as np
import yaml

C0 = 299792458.0
FREQ_HZ = 140000000000.0

# field_map: one large field_grid batch per command plus a line cut.
FIELD_GRID = (80, 80)
FIELD_CUT = (1.5, 200)
FIELD_N = 1024

# coverage_compare: error-box sample counts, one command each per round.
COMPARE_BOXES = ((17, 17), (21, 21), (21, 21), (25, 25))

# design_sweep: element counts spread log-uniformly over [2**6, 2**12],
# one stratum per scenario of a round.
SWEEP_LOG2_N = (6.0, 12.0)
# Scenario kinds in each design_sweep round, in the order they are shuffled
# from. Bessel kinds run analyze + synthesize (analyze only when the design
# is not steerable); curving kinds run synthesize + optimize.
SWEEP_KINDS = (
    ("bessel", "rect"),
    ("bessel", "rect"),
    ("bessel", "rect"),
    ("bessel", "circle"),
    ("bessel", "circle"),
    ("bessel", "none"),
    ("bessel", "none"),
    ("bessel_unsteerable", "none"),
    ("curving", "rect"),
    ("curving", "rect"),
    ("curving", "rect"),
    ("curving", "rect"),
    ("curving", "rect"),
    ("curving", "circle"),
    ("curving", "design_rect"),
    ("curving", "design_rect"),
)
SWEEP_PER_ROUND = len(SWEEP_KINDS)

WORKLOADS = ("field_map", "coverage_compare", "design_sweep")
_WORKLOAD_KEY = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def _rng(seed: int, workload: str, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_KEY[workload], round_index])


def _array(n: int) -> dict:
    return {"n_elements": int(n), "spacing_mode": "half_wavelength", "carrier_freq_hz": FREQ_HZ}


def half_aperture(n: int) -> float:
    return (n - 1) * (C0 / FREQ_HZ / 2.0) / 2.0


def load_shipped(scenarios_dir: str, name: str) -> dict:
    with open(f"{scenarios_dir}/{name}.yaml", "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def dump(scenario: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario, fh, sort_keys=False)


# -- field_map ------------------------------------------------------------


def _field_map_round(shipped: dict, rng: np.random.Generator) -> list[dict]:
    rect = copy.deepcopy(shipped["self_healing_cuboid"])
    dx, dy = rng.uniform(-0.03, 0.03), rng.uniform(-0.02, 0.02)
    o = rect["obstacle"]
    o.update(x_r1=float(o["x_r1"] + dx), x_r2=float(o["x_r2"] + dx), y_n=float(o["y_n"] + dy), y_f=float(o["y_f"] + dy))
    rect["beam"]["alpha_deg"] = float(rect["beam"]["alpha_deg"] + rng.uniform(-2, 2))

    circle = copy.deepcopy(shipped["self_healing_cylinder"])
    o = circle["obstacle"]
    o.update(
        x=float(o["x"] + rng.uniform(-0.03, 0.03)),
        y=float(o["y"] + rng.uniform(-0.03, 0.03)),
        radius=float(o["radius"] * rng.uniform(0.9, 1.1)),
    )
    circle["beam"]["alpha_deg"] = float(circle["beam"]["alpha_deg"] + rng.uniform(-2, 2))

    free = copy.deepcopy(shipped["bessel_axis"])
    free["beam"]["theta_deg"] = float(rng.uniform(-3, 3))
    free["beam"]["alpha_deg"] = float(free["beam"]["alpha_deg"] + rng.uniform(-2, 2))

    curve = copy.deepcopy(shipped["curving_centered_cuboid"])
    curve["user"]["x"] = float(curve["user"]["x"] + rng.uniform(-0.03, 0.03))
    dx = rng.uniform(-0.02, 0.02)
    o = curve["obstacle"]
    o.update(x_r1=float(o["x_r1"] + dx), x_r2=float(o["x_r2"] + dx))
    # Below w = 1 this scene's plan comes out "unnecessary" and simulate
    # exits 3 in milliseconds, which would make round times seed-dependent.
    curve["beam"]["w"] = float(rng.uniform(1.0, 1.25))

    grid = f"{FIELD_GRID[0]},{FIELD_GRID[1]}"
    cut = f"{FIELD_CUT[0]},{FIELD_CUT[1]}"
    out = []
    for kind, scen in (("rect", rect), ("circle", circle), ("free", free), ("curving", curve)):
        scen["array"] = _array(FIELD_N)
        out.append(
            {
                "argv": ["simulate", "--grid", grid, "--line-cut", cut],
                "scenario": scen,
                "meta": {"kind": kind, "n": FIELD_N, "grid": FIELD_GRID, "cut": FIELD_CUT},
            }
        )
    return out


# -- coverage_compare -----------------------------------------------------


def _coverage_round(shipped: dict, rng: np.random.Generator, round_index: int) -> list[dict]:
    base = shipped["compare_four_positions"]
    canonical_box = (base["error_box"]["nx"], base["error_box"]["ny"])
    use_canonical = round_index == 0
    out = []
    for i in rng.permutation(len(COMPARE_BOXES)):
        nx, ny = COMPARE_BOXES[i]
        scen = copy.deepcopy(base)
        if use_canonical and (nx, ny) == canonical_box:
            use_canonical = False
        else:
            scen["user"]["x"] = float(rng.uniform(-0.02, 0.02))
            # Obstacles move sideways only: moving these boxes 1 cm nearer
            # the array turns the curving plan from solved to unnecessary,
            # and compare then exits 3 without writing anything.
            for o in scen["obstacles"]:
                dx = rng.uniform(-0.04, 0.04)
                o.update(x_r1=float(o["x_r1"] + dx), x_r2=float(o["x_r2"] + dx))
            scen["error_box"] = {
                "half_width_x": float(rng.uniform(0.07, 0.13)),
                "half_width_y": float(rng.uniform(0.07, 0.13)),
                "nx": int(nx),
                "ny": int(ny),
            }
        box = scen["error_box"]
        out.append(
            {
                "argv": ["compare", "--levels", "101"],
                "scenario": scen,
                "meta": {
                    "kind": "compare",
                    "n": int(scen["array"]["n_elements"]),
                    "beams": len(scen["beams"]),
                    "obstacles": len(scen["obstacles"]),
                    "box": (int(box["nx"]), int(box["ny"])),
                },
            }
        )
    return out


# -- design_sweep ---------------------------------------------------------


def _rect_dict(xc: float, half_w: float, y_n: float, y_f: float) -> dict:
    return {"type": "rect", "x_r1": float(xc + half_w), "x_r2": float(xc - half_w), "y_n": float(y_n), "y_f": float(y_f)}


def _sweep_scenario(kind: str, obstacle_kind: str, n: int, rng: np.random.Generator) -> dict:
    r = half_aperture(n)
    scen: dict = {"array": _array(n)}
    if kind.startswith("bessel"):
        theta = rng.uniform(-20.0, 20.0)
        if kind == "bessel":
            alpha = rng.uniform(abs(theta) + 2.0, 85.0 - abs(theta))
        else:
            alpha = rng.uniform(0.5, max(1.0, abs(theta) - 0.5))
            theta = math.copysign(max(abs(theta), alpha + 0.5), theta)
        y_u = r * rng.uniform(1.0, 3.0)
        scen["user"] = {"x": float(y_u * math.tan(math.radians(theta))), "y": float(y_u)}
        scen["beam"] = {"type": "bessel", "theta_deg": float(theta), "alpha_deg": float(alpha)}
        if obstacle_kind == "rect":
            y_n = r * rng.uniform(0.1, 0.5)
            scen["obstacle"] = _rect_dict(r * rng.uniform(-0.3, 0.3), r * rng.uniform(0.05, 0.3), y_n, y_n + r * rng.uniform(0.1, 0.6))
        elif obstacle_kind == "circle":
            rad = r * rng.uniform(0.05, 0.25)
            scen["obstacle"] = {
                "type": "circle",
                "x": float(r * rng.uniform(-0.3, 0.3)),
                "y": float(rad + r * rng.uniform(0.1, 0.6)),
                "radius": float(rad),
            }
        else:
            scen["obstacle"] = {"type": "none"}
        return scen
    # Curving: geometry drawn at the array's own scale, so solved,
    # unnecessary and infeasible plans all occur (roughly 88/6/6 percent).
    y_u = r * rng.uniform(1.0, 3.0)
    scen["user"] = {"x": float(r * rng.uniform(-0.6, 0.6)), "y": float(y_u)}
    y_n = y_u * rng.uniform(0.1, 0.6)
    y_f = rng.uniform(y_n + 0.05 * r, 0.9 * y_u)
    xc = r * rng.uniform(-1.5, 1.5)
    half_w = r * rng.uniform(0.05, 0.75)
    beam = {"type": "curving", "w": float(rng.uniform(0.2, 5.0))}
    if obstacle_kind == "rect":
        scen["obstacle"] = _rect_dict(xc, half_w, y_n, y_f)
    elif obstacle_kind == "circle":
        rad = min(half_w, 0.5 * (y_f - y_n))
        scen["obstacle"] = {"type": "circle", "x": float(xc), "y": float(0.5 * (y_n + y_f)), "radius": float(rad)}
    else:
        beam["design_obstacle"] = _rect_dict(xc, half_w, y_n, y_f)
        scen["obstacle"] = {"type": "none"}
    scen["beam"] = beam
    return scen


def _sweep_round(rng: np.random.Generator) -> list[dict]:
    lo, hi = SWEEP_LOG2_N
    strata = (np.arange(SWEEP_PER_ROUND) + rng.uniform(size=SWEEP_PER_ROUND)) / SWEEP_PER_ROUND
    ns = np.round(2.0 ** (lo + (hi - lo) * strata)).astype(int)
    ns = ns[rng.permutation(SWEEP_PER_ROUND)]
    out = []
    for (kind, obstacle_kind), n in zip(SWEEP_KINDS, ns):
        scen = _sweep_scenario(kind, obstacle_kind, int(n), rng)
        if kind == "curving":
            commands = (["synthesize"], ["optimize"])
        elif kind == "bessel":
            commands = (["analyze"], ["synthesize"])
        else:
            commands = (["analyze"],)
        for argv in commands:
            out.append({"argv": argv, "scenario": scen, "meta": {"kind": kind, "n": int(n)}})
    return out


SHIPPED = {
    "field_map": ("self_healing_cuboid", "self_healing_cylinder", "bessel_axis", "curving_centered_cuboid"),
    "coverage_compare": ("compare_four_positions",),
    "design_sweep": (),
}


class Generator:
    """Yields the commands of one workload, round by round, from a seed."""

    def __init__(self, workload: str, seed: int, scenarios_dir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.shipped = {name: load_shipped(scenarios_dir, name) for name in SHIPPED[workload]}

    def round(self, index: int) -> list[dict]:
        rng = _rng(self.seed, self.workload, index)
        if self.workload == "field_map":
            return _field_map_round(self.shipped, rng)
        if self.workload == "coverage_compare":
            return _coverage_round(self.shipped, rng, index)
        return _sweep_round(rng)


def field_points(cmd: dict) -> list[int]:
    """Points per field evaluation call the command makes, from its inputs."""
    meta = cmd["meta"]
    if cmd["argv"][0] == "simulate":
        return [meta["grid"][0] * meta["grid"][1], meta["cut"][1]]
    if meta["kind"] == "compare":
        box = meta["box"][0] * meta["box"][1]
        calls = meta["beams"] * meta["obstacles"]
        # pooled box, area-average box, user point for every (beam, obstacle).
        return [box, box, 1] * calls
    return []


def unique_metric_pairs(cmd: dict) -> int:
    """Distinct point-element pairs a compare command needs: box plus user, per beam and obstacle."""
    meta = cmd["meta"]
    if meta["kind"] != "compare":
        return 0
    return meta["beams"] * meta["obstacles"] * (meta["box"][0] * meta["box"][1] + 1) * meta["n"]


def input_properties(commands: list[dict]) -> dict:
    """Input properties an optimisation may depend on, over the commands run."""
    if not commands:
        return {}
    ns = [c["meta"]["n"] for c in commands]
    with_obstacle = 0
    with_curving = 0
    for c in commands:
        scen = c["scenario"]
        if "obstacles" in scen:
            with_obstacle += any(o["type"] != "none" for o in scen["obstacles"])
            with_curving += any(b["type"] == "curving" for b in scen["beams"])
        else:
            with_obstacle += scen["obstacle"]["type"] != "none" or "design_obstacle" in scen["beam"]
            with_curving += scen["beam"]["type"] == "curving"
    points = [p for c in commands for p in field_points(c)]
    return {
        "commands": len(commands),
        "share_with_obstacle": with_obstacle / len(commands),
        "share_with_curving_beam": with_curving / len(commands),
        "n_elements_min": min(ns),
        "n_elements_max": max(ns),
        "n_elements_median": float(np.median(ns)),
        "field_calls": len(points),
        "points_per_field_call_min": min(points) if points else 0,
        "points_per_field_call_max": max(points) if points else 0,
        "points_per_field_call_median": float(np.median(points)) if points else 0.0,
    }
