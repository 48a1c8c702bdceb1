"""Command-line front end.

Subcommands: analyze, synthesize, simulate, compare, optimize. Scenarios
are YAML files (strict schema, unknown and duplicate keys rejected);
angles are degrees in files and flags, radians internally. Outputs are
deterministic: JSON reports use sorted keys, CSV floats are
repr-formatted, nothing carries a timestamp. Exit codes: 0 success, 2
usage or validation, 3 optimizer did not produce a beam, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np
import yaml

from .array_geometry import SPEED_OF_LIGHT, CircleObstacle, ParameterError, Point2, RectObstacle, UlaConfig
from .array_geometry import circle_bounding_square
from .bessel import BesselDesign, bessel_phases, max_spacing, min_elements, propagation_limits, self_heal
from .curving import AvoidanceScenario, plan_excitation, plan_with_fallback
from .field import field_grid, focusing_excitation, gaussian_excitation, line_cut, normalize_power
from .field import write_columns, write_field_csv, write_field_pgm
from .metrics import ErrorBox, empirical_cdf, scenario_amplitudes, write_cdf_csv

__all__ = ["main"]


class UsageError(ValueError):
    pass


class PlanNotSolved(Exception):
    """Curving optimizer returned no beam; the message is the plan's."""


# Library parameter -> "section.key" in the scenario file.
_KEYS = {
    "n_elements": "array.n_elements", "spacing": "array.spacing_m", "carrier_freq": "array.carrier_freq_hz",
    "wavelength": "array.carrier_freq_hz", "user.x": "user.x", "user.y": "user.y",
    "theta_a": "beam.theta_deg", "alpha": "beam.alpha_deg", "weight_w": "beam.w",
    **{edge: f"obstacle.{edge}" for edge in ("x_r1", "x_r2", "y_n", "y_f", "radius")},
    "center.x": "obstacle.x", "center.y": "obstacle.y",
    **{key: f"error_box.{key}" for key in ("half_width_x", "half_width_y", "nx", "ny")},
}
# A circle is planned around its bounding square, whose edges are made of
# its center coordinate and radius.
_CIRCLE_EDGES = {"x_r1": ("x", "radius"), "x_r2": ("x", "radius"), "y_n": ("y", "radius"), "y_f": ("y", "radius")}


@dataclasses.dataclass(frozen=True)
class _Keys:
    """Where the library objects built in a ``with keys:`` block sit in the scenario file.

    A ParameterError raised in the block is re-raised once, as a UsageError
    naming the scenario key of each parameter: ``obstacles[2].x_r1,
    obstacles[2].x_r2: require x_r1 > x_r2``. beam and obstacle are the
    prefixes of the "beam" and "obstacle" sections; renames maps a key to
    the keys that stand for it (a half-wavelength array's spacing_m is its
    carrier_freq_hz, a planned circle's _CIRCLE_EDGES).
    """

    beam: str = "beam"
    obstacle: str = "obstacle"
    renames: dict = dataclasses.field(default_factory=dict)

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, error, traceback) -> None:
        if isinstance(error, ParameterError):
            sections = (_KEYS[param].split(".") for param in error.params)
            names = [f"{getattr(self, s, s)}.{k}" for s, key in sections for k in self.renames.get(key, (key,))]
            raise UsageError(f"{', '.join(dict.fromkeys(names))}: {error}") from None


# -- scenario file parsing ------------------------------------------------


class _UniqueKeys:
    """Loader mixin: a mapping that repeats a key is a ConstructorError.

    It overrides only the constructor, so it serves the pure-Python and the
    libyaml safe loaders alike. Keys merged in with ``<<`` may be overridden.
    """

    def construct_mapping(self, node, deep=False):
        merge = "tag:yaml.org,2002:merge"
        own = [key for key, _ in node.value if key.tag != merge] if isinstance(node, yaml.MappingNode) else []
        mapping = super().construct_mapping(node, deep=deep)
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark, f"found duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return mapping


class _ScenarioLoader(_UniqueKeys, yaml.SafeLoader):
    pass


def _mapping(node, ctx: str) -> dict:
    if not isinstance(node, dict):
        raise UsageError(f"{ctx} must be a mapping")
    return dict(node)


def _no_extra(d: dict, ctx: str) -> None:
    if d:
        raise UsageError(f"unknown key(s) in {ctx}: {', '.join(sorted(map(str, d)))}")


def _pop(d: dict, key: str, ctx: str, required: bool = True, default=None):
    if key in d:
        return d.pop(key)
    if required:
        raise UsageError(f"missing key '{key}' in {ctx}")
    return default


def _number(v, ctx: str) -> float:
    # YAML 1.1 reads unsigned exponents like 140.0e9 as strings; accept them.
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise UsageError(f"{ctx} must be a number")
    try:
        value = float(v)
    except ValueError:
        raise UsageError(f"{ctx} must be a number") from None
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise UsageError(f"{ctx} must be a finite number")
    return value


def _integer(v, ctx: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise UsageError(f"{ctx} must be an integer")
    return v


def _count(v, ctx: str, most=math.inf) -> int:
    """A size the user gives: an integer from 2 to most."""
    count = _integer(v, ctx)
    if count < 2:
        raise UsageError(f"{ctx} must be >= 2")
    if count > most:
        raise UsageError(f"{ctx} must be at most {most}")
    return count


def _parse_array(node) -> tuple[UlaConfig, _Keys]:
    d = _mapping(node, "array")
    n = _integer(_pop(d, "n_elements", "array"), "array.n_elements")
    freq = _number(_pop(d, "carrier_freq_hz", "array"), "array.carrier_freq_hz")
    mode = _pop(d, "spacing_mode", "array")
    if mode == "half_wavelength":
        # UlaConfig checks the frequency before the spacing made from it.
        spacing = SPEED_OF_LIGHT / freq / 2.0 if freq else math.inf
    elif mode == "explicit":
        spacing = _number(_pop(d, "spacing_m", "array"), "array.spacing_m")
    else:
        raise UsageError("array.spacing_mode must be half_wavelength or explicit")
    _no_extra(d, "array")
    keys = _Keys(renames={"spacing_m": ("carrier_freq_hz",)} if mode == "half_wavelength" else {})
    with keys:
        cfg = UlaConfig(n_elements=n, spacing=spacing, carrier_freq=freq)
    # Every excitation holds a few floats per element; UlaConfig checks n >= 2.
    _count(n, "array.n_elements", most=1_000_000)
    return cfg, keys


def _parse_user(node) -> Point2:
    d = _mapping(node, "user")
    x = _number(_pop(d, "x", "user"), "user.x")
    y = _number(_pop(d, "y", "user"), "user.y")
    _no_extra(d, "user")
    if not y > 0:
        raise UsageError("user.y must be positive")
    return Point2(x, y)


_OBSTACLE_KEYS = {"none": (), "rect": ("x_r1", "x_r2", "y_n", "y_f"), "circle": ("x", "y", "radius")}
_BEAM_ANGLES = {"gaussian": ("theta_deg",), "focus": (), "bessel": ("theta_deg", "alpha_deg"), "curving": ()}


def _parse_obstacle(node, ctx: str = "obstacle"):
    d = _mapping(node, ctx)
    typ = _pop(d, "type", ctx)
    if not (isinstance(typ, str) and typ in _OBSTACLE_KEYS):
        raise UsageError(f"{ctx}.type must be none, rect or circle")
    v = {k: _number(_pop(d, k, ctx), f"{ctx}.{k}") for k in _OBSTACLE_KEYS[typ]}
    _no_extra(d, ctx)
    with _Keys(obstacle=ctx):
        if typ == "rect":
            return RectObstacle(**v)
        if typ == "circle":
            return CircleObstacle(center=Point2(v["x"], v["y"]), radius=v["radius"])
    return None


def _parse_beam(node, ctx: str = "beam") -> dict:
    d = _mapping(node, ctx)
    typ = _pop(d, "type", ctx)
    if not (isinstance(typ, str) and typ in _BEAM_ANGLES):
        raise UsageError(f"{ctx}.type must be gaussian, focus, bessel or curving")
    beam = {"type": typ, **{k: _number(_pop(d, k, ctx), f"{ctx}.{k}") for k in _BEAM_ANGLES[typ]}}
    if typ == "curving":
        beam["w"] = _number(_pop(d, "w", ctx, required=False, default=1.0), f"{ctx}.w")
        design = _pop(d, "design_obstacle", ctx, required=False)
        if design is not None:
            obstacle = _parse_obstacle(design, f"{ctx}.design_obstacle")
            if obstacle is None:
                raise UsageError(f"{ctx}.design_obstacle cannot be of type none")
            beam["design_obstacle"] = obstacle
    _no_extra(d, ctx)
    # The angles in the degrees the file gives, on the radians the library is given.
    if "theta_deg" in beam and not abs(math.radians(beam["theta_deg"])) < math.pi / 2:
        raise UsageError(f"{ctx}.theta_deg must be in (-90, 90)")
    if "alpha_deg" in beam and not 0.0 < math.radians(beam["alpha_deg"]) < math.pi / 2:
        raise UsageError(f"{ctx}.alpha_deg must be in (0, 90)")
    return beam


def _parse_grid(node) -> tuple[tuple[float, float], tuple[float, float], int, int]:
    d = _mapping(node, "grid")

    def _range(key: str) -> tuple[float, float]:
        v = _pop(d, key, "grid")
        if not (isinstance(v, list) and len(v) == 2):
            raise UsageError(f"grid.{key} must be a [min, max] pair")
        lo, hi = _number(v[0], f"grid.{key}[0]"), _number(v[1], f"grid.{key}[1]")
        if not lo < hi:
            raise UsageError(f"grid.{key} must be increasing")
        return lo, hi

    xr = _range("x_range")
    yr = _range("y_range")
    if not yr[0] > 0:
        raise UsageError("grid.y_range must lie strictly in front of the array (y > 0)")
    nx = _count(_pop(d, "nx", "grid"), "grid.nx")
    ny = _count(_pop(d, "ny", "grid"), "grid.ny")
    _no_extra(d, "grid")
    return xr, yr, nx, ny


def _parse_error_box(node, user: Point2) -> ErrorBox:
    """The box around the user; a key the file leaves out takes ErrorBox's default."""
    given = {}
    if node is not None:
        d = _mapping(node, "error_box")
        for key in ("half_width_x", "half_width_y"):
            given[key] = _number(_pop(d, key, "error_box"), f"error_box.{key}")
        for key in ("nx", "ny"):
            if key in d:
                given[key] = _integer(d.pop(key), f"error_box.{key}")
        _no_extra(d, "error_box")
    with _Keys():
        box = ErrorBox(center=user, **given)
    # compare evaluates the box once for every (beam, obstacle) entry
    _count(box.nx * box.ny, "error_box.nx * error_box.ny", most=100_000)
    if not user.y - box.half_width_y > 0:
        raise UsageError("error_box.half_width_y must be less than user.y: the box must lie in front of the array")
    return box


def load_scenario(path: str, compare: bool = False) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_ScenarioLoader)
        except yaml.YAMLError as e:
            raise UsageError(f"cannot parse scenario file {path}: {e}") from e
    d = _mapping(raw, "scenario file")
    out: dict = {}
    out["cfg"], out["keys"] = _parse_array(_pop(d, "array", "scenario file"))
    out["user"] = _parse_user(_pop(d, "user", "scenario file"))
    budget = _pop(d, "power_budget", "scenario file", required=False, default=1.0)
    out["power_budget"] = _number(budget, "power_budget")
    if not out["power_budget"] > 0:
        raise UsageError("power_budget must be positive")
    if compare:
        beams = _pop(d, "beams", "scenario file")
        if not (isinstance(beams, list) and len(beams) >= 2):
            raise UsageError("compare requires a 'beams' list with at least 2 entries")
        out["beams"] = [_parse_beam(b, f"beams[{i}]") for i, b in enumerate(beams)]
        obstacles = _pop(d, "obstacles", "scenario file")
        if not (isinstance(obstacles, list) and len(obstacles) >= 1):
            raise UsageError("compare requires an 'obstacles' list with at least 1 entry")
        out["obstacles"] = [_parse_obstacle(o, f"obstacles[{i}]") for i, o in enumerate(obstacles)]
        out["error_box"] = _parse_error_box(_pop(d, "error_box", "scenario file", required=False), out["user"])
    else:
        out["beam"] = _parse_beam(_pop(d, "beam", "scenario file"))
        obstacle = _pop(d, "obstacle", "scenario file", required=False)
        out["obstacle"] = None if obstacle is None else _parse_obstacle(obstacle)
        grid = _pop(d, "grid", "scenario file", required=False)
        out["grid"] = None if grid is None else _parse_grid(grid)
    _no_extra(d, "scenario file")
    return out


# -- beam construction ----------------------------------------------------


def _report(obj) -> dict:
    """JSON form of a result dataclass: each field under its own name.

    A solution's trajectory and a circle's center are merged in as their
    own fields, the element mask is written as its count n_active, the
    relaxed vertex is never written, and a result's most_violated and
    solution are left out when None.
    """
    d = {}
    for field in dataclasses.fields(obj):
        name, value = field.name, getattr(obj, field.name)
        if name in ("trajectory", "center"):
            d.update(_report(value))
        elif name == "active_elements":
            d["n_active"] = int(value.sum())
        elif name == "relaxed_vertex" or (value is None and name in ("most_violated", "solution")):
            continue
        elif dataclasses.is_dataclass(value):
            d[name] = _report(value)
        else:
            d[name] = value
    return d


def _curving_plan(cfg: UlaConfig, user: Point2, beam: dict, obstacle, keys: _Keys):
    if obstacle is None and "design_obstacle" in beam:
        obstacle, keys = beam["design_obstacle"], dataclasses.replace(keys, obstacle=f"{keys.beam}.design_obstacle")
    if obstacle is None:
        raise UsageError("curving beam requires an obstacle (or design_obstacle)")
    circle = isinstance(obstacle, CircleObstacle)
    with dataclasses.replace(keys, renames={**keys.renames, **_CIRCLE_EDGES}) if circle else keys:
        rect = circle_bounding_square(obstacle) if circle else obstacle
        scen = AvoidanceScenario(user=user, obstacle=rect, cfg=cfg, weight_w=beam["w"])
    return plan_with_fallback(scen)


def _beam_excitation(
    cfg: UlaConfig, user: Point2, beam: dict, obstacle, budget: float, keys: _Keys, out: str | None = None
):
    """Excitation for one beam entry, its parameters named by keys; curving beams also return a plan dict.

    A curving plan that yields no beam raises PlanNotSolved, after writing
    its diagnostic to curving.json in out when out is given.
    """
    typ = beam["type"]
    if typ == "gaussian":
        return normalize_power(gaussian_excitation(cfg, math.radians(beam["theta_deg"])), budget), None
    if typ == "focus":
        return normalize_power(focusing_excitation(cfg, user), budget), None
    if typ == "bessel":
        design = BesselDesign(math.radians(beam["theta_deg"]), math.radians(beam["alpha_deg"]))
        with keys:
            return normalize_power(bessel_phases(cfg, design), budget), None
    plan = _curving_plan(cfg, user, beam, obstacle, keys)
    diagnostic = _report(plan)
    if plan.status != "solved":
        if out is not None:
            _write_json(os.path.join(out, "curving.json"), diagnostic)
        raise PlanNotSolved(plan.message)
    return plan_excitation(cfg, plan, budget), diagnostic


# -- output helpers -------------------------------------------------------


def _non_finite(obj, at: str = "") -> str | None:
    """Key path of the first non-finite float in a report, in written order; None if there is none."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else at
    if isinstance(obj, dict):
        items = [(f"{at}.{k}" if at else str(k), v) for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        items = [(f"{at}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return None
    for key, value in items:
        found = _non_finite(value, key)
        if found is not None:
            return found
    return None


def _write_json(path: str, obj) -> None:
    # Non-finite floats raise here, before the file is opened: no command
    # writes Infinity or NaN, which are not JSON. The error names the file
    # and the key path of the first one.
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        bad = _non_finite(obj)
        if bad is None:
            raise
        raise ValueError(f"{os.path.basename(path)}: {bad} is not finite") from None
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _beam_echo(beam: dict) -> dict:
    return {k: _obstacle_echo(v) if k == "design_obstacle" else v for k, v in beam.items()}


def _obstacle_echo(obstacle) -> dict:
    if obstacle is None:
        return {"type": "none"}
    return {"type": "rect" if isinstance(obstacle, RectObstacle) else "circle", **_report(obstacle)}


# -- subcommands ----------------------------------------------------------


def cmd_analyze(scenario: dict, out: str) -> int:
    beam = scenario["beam"]
    if beam["type"] != "bessel":
        raise UsageError("analyze requires a bessel beam")
    cfg: UlaConfig = scenario["cfg"]
    user: Point2 = scenario["user"]
    design = BesselDesign(math.radians(beam["theta_deg"]), math.radians(beam["alpha_deg"]))
    reason = design.steering_failure()
    report: dict = dict.fromkeys(["marginal", "d_max", "d_lim", "max_spacing", "min_elements_for", "self_heal"])
    report.update(steerable=reason is None, reason=reason)
    if reason is None:
        report["marginal"] = design.marginal()
        with scenario["keys"]:
            limits = propagation_limits(cfg, design)
            report["max_spacing"] = max_spacing(design, cfg.wavelength())
        report.update(d_max=limits.d_max, d_lim=limits.d_lim)
        d_user = user.norm()
        report["min_elements_for"] = {"distance": d_user, "n_elements": min_elements(d_user, design, cfg.spacing)}
        obstacle = scenario["obstacle"]
        if obstacle is not None:
            report["self_heal"] = _report(self_heal(cfg, design, obstacle))
    _write_json(os.path.join(out, "analyze.json"), report)
    return 0


def cmd_synthesize(scenario: dict, out: str) -> int:
    cfg, user = scenario["cfg"], scenario["user"]
    beam, obstacle, keys = scenario["beam"], scenario["obstacle"], scenario["keys"]
    exc, plan = _beam_excitation(cfg, user, beam, obstacle, scenario["power_budget"], keys, out)
    columns = (np.arange(cfg.n_elements), cfg.element_xs(), exc.magnitudes, exc.phases, exc.active.astype(int))
    write_columns(os.path.join(out, "excitation.csv"), "index,x,gamma,phase_rad,active", columns)
    if plan is not None:
        _write_json(os.path.join(out, "curving.json"), plan)
    return 0


def cmd_simulate(scenario: dict, out: str, grid_override, line_cut_spec) -> int:
    cfg, user = scenario["cfg"], scenario["user"]
    if scenario["grid"] is None:
        raise UsageError("simulate requires a grid section in the scenario file")
    x_range, y_range, nx, ny = scenario["grid"]
    if grid_override is not None:
        nx, ny = grid_override
    # field_grid and its writers hold about 200 bytes per node
    _count(nx * ny, "grid.nx * grid.ny" if grid_override is None else "--grid: nx * ny", most=1_000_000)
    beam, obstacle = scenario["beam"], scenario["obstacle"]
    exc, plan = _beam_excitation(cfg, user, beam, obstacle, scenario["power_budget"], scenario["keys"], out)
    # The cut runs before the grid and both before any file is written, so an
    # invalid request fails before the full field is computed and leaves no file.
    # It follows a steered beam's axis, and the ray to the user otherwise.
    if line_cut_spec is not None:
        angle = math.radians(beam["theta_deg"]) if "theta_deg" in beam else math.atan2(user.x, user.y)
        pairs = line_cut(cfg, exc, angle, *line_cut_spec, obstacle)
    grid = field_grid(cfg, exc, x_range, y_range, nx, ny, obstacle)
    write_field_csv(grid, os.path.join(out, "field.csv"))
    write_field_pgm(grid, os.path.join(out, "field.pgm"))
    meta = {
        "beam": _beam_echo(beam),
        "carrier_freq_hz": cfg.carrier_freq,
        "n_elements": cfg.n_elements,
        "nx": nx,
        "ny": ny,
        "obstacle": _obstacle_echo(obstacle),
        "power_budget": scenario["power_budget"],
        "spacing": cfg.spacing,
        "user": _report(user),
        "x_range": list(x_range),
        "y_range": list(y_range),
    }
    if plan is not None:
        meta["curving_plan"] = plan
    _write_json(os.path.join(out, "simulate.json"), meta)
    if line_cut_spec is not None:
        write_columns(os.path.join(out, "linecut.csv"), "distance,amplitude", zip(*pairs))
    return 0


def _beam_labels(beams: list[dict]) -> list[str]:
    seen: dict[str, int] = {}
    labels = []
    for beam in beams:
        t = beam["type"]
        seen[t] = seen.get(t, 0) + 1
        labels.append(t if seen[t] == 1 else f"{t}_{seen[t]}")
    return labels


def cmd_compare(scenario: dict, out: str, levels: int) -> int:
    cfg, user = scenario["cfg"], scenario["user"]
    box, obstacles, budget = scenario["error_box"], scenario["obstacles"], scenario["power_budget"]
    # Every beam is planned, and every entry evaluated, before any file is
    # written: a command that fails leaves no output files behind. Only a
    # curving beam's excitation depends on the obstacle, so it is planned per
    # obstacle; any other beam shares one. One kernel call evaluates the user
    # and the box of every (excitation, obstacle) entry.
    beams, entries = scenario["beams"], []
    for i, beam in enumerate(beams):
        keys = dataclasses.replace(scenario["keys"], beam=f"beams[{i}]")
        if beam["type"] != "curving":
            exc = _beam_excitation(cfg, user, beam, None, budget, keys)[0]
        for j, obstacle in enumerate(obstacles):
            if beam["type"] == "curving":
                planned = dataclasses.replace(keys, obstacle=f"obstacles[{j}]")
                exc = _beam_excitation(cfg, user, beam, obstacle, budget, planned)[0]
            entries.append((exc, obstacle))
    points, amps = scenario_amplitudes(cfg, entries, box)
    cdfs, rows = [], []
    for b, label in enumerate(_beam_labels(beams)):
        own = slice(b * len(obstacles), (b + 1) * len(obstacles))
        for j, (point, box_amps) in enumerate(zip(points[own], amps[own])):
            if box_amps.size == 0:
                raise UsageError(f"every error_box sample lies inside obstacles[{j}]")
            if math.isnan(point):
                raise UsageError(f"user lies inside obstacles[{j}]")
            rows.append((label, f"scenario_{j}", point, float(box_amps.mean())))
        cdfs.append((label, empirical_cdf(np.concatenate(amps[own]), levels)))
    for label, pairs in cdfs:
        write_cdf_csv(pairs, os.path.join(out, f"cdf_{label}.csv"))
    write_columns(os.path.join(out, "compare.csv"), "beam,scenario,point_amplitude,area_average", zip(*rows))
    return 0


def cmd_optimize(scenario: dict, out: str) -> int:
    beam = scenario["beam"]
    if beam["type"] != "curving":
        raise UsageError("optimize requires a curving beam")
    plan = _curving_plan(scenario["cfg"], scenario["user"], beam, scenario["obstacle"], scenario["keys"])
    _write_json(os.path.join(out, "optimize.json"), _report(plan))
    if plan.status in ("solved", "unnecessary"):
        return 0
    print(f"optimization failed: {plan.message}", file=sys.stderr)
    return 3


# -- argument parsing -----------------------------------------------------


def _flag_pair(value: str, name: str, first, second) -> tuple:
    """Parse a "first,second" flag value with the two converters."""
    parts = value.split(",")
    if len(parts) != 2:
        raise UsageError(f"--{name} expects two comma-separated values")
    try:
        return first(parts[0]), second(parts[1])
    except ValueError as e:
        raise UsageError(f"--{name}: {e}") from e


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ulabeam", description="ULA beam synthesis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "synthesize", "simulate", "compare", "optimize"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--out", default=".", help="output directory")
        if name == "simulate":
            p.add_argument("--grid", default=None, help="override grid size as nx,ny")
            p.add_argument("--line-cut", default=None, help="axis line cut as distance,samples")
        if name == "compare":
            p.add_argument("--levels", type=int, default=101, help="CDF amplitude levels")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, compare=args.command == "compare")
        os.makedirs(args.out, exist_ok=True)
        if args.command == "analyze":
            return cmd_analyze(scenario, args.out)
        if args.command == "synthesize":
            return cmd_synthesize(scenario, args.out)
        if args.command == "simulate":
            grid_override = cut = None
            if args.grid is not None:
                grid_override = _flag_pair(args.grid, "grid", int, int)
                _count(min(grid_override), "--grid: nx and ny")
            if args.line_cut is not None:
                cut = _flag_pair(args.line_cut, "line-cut", float, int)
                _count(cut[1], "--line-cut: samples", most=1_000_000)
                if not cut[0] > 0:
                    raise UsageError("--line-cut: distance must be positive")
                # line_cut scales the distance by samples before it divides.
                if not math.isfinite(cut[0] * cut[1]):
                    raise UsageError("--line-cut: distance times samples must be finite")
            return cmd_simulate(scenario, args.out, grid_override, cut)
        if args.command == "compare":
            # empirical_cdf holds one float and one pair per level
            return cmd_compare(scenario, args.out, _count(args.levels, "--levels", most=1_000_000))
        return cmd_optimize(scenario, args.out)
    except PlanNotSolved as e:
        print(f"optimizer did not produce a beam: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        path = getattr(e, "filename", None)
        print(f"io error{f' ({path})' if path else ''}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
