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

from .array_geometry import (
    SPEED_OF_LIGHT,
    CircleObstacle,
    Point2,
    RectObstacle,
    UlaConfig,
    circle_bounding_square,
)
from .bessel import (
    BesselDesign,
    bessel_phases,
    max_spacing,
    min_elements,
    propagation_limits,
    self_heal,
)
from .curving import AvoidanceScenario, plan_excitation, plan_with_fallback
from .field import (
    field_grid,
    focusing_excitation,
    gaussian_excitation,
    line_cut,
    normalize_power,
    write_columns,
    write_field_csv,
    write_field_pgm,
)
from .metrics import (
    ErrorBox,
    empirical_cdf,
    mean_amplitude,
    scenario_amplitudes,
    write_cdf_csv,
)

__all__ = ["main"]


class UsageError(ValueError):
    pass


class PlanNotSolved(Exception):
    """Curving optimizer returned no beam; the message is the plan's."""


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


def _sample_count(v, ctx: str) -> int:
    count = _integer(v, ctx)
    if count < 2:
        raise UsageError(f"{ctx} must be >= 2")
    return count


def _parse_array(node) -> UlaConfig:
    d = _mapping(node, "array")
    n = _integer(_pop(d, "n_elements", "array"), "array.n_elements")
    freq = _number(_pop(d, "carrier_freq_hz", "array"), "array.carrier_freq_hz")
    if not freq > 0:
        raise UsageError("array.carrier_freq_hz must be positive")
    mode = _pop(d, "spacing_mode", "array")
    if mode == "half_wavelength":
        spacing = SPEED_OF_LIGHT / freq / 2.0
    elif mode == "explicit":
        spacing = _number(_pop(d, "spacing_m", "array"), "array.spacing_m")
    else:
        raise UsageError("array.spacing_mode must be half_wavelength or explicit")
    _no_extra(d, "array")
    return UlaConfig(n_elements=n, spacing=spacing, carrier_freq=freq)


def _parse_user(node) -> Point2:
    d = _mapping(node, "user")
    x = _number(_pop(d, "x", "user"), "user.x")
    y = _number(_pop(d, "y", "user"), "user.y")
    _no_extra(d, "user")
    if not y > 0:
        raise UsageError("user.y must be positive")
    return Point2(x, y)


def _parse_obstacle(node, ctx: str = "obstacle"):
    d = _mapping(node, ctx)
    typ = _pop(d, "type", ctx)
    if typ == "none":
        _no_extra(d, ctx)
        return None
    if typ == "rect":
        fields = {k: _number(_pop(d, k, ctx), f"{ctx}.{k}") for k in ("x_r1", "x_r2", "y_n", "y_f")}
        _no_extra(d, ctx)
        if not fields["x_r1"] > fields["x_r2"]:
            raise UsageError(f"{ctx}.x_r1 must be greater than {ctx}.x_r2")
        if not 0.0 < fields["y_n"] < fields["y_f"]:
            raise UsageError(f"{ctx}.y_n must be positive and less than {ctx}.y_f")
        return RectObstacle(**fields)
    if typ == "circle":
        x = _number(_pop(d, "x", ctx), f"{ctx}.x")
        y = _number(_pop(d, "y", ctx), f"{ctx}.y")
        r = _number(_pop(d, "radius", ctx), f"{ctx}.radius")
        _no_extra(d, ctx)
        return CircleObstacle(center=Point2(x, y), radius=r)
    raise UsageError(f"{ctx}.type must be none, rect or circle")


def _parse_beam(node, ctx: str = "beam") -> dict:
    d = _mapping(node, ctx)
    typ = _pop(d, "type", ctx)
    beam: dict = {"type": typ}
    if typ == "gaussian":
        beam["theta_deg"] = _number(_pop(d, "theta_deg", ctx), f"{ctx}.theta_deg")
    elif typ == "focus":
        pass
    elif typ == "bessel":
        beam["theta_deg"] = _number(_pop(d, "theta_deg", ctx), f"{ctx}.theta_deg")
        beam["alpha_deg"] = _number(_pop(d, "alpha_deg", ctx), f"{ctx}.alpha_deg")
    elif typ == "curving":
        beam["w"] = _number(_pop(d, "w", ctx, required=False, default=1.0), f"{ctx}.w")
        design = _pop(d, "design_obstacle", ctx, required=False)
        if design is not None:
            obstacle = _parse_obstacle(design, f"{ctx}.design_obstacle")
            if obstacle is None:
                raise UsageError(f"{ctx}.design_obstacle cannot be of type none")
            beam["design_obstacle"] = obstacle
    else:
        raise UsageError(f"{ctx}.type must be gaussian, focus, bessel or curving")
    _no_extra(d, ctx)
    # The ranges the library checks, on the radians it is given.
    if "theta_deg" in beam and not abs(math.radians(beam["theta_deg"])) < math.pi / 2:
        raise UsageError(f"{ctx}.theta_deg must be in (-90, 90)")
    if "alpha_deg" in beam and not 0.0 < math.radians(beam["alpha_deg"]) < math.pi / 2:
        raise UsageError(f"{ctx}.alpha_deg must be in (0, 90)")
    if "w" in beam and not beam["w"] > 0:
        raise UsageError(f"{ctx}.w must be positive")
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
    nx = _sample_count(_pop(d, "nx", "grid"), "grid.nx")
    ny = _sample_count(_pop(d, "ny", "grid"), "grid.ny")
    _no_extra(d, "grid")
    return xr, yr, nx, ny


def _parse_error_box(node, user: Point2) -> ErrorBox:
    """The box around the user; a key the file leaves out takes ErrorBox's default."""
    given = {}
    if node is not None:
        d = _mapping(node, "error_box")
        for key in ("half_width_x", "half_width_y"):
            given[key] = _number(_pop(d, key, "error_box"), f"error_box.{key}")
            if not given[key] > 0:
                raise UsageError(f"error_box.{key} must be positive")
        for key in ("nx", "ny"):
            if key in d:
                given[key] = _sample_count(d.pop(key), f"error_box.{key}")
        _no_extra(d, "error_box")
    box = ErrorBox(center=user, **given)
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
    out["cfg"] = _parse_array(_pop(d, "array", "scenario file"))
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
        out["error_box"] = _parse_error_box(
            _pop(d, "error_box", "scenario file", required=False), out["user"]
        )
    else:
        out["beam"] = _parse_beam(_pop(d, "beam", "scenario file"))
        obstacle = _pop(d, "obstacle", "scenario file", required=False)
        out["obstacle"] = None if obstacle is None else _parse_obstacle(obstacle)
        grid = _pop(d, "grid", "scenario file", required=False)
        out["grid"] = None if grid is None else _parse_grid(grid)
    _no_extra(d, "scenario file")
    return out


# -- beam construction ----------------------------------------------------


def _as_rect(obstacle) -> RectObstacle:
    if isinstance(obstacle, CircleObstacle):
        return circle_bounding_square(obstacle)
    return obstacle


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


def _curving_plan(cfg: UlaConfig, user: Point2, beam: dict, obstacle):
    design = obstacle if obstacle is not None else beam.get("design_obstacle")
    if design is None:
        raise UsageError("curving beam requires an obstacle (or design_obstacle)")
    scen = AvoidanceScenario(user=user, obstacle=_as_rect(design), cfg=cfg, weight_w=beam["w"])
    return plan_with_fallback(scen)


def _beam_excitation(cfg: UlaConfig, user: Point2, beam: dict, obstacle, budget: float, out: str | None = None):
    """Excitation for one beam entry; curving beams also return a plan dict.

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
        return normalize_power(bessel_phases(cfg, design), budget), None
    plan = _curving_plan(cfg, user, beam, obstacle)
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
    echo = {k: v for k, v in beam.items() if k != "design_obstacle"}
    if "design_obstacle" in beam:
        echo["design_obstacle"] = _obstacle_echo(beam["design_obstacle"])
    return echo


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
    report: dict = {
        "steerable": reason is None,
        "reason": reason,
        "marginal": None,
        "d_max": None,
        "d_lim": None,
        "max_spacing": None,
        "min_elements_for": None,
        "self_heal": None,
    }
    if reason is None:
        report["marginal"] = design.marginal()
        limits = propagation_limits(cfg, design)
        report["d_max"] = limits.d_max
        report["d_lim"] = limits.d_lim
        report["max_spacing"] = max_spacing(design, cfg.wavelength())
        d_user = user.norm()
        report["min_elements_for"] = {
            "distance": d_user,
            "n_elements": min_elements(d_user, design, cfg.spacing),
        }
        obstacle = scenario["obstacle"]
        if obstacle is not None:
            report["self_heal"] = _report(self_heal(cfg, design, obstacle))
    _write_json(os.path.join(out, "analyze.json"), report)
    return 0


def cmd_synthesize(scenario: dict, out: str) -> int:
    cfg, user = scenario["cfg"], scenario["user"]
    exc, plan = _beam_excitation(cfg, user, scenario["beam"], scenario["obstacle"], scenario["power_budget"], out)
    columns = (np.arange(cfg.n_elements), cfg.element_xs(), exc.magnitudes, exc.phases, exc.active.astype(int))
    write_columns(os.path.join(out, "excitation.csv"), "index,x,gamma,phase_rad,active", columns)
    if plan is not None:
        _write_json(os.path.join(out, "curving.json"), plan)
    return 0


def _cut_angle(beam: dict, user: Point2) -> float:
    if beam["type"] in ("gaussian", "bessel"):
        return math.radians(beam["theta_deg"])
    return math.atan2(user.x, user.y)


def cmd_simulate(scenario: dict, out: str, grid_override, line_cut_spec) -> int:
    cfg, user = scenario["cfg"], scenario["user"]
    if scenario["grid"] is None:
        raise UsageError("simulate requires a grid section in the scenario file")
    x_range, y_range, nx, ny = scenario["grid"]
    if grid_override is not None:
        nx, ny = grid_override
    obstacle = scenario["obstacle"]
    exc, plan = _beam_excitation(cfg, user, scenario["beam"], obstacle, scenario["power_budget"], out)
    # The cut runs before the grid and both before any file is written, so an
    # invalid request fails before the full field is computed and leaves no file.
    if line_cut_spec is not None:
        d_plot, samples = line_cut_spec
        pairs = line_cut(cfg, exc, _cut_angle(scenario["beam"], user), d_plot, samples, obstacle)
    grid = field_grid(cfg, exc, x_range, y_range, nx, ny, obstacle)
    write_field_csv(grid, os.path.join(out, "field.csv"))
    write_field_pgm(grid, os.path.join(out, "field.pgm"))
    meta = {
        "beam": _beam_echo(scenario["beam"]),
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


def _compare_entries(cfg: UlaConfig, user: Point2, beam: dict, obstacles: list, budget: float) -> list[tuple]:
    """One beam's (excitation, obstacle) entries, in obstacle order.

    Only a curving beam's excitation depends on the obstacle, so it is
    planned per obstacle; any other beam shares one excitation.
    """
    if beam["type"] == "curving":
        return [(_beam_excitation(cfg, user, beam, obstacle, budget)[0], obstacle) for obstacle in obstacles]
    exc = _beam_excitation(cfg, user, beam, None, budget)[0]
    return [(exc, obstacle) for obstacle in obstacles]


def cmd_compare(scenario: dict, out: str, levels: int) -> int:
    cfg, user = scenario["cfg"], scenario["user"]
    box, obstacles, budget = scenario["error_box"], scenario["obstacles"], scenario["power_budget"]
    # Every beam is planned, and every entry evaluated, before any file is
    # written: a command that fails leaves no output files behind. One
    # kernel call evaluates the user and the box of every entry.
    beams = scenario["beams"]
    entries = [e for beam in beams for e in _compare_entries(cfg, user, beam, obstacles, budget)]
    points, amps = scenario_amplitudes(cfg, entries, box)
    cdfs, rows = [], []
    for b, label in enumerate(_beam_labels(beams)):
        own = slice(b * len(obstacles), (b + 1) * len(obstacles))
        for j, (point, box_amps) in enumerate(zip(points[own], amps[own])):
            if box_amps.size == 0:
                raise UsageError(f"every error_box sample lies inside obstacles[{j}]")
            if math.isnan(point):
                raise UsageError(f"user lies inside obstacles[{j}]")
            rows.append((label, f"scenario_{j}", point, mean_amplitude(box_amps)))
        cdfs.append((label, empirical_cdf(np.concatenate(amps[own]), levels)))
    for label, pairs in cdfs:
        write_cdf_csv(pairs, os.path.join(out, f"cdf_{label}.csv"))
    write_columns(os.path.join(out, "compare.csv"), "beam,scenario,point_amplitude,area_average", zip(*rows))
    return 0


def cmd_optimize(scenario: dict, out: str) -> int:
    beam = scenario["beam"]
    if beam["type"] != "curving":
        raise UsageError("optimize requires a curving beam")
    plan = _curving_plan(scenario["cfg"], scenario["user"], beam, scenario["obstacle"])
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
                if min(grid_override) < 2:
                    raise UsageError("--grid: nx and ny must be >= 2")
            if args.line_cut is not None:
                cut = _flag_pair(args.line_cut, "line-cut", float, int)
                if cut[1] < 2:
                    raise UsageError("--line-cut: samples must be >= 2")
                if not cut[0] > 0:
                    raise UsageError("--line-cut: distance must be positive")
                # line_cut scales the distance by samples before it divides.
                if not math.isfinite(cut[0] * cut[1]):
                    raise UsageError("--line-cut: distance times samples must be finite")
            return cmd_simulate(scenario, args.out, grid_override, cut)
        if args.command == "compare":
            if args.levels < 2:
                raise UsageError("--levels must be >= 2")
            return cmd_compare(scenario, args.out, args.levels)
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
