"""Command-line front end.

Subcommands: analyze, synthesize, simulate, compare, optimize. Scenarios
are YAML files (strict schema, unknown keys rejected); angles are degrees
in files and flags, radians internally. Outputs are deterministic: JSON
reports use sorted keys, CSV floats are repr-formatted, nothing carries a
timestamp. Exit codes: 0 success, 2 usage or validation, 3 optimizer did
not produce a beam, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
import yaml

from .array_geometry import (
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
    self_heal_circle,
    self_heal_rect,
)
from .curving import AvoidanceScenario, plan_excitation, plan_with_fallback
from .field import (
    OcclusionModel,
    field_grid,
    focusing_excitation,
    gaussian_excitation,
    line_cut,
    normalize_power,
    write_field_csv,
    write_field_pgm,
)
from .metrics import (
    ErrorBox,
    ScenarioSet,
    amplitude_at_user,
    box_amplitudes,
    empirical_cdf,
    mean_amplitude,
    write_cdf_csv,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


class PlanNotSolved(Exception):
    """Curving optimizer returned no beam; carries the JSON diagnostic."""

    def __init__(self, diagnostic: dict):
        super().__init__(diagnostic.get("message", "optimizer did not produce a beam"))
        self.diagnostic = diagnostic


def _fmt(v: float) -> str:
    return repr(float(v))


# -- scenario file parsing ------------------------------------------------


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


def _parse_array(node) -> UlaConfig:
    d = _mapping(node, "array")
    n = _integer(_pop(d, "n_elements", "array"), "array.n_elements")
    freq = _number(_pop(d, "carrier_freq_hz", "array"), "array.carrier_freq_hz")
    mode = _pop(d, "spacing_mode", "array")
    if mode == "half_wavelength":
        spacing = 299792458.0 / freq / 2.0
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
    return beam


def _parse_grid(node) -> tuple[tuple[float, float], tuple[float, float], int, int]:
    d = _mapping(node, "grid")

    def _range(key: str) -> tuple[float, float]:
        v = _pop(d, key, "grid")
        if not (isinstance(v, list) and len(v) == 2):
            raise UsageError(f"grid.{key} must be a [min, max] pair")
        return _number(v[0], f"grid.{key}[0]"), _number(v[1], f"grid.{key}[1]")

    xr = _range("x_range")
    yr = _range("y_range")
    nx = _integer(_pop(d, "nx", "grid"), "grid.nx")
    ny = _integer(_pop(d, "ny", "grid"), "grid.ny")
    _no_extra(d, "grid")
    return xr, yr, nx, ny


def _parse_error_box(node, user: Point2) -> ErrorBox:
    if node is None:
        return ErrorBox(center=user, half_width_x=0.1, half_width_y=0.1)
    d = _mapping(node, "error_box")
    hx = _number(_pop(d, "half_width_x", "error_box"), "error_box.half_width_x")
    hy = _number(_pop(d, "half_width_y", "error_box"), "error_box.half_width_y")
    nx = _integer(_pop(d, "nx", "error_box", required=False, default=21), "error_box.nx")
    ny = _integer(_pop(d, "ny", "error_box", required=False, default=21), "error_box.ny")
    _no_extra(d, "error_box")
    return ErrorBox(center=user, half_width_x=hx, half_width_y=hy, nx=nx, ny=ny)


def load_scenario(path: str, compare: bool = False) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
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


def _solution_dict(sol) -> dict:
    return {
        "beta": sol.trajectory.beta,
        "p": sol.trajectory.p,
        "q": sol.trajectory.q,
        "p_tilde": sol.p_tilde,
        "x_adj_star": sol.x_adj_star,
        "x_t_star": sol.x_t_star,
        "curvature_sign": sol.curvature_sign,
        "objective_value": sol.objective_value,
        "relaxed_objective": sol.relaxed_objective,
        "kkt_candidate_index": sol.kkt_candidate_index,
        "n_active": int(sol.active_elements.sum()),
    }


def _result_dict(res) -> dict:
    d = {"status": res.status, "message": res.message}
    if res.most_violated is not None:
        d["most_violated"] = res.most_violated
    if res.solution is not None:
        d["solution"] = _solution_dict(res.solution)
    return d


def _plan_dict(plan) -> dict:
    return {
        "status": plan.status,
        "message": plan.message,
        "primary": _result_dict(plan.primary),
        "secondary": None if plan.secondary is None else _result_dict(plan.secondary),
    }


def _curving_plan(cfg: UlaConfig, user: Point2, beam: dict, obstacle):
    design = obstacle if obstacle is not None else beam.get("design_obstacle")
    if design is None:
        raise UsageError("curving beam requires an obstacle (or design_obstacle)")
    scen = AvoidanceScenario(user=user, obstacle=_as_rect(design), cfg=cfg, weight_w=beam["w"])
    return plan_with_fallback(scen)


def _beam_excitation(cfg: UlaConfig, user: Point2, beam: dict, obstacle, budget: float):
    """Excitation for one beam entry; curving beams also return a plan dict."""
    typ = beam["type"]
    if typ == "gaussian":
        return normalize_power(gaussian_excitation(cfg, math.radians(beam["theta_deg"])), budget), None
    if typ == "focus":
        return normalize_power(focusing_excitation(cfg, user), budget), None
    if typ == "bessel":
        design = BesselDesign(math.radians(beam["theta_deg"]), math.radians(beam["alpha_deg"]))
        return normalize_power(bessel_phases(cfg, design), budget), None
    plan = _curving_plan(cfg, user, beam, obstacle)
    if plan.status != "solved":
        raise PlanNotSolved(_plan_dict(plan))
    return plan_excitation(cfg, plan, budget), _plan_dict(plan)


# -- output helpers -------------------------------------------------------


def _write_json(path: str, obj) -> None:
    # Non-finite floats raise here, before the file is opened: no command
    # writes Infinity or NaN, which are not JSON.
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
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
    if isinstance(obstacle, RectObstacle):
        return {
            "type": "rect",
            "x_r1": obstacle.x_r1,
            "x_r2": obstacle.x_r2,
            "y_n": obstacle.y_n,
            "y_f": obstacle.y_f,
        }
    return {
        "type": "circle",
        "x": obstacle.center.x,
        "y": obstacle.center.y,
        "radius": obstacle.radius,
    }


def _write_excitation_csv(cfg: UlaConfig, exc, path: str) -> None:
    xs = cfg.element_xs()
    lines = ["index,x,gamma,phase_rad,active"]
    for i in range(cfg.n_elements):
        lines.append(
            f"{i},{_fmt(xs[i])},{_fmt(exc.magnitudes[i])},{_fmt(exc.phases[i])},{int(exc.active[i])}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# -- subcommands ----------------------------------------------------------


def cmd_analyze(scenario: dict, out: str) -> int:
    beam = scenario["beam"]
    if beam["type"] != "bessel":
        raise UsageError("analyze requires a bessel beam")
    cfg: UlaConfig = scenario["cfg"]
    user: Point2 = scenario["user"]
    design = BesselDesign(math.radians(beam["theta_deg"]), math.radians(beam["alpha_deg"]))
    report: dict = {
        "steerable": design.steerable(),
        "reason": None,
        "marginal": None,
        "d_max": None,
        "d_lim": None,
        "max_spacing": None,
        "min_elements_for": None,
        "self_heal": None,
    }
    if not design.steerable():
        report["reason"] = (
            "alpha < |theta|" if design.alpha < abs(design.theta_a) else "alpha >= pi/2 - |theta|"
        )
    else:
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
            heal = (
                self_heal_circle(cfg, design, obstacle)
                if isinstance(obstacle, CircleObstacle)
                else self_heal_rect(cfg, design, obstacle)
            )
            report["self_heal"] = {
                "d_h_pos": heal.d_h_pos,
                "d_h_neg": heal.d_h_neg,
                "x_p_star": heal.x_p_star,
                "x_m_star": heal.x_m_star,
                "pos_unblocked": heal.pos_unblocked,
                "neg_unblocked": heal.neg_unblocked,
            }
    _write_json(os.path.join(out, "analyze.json"), report)
    return 0


def cmd_synthesize(scenario: dict, out: str) -> int:
    cfg, user = scenario["cfg"], scenario["user"]
    try:
        exc, plan = _beam_excitation(
            cfg, user, scenario["beam"], scenario["obstacle"], scenario["power_budget"]
        )
    except PlanNotSolved as e:
        _write_json(os.path.join(out, "curving.json"), e.diagnostic)
        print(f"optimizer did not produce a beam: {e}", file=sys.stderr)
        return 3
    _write_excitation_csv(cfg, exc, os.path.join(out, "excitation.csv"))
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
    occ = OcclusionModel(obstacle=scenario["obstacle"])
    try:
        exc, plan = _beam_excitation(
            cfg, user, scenario["beam"], scenario["obstacle"], scenario["power_budget"]
        )
    except PlanNotSolved as e:
        _write_json(os.path.join(out, "curving.json"), e.diagnostic)
        print(f"optimizer did not produce a beam: {e}", file=sys.stderr)
        return 3
    grid = field_grid(cfg, exc, x_range, y_range, nx, ny, occ)
    write_field_csv(grid, os.path.join(out, "field.csv"))
    write_field_pgm(grid, os.path.join(out, "field.pgm"))
    meta = {
        "beam": _beam_echo(scenario["beam"]),
        "carrier_freq_hz": cfg.carrier_freq,
        "n_elements": cfg.n_elements,
        "nx": nx,
        "ny": ny,
        "obstacle": _obstacle_echo(scenario["obstacle"]),
        "power_budget": scenario["power_budget"],
        "spacing": cfg.spacing,
        "user": {"x": user.x, "y": user.y},
        "x_range": list(x_range),
        "y_range": list(y_range),
    }
    if plan is not None:
        meta["curving_plan"] = plan
    _write_json(os.path.join(out, "simulate.json"), meta)
    if line_cut_spec is not None:
        d_plot, samples = line_cut_spec
        pairs = line_cut(cfg, exc, _cut_angle(scenario["beam"], user), d_plot, samples, occ)
        lines = ["distance,amplitude"]
        lines += [f"{_fmt(d)},{_fmt(a)}" for d, a in pairs]
        with open(os.path.join(out, "linecut.csv"), "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
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
    budget = scenario["power_budget"]
    box = scenario["error_box"]
    labels = _beam_labels(scenario["beams"])
    rows = []
    for label, beam in zip(labels, scenario["beams"]):
        entries = []
        for obstacle in scenario["obstacles"]:
            occ = OcclusionModel(obstacle=obstacle)
            exc, _ = _beam_excitation(cfg, user, beam, obstacle, budget)
            entries.append((exc, occ))
        # Each box is evaluated once: the pooled CDF and its area average
        # both read these amplitudes.
        amps = [box_amplitudes(cfg, exc, box, occ) for exc, occ in ScenarioSet(cfg, entries).entries]
        write_cdf_csv(empirical_cdf(np.concatenate(amps), levels), os.path.join(out, f"cdf_{label}.csv"))
        for j, ((exc, occ), box_amps) in enumerate(zip(entries, amps)):
            rows.append((label, f"scenario_{j}", amplitude_at_user(cfg, exc, user, occ), mean_amplitude(box_amps)))
    lines = ["beam,scenario,point_amplitude,area_average"]
    lines += [f"{b},{s},{_fmt(p)},{_fmt(a)}" for b, s, p, a in rows]
    with open(os.path.join(out, "compare.csv"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_optimize(scenario: dict, out: str) -> int:
    beam = scenario["beam"]
    if beam["type"] != "curving":
        raise UsageError("optimize requires a curving beam")
    plan = _curving_plan(scenario["cfg"], scenario["user"], beam, scenario["obstacle"])
    _write_json(os.path.join(out, "optimize.json"), _plan_dict(plan))
    if plan.status in ("solved", "unnecessary"):
        return 0
    print(f"optimization failed: {plan.message}", file=sys.stderr)
    return 3


# -- argument parsing -----------------------------------------------------


def _split_pair(value: str, name: str) -> tuple[str, str]:
    parts = value.split(",")
    if len(parts) != 2:
        raise UsageError(f"--{name} expects two comma-separated values")
    return parts[0], parts[1]


def _parse_grid_flag(value: str) -> tuple[int, int]:
    a, b = _split_pair(value, "grid")
    try:
        return int(a), int(b)
    except ValueError as e:
        raise UsageError(f"--grid: {e}") from e


def _parse_cut_flag(value: str) -> tuple[float, int]:
    a, b = _split_pair(value, "line-cut")
    try:
        return float(a), int(b)
    except ValueError as e:
        raise UsageError(f"--line-cut: {e}") from e


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
            grid_override = None if args.grid is None else _parse_grid_flag(args.grid)
            cut = None if args.line_cut is None else _parse_cut_flag(args.line_cut)
            return cmd_simulate(scenario, args.out, grid_override, cut)
        if args.command == "compare":
            if args.levels < 2:
                raise UsageError("--levels must be >= 2")
            return cmd_compare(scenario, args.out, args.levels)
        return cmd_optimize(scenario, args.out)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
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
