"""Output checks for benchmark commands, run outside the timed loop.

The field check recomputes a few nodes of each ``field.csv`` (and of
``linecut.csv``) with a direct sum written here and a segment-versus-
obstacle test written here, so it shares no code with the package's
visibility mask or field kernel. Curving plans are checked with the
geometric slack oracle in ``tests/oracles.py``; CDFs must be monotone and
inside [0, 1]; determinism is checked by the caller from file hashes.

Every check returns a list of problem strings; empty means the output
passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from types import SimpleNamespace

import numpy as np

C0 = 299792458.0
# Field nodes recomputed per simulate command, and line-cut samples.
FIELD_NODES = 6
CUT_SAMPLES = 2
# |E_program - E_direct| <= FIELD_RTOL * sum_n gamma_n / r_n
FIELD_RTOL = 1e-9
# Obstacle inflation used to skip nodes whose visibility is a near tie.
TIE_EPS = 1e-9
SLACK_TOL = 1e-9
STATUSES = ("solved", "unnecessary", "infeasible", "degenerate")


def file_hashes(out_dir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def bytes_in(out_dir: str) -> dict[str, int]:
    return {name: os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)}


def _strict_json(path: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh, parse_constant=reject)


# -- independent geometry and field ---------------------------------------


def obstacle_of(spec: dict | None):
    """(kind, params) from a scenario obstacle mapping; None for free space."""
    if spec is None or spec["type"] == "none":
        return None
    if spec["type"] == "rect":
        return ("rect", (float(spec["x_r2"]), float(spec["x_r1"]), float(spec["y_n"]), float(spec["y_f"])))
    return ("circle", (float(spec["x"]), float(spec["y"]), float(spec["radius"])))


def _grown(obstacle, eps: float):
    """The obstacle grown outward by eps (shrunk for negative eps)."""
    kind, p = obstacle
    if kind == "rect":
        return kind, (p[0] - eps, p[1] + eps, p[2] - eps, p[3] + eps)
    return kind, (p[0], p[1], p[2] + eps)


def inside(obstacle, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Points on or inside the closed obstacle."""
    if obstacle is None:
        return np.zeros(px.shape, dtype=bool)
    kind, p = obstacle
    if kind == "rect":
        x_lo, x_hi, y_lo, y_hi = p
        return (px >= x_lo) & (px <= x_hi) & (py >= y_lo) & (py <= y_hi)
    cx, cy, r = p
    return np.hypot(px - cx, py - cy) <= r


def blocked(obstacle, ex: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """(M, N) mask: segment from element (ex[n], 0) to point (px[m], py[m]) meets the obstacle.

    Rect: clip the segment parameter t to the obstacle's y band, then test
    the x extent of the clipped piece against the x band (closed sets).
    Circle: distance from the center to the segment against the radius.
    """
    if obstacle is None:
        return np.zeros((px.shape[0], ex.shape[0]), dtype=bool)
    kind, p = obstacle
    x0 = ex[None, :]
    x1 = px[:, None]
    y1 = py[:, None]
    if kind == "rect":
        x_lo, x_hi, y_lo, y_hi = p
        t_lo = np.clip(y_lo / y1, 0.0, 1.0)
        t_hi = np.clip(y_hi / y1, 0.0, 1.0)
        reach = y1 >= y_lo
        xa = x0 + (x1 - x0) * t_lo
        xb = x0 + (x1 - x0) * t_hi
        return reach & (np.maximum(xa, xb) >= x_lo) & (np.minimum(xa, xb) <= x_hi)
    cx, cy, r = p
    dx = x1 - x0
    t = np.clip(((cx - x0) * dx + cy * y1) / (dx * dx + y1 * y1), 0.0, 1.0)
    return np.hypot(x0 + t * dx - cx, t * y1 - cy) <= r


def blocked_pairs(obstacle, ex: np.ndarray, px: np.ndarray, py: np.ndarray, chunk: int = 256) -> int:
    """Number of blocked (point, element) pairs, in chunks of points."""
    if obstacle is None:
        return 0
    return sum(
        int(blocked(obstacle, ex, px[s : s + chunk], py[s : s + chunk]).sum())
        for s in range(0, px.shape[0], chunk)
    )


def direct_field(exc, ex: np.ndarray, k: float, obstacle, x: float, y: float) -> tuple[complex, float]:
    """Field at (x, y) as an explicit per-element sum, and its magnitude scale."""
    mags, phases, active = exc
    vis = ~blocked(obstacle, ex, np.array([x]), np.array([y]))[0]
    total = 0j
    scale = 0.0
    for n in range(ex.shape[0]):
        if not active[n]:
            continue
        r = math.hypot(x - ex[n], y)
        scale += mags[n] / r
        if vis[n]:
            total += mags[n] / r * complex(math.cos(phases[n] - k * r), math.sin(phases[n] - k * r))
    return total, scale


def _near_tie(obstacle, ex: np.ndarray, x: float, y: float) -> bool:
    if obstacle is None:
        return False
    px, py = np.array([x]), np.array([y])
    grown = blocked(_grown(obstacle, TIE_EPS), ex, px, py)
    shrunk = blocked(_grown(obstacle, -TIE_EPS), ex, px, py)
    edge = inside(_grown(obstacle, TIE_EPS), px, py) != inside(_grown(obstacle, -TIE_EPS), px, py)
    return bool((grown != shrunk).any() or edge.any())


# -- excitation through the public API --------------------------------------


def _cfg(ulabeam, scen: dict):
    arr = scen["array"]
    freq = float(arr["carrier_freq_hz"])
    return ulabeam.UlaConfig(n_elements=int(arr["n_elements"]), spacing=C0 / freq / 2.0, carrier_freq=freq)


def _rect_for_plan(ulabeam, spec: dict):
    if spec["type"] == "circle":
        circle = ulabeam.CircleObstacle(ulabeam.Point2(spec["x"], spec["y"]), spec["radius"])
        return ulabeam.circle_bounding_square(circle)
    return ulabeam.RectObstacle(spec["x_r1"], spec["x_r2"], spec["y_n"], spec["y_f"])


def avoidance_scenario(ulabeam, scen: dict):
    beam = scen["beam"]
    spec = scen["obstacle"] if scen["obstacle"]["type"] != "none" else beam["design_obstacle"]
    user = ulabeam.Point2(scen["user"]["x"], scen["user"]["y"])
    return ulabeam.AvoidanceScenario(user=user, obstacle=_rect_for_plan(ulabeam, spec), cfg=_cfg(ulabeam, scen), weight_w=beam["w"])


def _excitation(ulabeam, scen: dict):
    cfg = _cfg(ulabeam, scen)
    beam = scen["beam"]
    budget = float(scen.get("power_budget", 1.0))
    if beam["type"] == "bessel":
        design = ulabeam.BesselDesign(math.radians(beam["theta_deg"]), math.radians(beam["alpha_deg"]))
        exc = ulabeam.normalize_power(ulabeam.bessel_phases(cfg, design), budget)
    else:
        plan = ulabeam.plan_with_fallback(avoidance_scenario(ulabeam, scen))
        exc = ulabeam.plan_excitation(cfg, plan, budget)
    return cfg, (np.asarray(exc.magnitudes), np.asarray(exc.phases), np.asarray(exc.active))


# -- per-command checks ---------------------------------------------------


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, rows


def check_simulate(ulabeam, cmd: dict, out: str, rng: np.random.Generator) -> list[str]:
    scen = cmd["scenario"]
    nx, ny = cmd["meta"]["grid"]
    problems = []
    meta = _strict_json(os.path.join(out, "simulate.json"))
    if (meta["nx"], meta["ny"]) != (nx, ny):
        problems.append("simulate.json grid size differs from --grid")
    with open(os.path.join(out, "field.pgm"), "rb") as fh:
        pgm = fh.read()
    header = f"P5\n{nx} {ny}\n255\n".encode("ascii")
    if not pgm.startswith(header) or len(pgm) != len(header) + nx * ny:
        problems.append("field.pgm header or size is wrong")

    header, rows = _read_csv(os.path.join(out, "field.csv"))
    if header != ["x", "y", "re", "im", "abs"] or rows.shape != (nx * ny, 5):
        return problems + ["field.csv layout is wrong"]
    obstacle = obstacle_of(scen["obstacle"])
    nan_rows = np.isnan(rows[:, 2])
    interior = inside(obstacle, rows[:, 0], rows[:, 1])
    if not np.array_equal(nan_rows, interior):
        problems.append(f"field.csv NaN nodes differ from obstacle interior ({int((nan_rows != interior).sum())} nodes)")

    cfg, exc = _excitation(ulabeam, scen)
    ex = cfg.element_xs()
    k = cfg.wavenumber()
    checked = 0
    for i in rng.permutation(rows.shape[0]):
        if checked == FIELD_NODES:
            break
        x, y, re, im, _ = map(float, rows[i])
        if interior[i] or _near_tie(obstacle, ex, x, y):
            continue
        want, scale = direct_field(exc, ex, k, obstacle, x, y)
        if abs(complex(re, im) - want) > FIELD_RTOL * scale:
            problems.append(f"field.csv node ({x!r}, {y!r}) is {complex(re, im)!r}, direct sum gives {want!r}")
        checked += 1

    _, samples = cmd["meta"]["cut"]
    header, cut = _read_csv(os.path.join(out, "linecut.csv"))
    if header != ["distance", "amplitude"] or cut.shape != (samples, 2):
        return problems + ["linecut.csv layout is wrong"]
    beam = scen["beam"]
    if beam["type"] == "bessel":
        theta = math.radians(beam["theta_deg"])
    else:
        theta = math.atan2(scen["user"]["x"], scen["user"]["y"])
    checked = 0
    for i in rng.permutation(samples):
        if checked == CUT_SAMPLES:
            break
        d, amp = map(float, cut[i])
        x, y = d * math.sin(theta), d * math.cos(theta)
        if inside(obstacle, np.array([x]), np.array([y]))[0] or _near_tie(obstacle, ex, x, y):
            continue
        want, scale = direct_field(exc, ex, k, obstacle, x, y)
        if abs(amp - abs(want)) > FIELD_RTOL * scale:
            problems.append(f"linecut.csv at d={d!r} is {amp!r}, direct sum gives {abs(want)!r}")
        checked += 1
    return problems


def check_plan(oracles, ulabeam, scen: dict, plan: dict) -> tuple[list[str], str]:
    """Slack-check every solved beam of a curving plan; returns (problems, status)."""
    status = plan.get("status")
    if status not in STATUSES:
        return [f"unknown plan status {status!r}"], str(status)
    problems = []
    s = avoidance_scenario(ulabeam, scen)
    tol = SLACK_TOL * max(1.0, s.user.y)
    for part in ("primary", "secondary"):
        res = plan.get(part)
        if not res or res["status"] != "solved":
            continue
        sol = res["solution"]
        # The fields of a CurvingSolution that the slack oracle reads.
        solution = SimpleNamespace(
            trajectory=ulabeam.ParabolicTrajectory(sol["beta"], sol["p"], sol["q"]),
            curvature_sign=sol["curvature_sign"],
            x_t_star=sol["x_t_star"],
        )
        anchor, side = oracles.solution_geometry_slacks(s, solution)
        if anchor > tol or max(side) > tol:
            problems.append(f"{part} beam slack: anchor {anchor!r}, worst side {max(side)!r}")
    return problems, status


def check_analyze(cmd: dict, out: str) -> list[str]:
    report = _strict_json(os.path.join(out, "analyze.json"))
    beam = cmd["scenario"]["beam"]
    theta, alpha = math.radians(beam["theta_deg"]), math.radians(beam["alpha_deg"])
    steerable = abs(theta) <= alpha < math.pi / 2 - abs(theta)
    if report["steerable"] != steerable:
        return [f"analyze.json steerable={report['steerable']}, expected {steerable}"]
    if steerable and not (report["d_max"] > 0 and report["d_lim"] >= report["d_max"]):
        return ["analyze.json d_max/d_lim out of order"]
    return []


def check_excitation(cmd: dict, out: str) -> list[str]:
    header, rows = _read_csv(os.path.join(out, "excitation.csv"))
    n = cmd["meta"]["n"]
    if header != ["index", "x", "gamma", "phase_rad", "active"] or rows.shape != (n, 5):
        return ["excitation.csv layout is wrong"]
    budget = float(cmd["scenario"].get("power_budget", 1.0))
    power = float(np.sum(rows[:, 2] ** 2))
    if abs(power - budget) > 1e-9 * budget:
        return [f"excitation power {power!r} != budget {budget!r}"]
    return []


def check_compare(cmd: dict, out: str, levels: int) -> list[str]:
    problems = []
    meta = cmd["meta"]
    header, rows = _read_csv_labelled(os.path.join(out, "compare.csv"))
    if header != ["beam", "scenario", "point_amplitude", "area_average"] or len(rows) != meta["beams"] * meta["obstacles"]:
        return ["compare.csv layout is wrong"]
    labels = []
    for beam, _, point, area in rows:
        if not (math.isfinite(point) and math.isfinite(area) and point > 0 and area > 0):
            problems.append(f"compare.csv row for {beam} is not finite and positive")
        if beam not in labels:
            labels.append(beam)
    for label in labels:
        header, cdf = _read_csv(os.path.join(out, f"cdf_{label}.csv"))
        if header != ["amplitude", "probability"] or cdf.shape != (levels, 2):
            problems.append(f"cdf_{label}.csv layout is wrong")
            continue
        amp, prob = cdf[:, 0], cdf[:, 1]
        if not (np.all(np.diff(amp) >= 0) and np.all(np.diff(prob) >= 0)):
            problems.append(f"cdf_{label}.csv is not monotone")
        if not (prob.min() >= 0.0 and prob.max() <= 1.0 and prob[-1] == 1.0 and amp[0] == 0.0):
            problems.append(f"cdf_{label}.csv leaves [0, 1] or does not end at 1")
    return problems


def _read_csv_labelled(path: str):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    rows = []
    for line in lines[1:]:
        beam, scen, point, area = line.split(",")
        rows.append((beam, scen, float(point), float(area)))
    return lines[0].split(","), rows


def check_command(ulabeam, oracles, cmd: dict, out: str, rc: int, rng: np.random.Generator) -> tuple[list[str], str | None]:
    """Check one command's outputs; returns (problems, curving plan status or None)."""
    verb = cmd["argv"][0]
    scen = cmd["scenario"]
    curving = scen.get("beam", {}).get("type") == "curving"
    if rc not in (0, 3):
        return [f"exit code {rc}"], None
    if rc == 3 and not curving:
        return ["exit code 3 without a curving beam"], None
    status = None
    problems: list[str] = []
    if curving and verb in ("synthesize", "simulate", "optimize"):
        if verb == "optimize":
            plan = _strict_json(os.path.join(out, "optimize.json"))
        elif verb == "simulate" and rc == 0:
            plan = _strict_json(os.path.join(out, "simulate.json"))["curving_plan"]
        else:
            plan = _strict_json(os.path.join(out, "curving.json"))
        problems, status = check_plan(oracles, ulabeam, scen, plan)
        solved = status == "solved"
        # optimize exits 0 for solved and unnecessary; the others only for solved.
        expect_rc = 0 if solved or (verb == "optimize" and status == "unnecessary") else 3
        if rc != expect_rc:
            problems.append(f"exit code {rc} for plan status {status}")
        if rc == 3:
            return problems, status
    if verb == "simulate":
        problems += check_simulate(ulabeam, cmd, out, rng)
    elif verb == "analyze":
        problems += check_analyze(cmd, out)
    elif verb == "synthesize":
        problems += check_excitation(cmd, out)
    elif verb == "compare":
        problems += check_compare(cmd, out, int(cmd["argv"][cmd["argv"].index("--levels") + 1]))
    return problems, status
