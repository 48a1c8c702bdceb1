"""Curving-beam trajectory optimizer: closed forms, KKT table, plans.

Proves:
 - the oracles' trajectory evaluation and tangent heights satisfy the
   defining tangency identity, and reject out-of-domain inputs
 - the phase closed form equals k (ray length - arc length) + const,
   checked against numerical quadrature, and its element-to-element slope
   reproduces the tangent ray angle
 - each of the oracles' nine closed-form KKT candidates satisfies its
   defining active-set equations exactly
 - solved results pass solver-independent geometric checks (anchor,
   corner clearance, aperture bounds, tangent coverage of the user), and
   agree with the closed-form table: the reported row is the relaxed
   optimum and no feasible row beats it
 - the relaxed and pinned optima equal scipy's HiGHS on the oracle's own
   LP rows, across feasible, unnecessary and infeasible scenes
 - the grid-search oracle's closed-form x_adj reduction finds the same
   objective and point as a literal scan of all n^3 grid points
 - mirror reduction is an exact sign map, on a fixed case and a seeded
   random batch; frozen instances reproduce
   pinned numbers including the negative-curvature fallback and the
   unnecessary classification
 - a two-beam plan keeps disjoint element sets and splits the power
   budget evenly; the secondary's cut stops where the primary's ends
 - each planner scene of tools/cli_diff.py reaches the plan status,
   message and deciding curvature sign that its label names, and with
   the tool's infeasible scene they reach all six returns of
   plan_with_fallback
 - optimize takes curvature sign +1 or -1 and nothing else
 - on 5,000 sweep scenes, a solve that reaches the pinned problem reports
   zero curvature after aperture projection exactly when its snapped cut,
   in its curvature's frame, is the first element, -R
 - a scene is rejected unless w and every nonzero length lie within
   1e-100..1e100 in magnitude; the vertex enumeration returns a feasible
   vertex even when no objective value compares
"""

import ast
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from ulabeam import (
    AvoidanceScenario,
    ParabolicTrajectory,
    Point2,
    RectObstacle,
    UlaConfig,
    curving_phases,
    f_para,
    optimize,
    plan_excitation,
    plan_with_fallback,
)
import ulabeam.curving
from ulabeam.cli import load_scenario
from ulabeam.curving import _best_vertex
from oracles import (
    grid_search,
    grid_search_literal,
    highs_optimum,
    kkt_candidates,
    lp_violation,
    random_feasible_scenarios,
    solution_geometry_slacks,
    sweep_scenarios,
    tangent_y,
    trajectory_eval,
)


def frozen_scenario(cfg) -> AvoidanceScenario:
    """Positive side infeasible, negative side solves; values pinned below."""
    return AvoidanceScenario(Point2(0.0, 1.0), RectObstacle(0.08, -0.90, 0.15, 0.55), cfg, 1.0)


# ------------------------------------------------------------- trajectory

def test_trajectory_validation():
    with pytest.raises(ValueError):
        ParabolicTrajectory(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        ParabolicTrajectory(1.0, math.inf, 0.0)


def test_trajectory_eval_closed_form():
    t = ParabolicTrajectory(2.0, 0.3, -0.1)
    assert trajectory_eval(t, 1.0) == 2.0 * 0.7**2 - 0.1
    assert_allclose(trajectory_eval(t, np.array([0.3, 0.8])), [-0.1, 0.4])


def test_tangent_point_satisfies_tangency():
    t = ParabolicTrajectory(1.0, 1.0, 0.5)
    for x_t in (-2.0, -1.0, 0.0, 1.0, 1.4):
        s = tangent_y(t, x_t)
        x_s = trajectory_eval(t, s)
        # chord from the element equals the parabola slope at the touch point
        assert_allclose((x_s - x_t) / s, 2.0 * t.beta * (s - t.p), rtol=1e-9)
    # apex-height element: tangent point sits on the array plane
    assert tangent_y(t, t.beta * t.p**2 + t.q) == 0.0


def test_tangent_domain_errors():
    t = ParabolicTrajectory(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        tangent_y(t, 2.0)
    with pytest.raises(ValueError):
        tangent_y(ParabolicTrajectory(0.0, 1.0, 0.5), 0.0)


# ----------------------------------------------------------------- phases

def test_phase_formula_matches_quadrature(cfg1024):
    s = frozen_scenario(cfg1024)
    sol = optimize(s, -1).solution
    t = sol.trajectory
    exc = curving_phases(cfg1024, t, sol.active_elements)
    xa = cfg1024.element_xs()[sol.active_elements]
    k = cfg1024.wavenumber()

    def arc_length(height):
        return quad(lambda y: math.hypot(1.0, 2.0 * t.beta * (y - t.p)), 0.0, height, limit=200)[0]

    s_t = tangent_y(t, xa)
    ray = np.hypot(trajectory_eval(t, s_t) - xa, s_t)
    sigma = np.array([arc_length(v) for v in s_t])
    resid = exc.phases[sol.active_elements] - k * (ray - sigma)
    assert resid.max() - resid.min() < 1e-9


def test_phase_slope_matches_tangent_ray_angle(cfg1024):
    s = frozen_scenario(cfg1024)
    sol = optimize(s, -1).solution
    t = sol.trajectory
    exc = curving_phases(cfg1024, t, sol.active_elements)
    xa = cfg1024.element_xs()[sol.active_elements]
    k = cfg1024.wavenumber()
    slope = np.diff(exc.phases[sol.active_elements]) / np.diff(xa)
    x_mid = 0.5 * (xa[1:] + xa[:-1])
    s_mid = tangent_y(t, x_mid)
    theta_ray = np.arctan2(trajectory_eval(t, s_mid) - x_mid, s_mid)
    ang_err = np.abs(np.arcsin(np.clip(-slope / k, -1.0, 1.0)) - theta_ray)
    assert ang_err.max() < 5e-3


def test_curving_phases_errors():
    cfg = UlaConfig(8, 1e-2, 140e9)
    t = ParabolicTrajectory(1.0, 1.0, 0.5)
    every = np.ones(8, dtype=bool)
    with pytest.raises(ValueError):
        curving_phases(cfg, ParabolicTrajectory(0.0, 1.0, 0.5), every)
    # the mask has one boolean per element; an integer array is not a mask
    for active in (np.ones(7, dtype=bool), np.ones(8, dtype=int)):
        with pytest.raises(ValueError, match="boolean mask"):
            curving_phases(cfg, t, active)
    # apex at x = 1.5: elements beyond it have no tangent line
    with pytest.raises(ValueError, match="no tangent"):
        curving_phases(UlaConfig(8, 0.5, 140e9), t, every)


# -------------------------------------------------------------- KKT table

def test_kkt_candidates_satisfy_defining_equations(cfg1024):
    s = AvoidanceScenario(Point2(0.05, 1.2), RectObstacle(0.10, -0.05, 0.2, 0.6), cfg1024, 1.5)
    y_n, y_f, y_u = s.obstacle.y_n, s.obstacle.y_f, s.user.y
    x_u, x_r2 = s.user.x, s.obstacle.x_r2
    r_half = cfg1024.half_aperture()

    def corner(z, y_e):
        return z[0] * (y_e**2 - y_u**2) - 2.0 * z[1] * (y_e - y_u) + x_u - x_r2

    def cut(z):
        return z[0] * y_u**2 - 2.0 * z[1] * y_u + z[2] - x_u

    def span(z):
        return 2.0 * z[0] * y_u**2 - 2.0 * z[1] * y_u - x_u - r_half

    def reach(z):
        return -2.0 * z[0] * y_u**2 + 2.0 * z[1] * y_u - z[2] + x_u

    def aper(z):
        return z[2] - r_half

    defining = {
        1: [lambda z: corner(z, y_n), lambda z: corner(z, y_f), cut],
        2: [lambda z: corner(z, y_f), span, cut],
        3: [lambda z: corner(z, y_n), span, cut],
        4: [aper, lambda z: corner(z, y_f), cut],
        5: [aper, lambda z: corner(z, y_n), cut],
        6: [aper, lambda z: corner(z, y_f), span],
        7: [aper, lambda z: corner(z, y_n), span],
        8: [aper, lambda z: corner(z, y_f), reach],
        9: [aper, lambda z: corner(z, y_n), reach],
    }
    cands = kkt_candidates(s)
    assert [c.index for c in cands] == list(range(1, 10))
    for cand in cands:
        assert cand.valid
        z = (cand.beta, cand.p_tilde, cand.x_adj)
        for eq in defining[cand.index]:
            assert abs(eq(z)) < 1e-9


# ------------------------------------------------------- solver properties

def test_solved_results_pass_geometric_checks(cfg1024):
    rng = np.random.default_rng(777)
    solved = 0
    for s in random_feasible_scenarios(cfg1024, rng, 20):
        res = optimize(s, 1)
        if res.status != "solved":
            continue
        solved += 1
        sol = res.solution
        anchor, side = solution_geometry_slacks(s, sol)
        assert anchor < 1e-9
        assert max(side) < 1e-9
        assert sol.curvature_sign == 1 and sol.trajectory.beta > 0
        # the kept cut is an element position and defines the active set
        xs = cfg1024.element_xs()
        assert np.any(xs == sol.x_t_star)
        assert np.array_equal(
            sol.active_elements, xs <= sol.x_t_star + cfg1024.spacing * 1e-9
        )
        assert sol.objective_value == f_para(s, sol.trajectory.beta, sol.p_tilde, sol.x_t_star)
        # pinning the cut can only cost objective relative to the relaxed LP
        assert sol.objective_value >= sol.relaxed_objective - 1e-9
        assert res.relaxed_vertex is not None
        assert_allclose(f_para(s, *res.relaxed_vertex), sol.relaxed_objective, rtol=1e-12)
        # cross-check against the paper's closed-form KKT table: the reported
        # row is the optimum, and no feasible row does better
        cands = kkt_candidates(s)
        if sol.kkt_candidate_index is not None:
            row = cands[sol.kkt_candidate_index - 1]
            assert_allclose((row.beta, row.p_tilde, row.x_adj), res.relaxed_vertex, rtol=1e-9)
        floor = sol.relaxed_objective - 1e-12 * max(1.0, abs(sol.relaxed_objective))
        for cand in cands:
            z = (cand.beta, cand.p_tilde, cand.x_adj)
            if cand.valid and lp_violation(s, *z) <= 1e-9:
                assert f_para(s, *z) >= floor
    assert solved >= 15


def test_enumeration_matches_highs():
    # scipy's HiGHS solves the oracle's own LP rows, not the solver's
    seen = set()
    for s in sweep_scenarios(np.random.default_rng(2503), 1000):
        res = optimize(s, 1)
        seen.add(res.status)
        if res.relaxed_vertex is None:
            continue
        relaxed = highs_optimum(s)
        assert relaxed.status == 0
        assert f_para(s, *res.relaxed_vertex) == pytest.approx(relaxed.fun, rel=1e-9)
        if res.status == "solved":
            assert res.solution.relaxed_objective == pytest.approx(relaxed.fun, rel=1e-9)
            # the snapped cut fixed, the pinned solve is HiGHS's optimum too
            pinned = highs_optimum(s, res.solution.x_t_star)
            assert pinned.status == 0
            assert res.solution.objective_value == pytest.approx(pinned.fun, rel=1e-9)
    assert seen >= {"solved", "unnecessary", "infeasible"}


def test_grid_search_matches_literal_scan(cfg1024):
    # grid_search reduces the x_adj axis in closed form; the literal
    # n^3 loop must find the same objective at the same grid point
    scenes = random_feasible_scenarios(cfg1024, np.random.default_rng(3), 40)
    for s in scenes:
        for n in (7, 12):
            assert grid_search(s, n) == grid_search_literal(s, n)


def mirror_pair_status(s: AvoidanceScenario) -> str:
    """Solve s with positive and its mirror image with negative curvature.

    Solved pairs must be an exact sign map of each other; other outcomes
    must agree in status (and in the violated constraint, sides swapped).
    """
    mirrored = AvoidanceScenario(
        Point2(-s.user.x, s.user.y),
        RectObstacle(-s.obstacle.x_r2, -s.obstacle.x_r1, s.obstacle.y_n, s.obstacle.y_f),
        s.cfg,
        s.weight_w,
    )
    pos = optimize(s, 1)
    neg = optimize(mirrored, -1)
    assert neg.status == pos.status
    swap = {"aperture lower bound": "aperture upper bound", "aperture upper bound": "aperture lower bound"}
    assert neg.most_violated == swap.get(pos.most_violated, pos.most_violated)
    if pos.relaxed_vertex is None:
        assert neg.relaxed_vertex is None
    else:
        assert neg.relaxed_vertex == tuple(-v for v in pos.relaxed_vertex)
    if pos.status != "solved":
        return pos.status
    p_sol, n_sol = pos.solution, neg.solution
    assert n_sol.trajectory.beta == -p_sol.trajectory.beta
    assert n_sol.trajectory.p == p_sol.trajectory.p
    assert n_sol.p_tilde == -p_sol.p_tilde
    assert n_sol.x_t_star == -p_sol.x_t_star
    assert n_sol.x_adj_star == -p_sol.x_adj_star
    assert n_sol.objective_value == -p_sol.objective_value
    assert n_sol.relaxed_objective == -p_sol.relaxed_objective
    assert n_sol.kkt_candidate_index == p_sol.kkt_candidate_index
    assert n_sol.curvature_sign == -1
    anchor, side = solution_geometry_slacks(mirrored, n_sol)
    assert anchor < 1e-9 and max(side) < 1e-9
    assert np.array_equal(n_sol.active_elements, p_sol.active_elements[::-1])
    return pos.status


def test_mirror_reduction_is_exact_sign_map(cfg1024):
    s = AvoidanceScenario(Point2(0.05, 1.2), RectObstacle(0.10, -0.05, 0.2, 0.6), cfg1024, 1.5)
    assert mirror_pair_status(s) == "solved"
    rng = np.random.default_rng(4242)
    statuses = [mirror_pair_status(t) for t in random_feasible_scenarios(cfg1024, rng, 20)]
    assert statuses.count("solved") >= 15


def test_weight_trades_clearance_for_aperture(cfg1024):
    user = Point2(0.0, 1.0)
    obstacle = RectObstacle(0.90, -0.08, 0.15, 0.55)
    statuses = []
    prev_cut = -math.inf
    for w in (0.3, 0.8, 1.0, 3.0, 10.0):
        res = optimize(AvoidanceScenario(user, obstacle, cfg1024, w), 1)
        statuses.append(res.status)
        # LP sensitivity: a larger aperture reward never shrinks the kept cut
        assert res.relaxed_vertex[2] >= prev_cut - 1e-9
        prev_cut = res.relaxed_vertex[2]
    # cheap aperture: the flat zero-curvature corner wins; expensive: curve
    assert statuses == ["unnecessary", "unnecessary", "solved", "solved", "solved"]


# --------------------------------------------------------- frozen results

def test_frozen_negative_fallback_instance(cfg1024):
    s = frozen_scenario(cfg1024)
    pos = optimize(s, 1)
    assert pos.status == "infeasible"
    assert pos.most_violated == "far-corner clearance"
    assert pos.relaxed_vertex is None and pos.solution is None

    plan = plan_with_fallback(s)
    assert plan.status == "solved"
    assert plan.secondary is None
    sol = plan.primary.solution
    t = sol.trajectory
    assert sol.curvature_sign == -1
    assert_allclose(t.beta, -0.5332023003, rtol=1e-9)
    assert_allclose(t.p, 0.4864457831325301, rtol=1e-9)
    assert_allclose(t.q, 0.14062567290513928, rtol=1e-9)
    assert_allclose(sol.x_t_star, 0.014454279225, rtol=1e-9)
    assert_allclose(sol.x_adj_star, 0.014081364858910046, rtol=1e-9)
    assert int(sol.active_elements.sum()) == 499
    assert sol.kkt_candidate_index == 3
    assert_allclose(sol.objective_value, 0.20428714637999987, rtol=1e-9)
    assert_allclose(sol.relaxed_objective, 0.20431511495745672, rtol=1e-9)
    assert_allclose(
        plan.primary.relaxed_vertex,
        (-0.53357521466609, -0.25974692490358997, 0.014081364858910046),
        rtol=1e-9,
    )
    # the trajectory squeezes past the obstacle's near-right corner
    assert trajectory_eval(t, s.obstacle.y_n) >= s.obstacle.x_r1
    anchor, side = solution_geometry_slacks(s, sol)
    assert anchor < 1e-9 and max(side) < 1e-9


def test_frozen_negative_variant(cfg1024):
    s = AvoidanceScenario(Point2(0.0, 1.0), RectObstacle(0.10, -0.90, 0.15, 0.55), cfg1024, 1.0)
    res = optimize(s, -1)
    assert res.status == "solved"
    assert_allclose(res.solution.trajectory.beta, -0.5053644292, rtol=1e-9)
    assert_allclose(res.solution.x_t_star, 0.042292150325, rtol=1e-9)
    assert int(res.solution.active_elements.sum()) == 473
    assert res.solution.kkt_candidate_index == 3


def test_frozen_unnecessary_plan(cfg1024):
    s = AvoidanceScenario(Point2(-0.05, 1.0), RectObstacle(0.05, -0.90, 0.10, 0.50), cfg1024, 1.0)
    assert optimize(s, 1).status == "infeasible"
    plan = plan_with_fallback(s)
    assert plan.status == "unnecessary"
    assert plan.primary.solution is None
    assert plan.primary.relaxed_vertex is not None
    assert abs(plan.primary.relaxed_vertex[0]) < 1e-6


@pytest.mark.parametrize("sign", [0, 2, -2, 0.5])
def test_optimize_rejects_a_sign_other_than_plus_or_minus_one(cfg1024, sign):
    with pytest.raises(ValueError, match="curvature sign"):
        optimize(frozen_scenario(cfg1024), sign)


# ------------------------------------------------------------------ plans

def test_two_beam_plan_disjoint_and_power_split(cfg1024):
    s = AvoidanceScenario(Point2(0.0, 1.0), RectObstacle(0.14, -0.14, 0.10, 0.57), cfg1024, 1.0)
    plan = plan_with_fallback(s)
    assert plan.status == "solved"
    assert plan.secondary is not None and plan.secondary.status == "solved"
    m1 = plan.primary.solution.active_elements
    m2 = plan.secondary.solution.active_elements
    assert not np.any(m1 & m2)
    assert m1.sum() > 0 and m2.sum() > 0

    exc = plan_excitation(cfg1024, plan, 2.0)
    assert_allclose(float(np.sum(exc.magnitudes**2)), 2.0, rtol=1e-12)
    assert_allclose(float(np.sum(exc.magnitudes[m1] ** 2)), 1.0, rtol=1e-12)
    assert_allclose(float(np.sum(exc.magnitudes[m2] ** 2)), 1.0, rtol=1e-12)
    assert np.array_equal(exc.active, m1 | m2)
    for res, mask in ((plan.primary, m1), (plan.secondary, m2)):
        ref = curving_phases(cfg1024, res.solution.trajectory, mask)
        assert np.array_equal(exc.phases[mask], ref.phases[mask])
        anchor, side = solution_geometry_slacks(s, res.solution)
        assert anchor < 1e-9 and max(side) < 1e-9


def test_secondary_cut_is_bounded_at_the_primary(cfg1024):
    # Alone, the reverse-curvature beam keeps the whole array; in the plan
    # its cut stops at the first element the primary leaves.
    s = AvoidanceScenario(Point2(0.07, 0.86), RectObstacle(0.0, -0.04, 0.46, 0.57), cfg1024, 1.0)
    assert int(optimize(s, -1).solution.active_elements.sum()) == 1024
    plan = plan_with_fallback(s)
    assert plan.status == "solved"
    assert plan.secondary is not None and plan.secondary.status == "solved"
    m1 = plan.primary.solution.active_elements
    m2 = plan.secondary.solution.active_elements
    assert int(m1.sum()) == 766 and int(m2.sum()) == 258
    assert plan.secondary.solution.x_t_star == cfg1024.element_xs()[~m1].min()
    assert not np.any(m1 & m2) and np.all(m1 | m2)
    anchor, side = solution_geometry_slacks(s, plan.secondary.solution)
    assert anchor < 1e-9 and max(side) < 1e-9


def test_far_obstacle_plan_keeps_full_aperture(cfg1024):
    s = AvoidanceScenario(Point2(0.0, 1.0), RectObstacle(-1.86, -2.14, 0.10, 0.57), cfg1024, 1.0)
    plan = plan_with_fallback(s)
    assert plan.status == "solved"
    sol = plan.primary.solution
    assert sol.curvature_sign == -1
    assert_allclose(sol.trajectory.beta, -1.09531315905, rtol=1e-9)
    assert int(sol.active_elements.sum()) == 1024


STRAIGHT = "optimal curvature is zero; a straight beam already clears the obstacle"
FALLBACK = "positive curvature failed; negative curvature used"
TWO_BEAM = "primary plus reverse-curvature secondary"
NO_SECONDARY = "no reverse-curvature secondary for the remaining elements"
FULL_ARRAY = "primary uses the full array"
BOTH_FAILED = "both curvature signs failed (positive: infeasible, negative: infeasible)"
# Per scene of tools/cli_diff.py: the plan's status and message, and the
# curvature sign of the solve that returned its primary, which decided it.
CLI_DIFF_PLANS = {
    "negative_fallback": ("solved", FALLBACK, -1),
    "unnecessary": ("unnecessary", STRAIGHT, -1),
    "two_beam": ("solved", TWO_BEAM, 1),
    "far_obstacle": ("solved", FALLBACK, -1),
    "no_secondary": ("solved", NO_SECONDARY, 1),
    "clamped_secondary": ("solved", TWO_BEAM, 1),
    "positive_unnecessary": ("unnecessary", STRAIGHT, 1),
    "full_array_primary": ("solved", FULL_ARRAY, 1),
    "infeasible_curving": ("infeasible", BOTH_FAILED, 1),
}
# One outcome of each return of plan_with_fallback, in source order.
PLAN_RETURNS = [
    ("unnecessary", STRAIGHT, 1),
    ("solved", FULL_ARRAY, 1),
    ("solved", NO_SECONDARY, 1),
    ("solved", TWO_BEAM, 1),
    ("solved", FALLBACK, -1),
    ("infeasible", BOTH_FAILED, 1),
]


def test_cli_diff_planner_scenes_reach_every_plan_return(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py"
    spec = importlib.util.spec_from_file_location("standalone_cli_diff", path)
    cli_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_diff)
    # the curvature sign of each solve, by its result's identity
    signs = {}
    solve = ulabeam.curving.optimize

    def recording(s, sign, limit=math.inf):
        result = solve(s, sign, limit)
        signs[id(result)] = sign
        return result

    monkeypatch.setattr(ulabeam.curving, "optimize", recording)
    scenes = {label: cli_diff.planner_scene(*scene) for label, scene in cli_diff.PLANNER.items()}
    scenes["infeasible_curving"] = cli_diff.INFEASIBLE
    reached = {}
    for label, text in scenes.items():
        scene = tmp_path / f"{label}.yaml"
        scene.write_text(text, encoding="utf-8")
        parsed = load_scenario(str(scene))
        s = AvoidanceScenario(parsed["user"], parsed["obstacle"], parsed["cfg"], parsed["beam"]["w"])
        plan = plan_with_fallback(s)
        reached[label] = (plan.status, plan.message, signs[id(plan.primary)])
    assert reached == CLI_DIFF_PLANS
    source = ast.parse(inspect.getsource(plan_with_fallback))
    assert sum(isinstance(node, ast.Return) for node in ast.walk(source)) == len(PLAN_RETURNS)
    assert set(PLAN_RETURNS) <= set(reached.values())


PINNED_ZERO = "optimal curvature is zero after aperture projection; a straight beam suffices"


def test_pinned_curvature_is_zero_exactly_when_the_cut_is_the_first_element():
    # Along the cut row, raising beta lowers the pinned objective until the
    # leftmost tangent reaches -R; so the pinned beta is 0 exactly when the
    # snapped cut, in the curvature's frame, is -R: one element kept.
    fired = solved = 0
    for s in sweep_scenarios(np.random.default_rng(5), 5000):
        xs = s.cfg.element_xs()
        r_half = s.cfg.half_aperture()
        # the solves plan_with_fallback makes: each sign, and the secondary's bounded one
        solves = [(sign, math.inf, optimize(s, sign)) for sign in (1, -1)]
        primary = solves[0][2]
        if primary.status == "solved" and not primary.solution.active_elements.all():
            limit = -float(xs[~primary.solution.active_elements].min())
            solves.append((-1, limit, optimize(s, -1, limit)))
        for sign, limit, res in solves:
            if res.status != "solved" and res.message != PINNED_ZERO:
                continue  # the pinned solve was not reached
            # the relaxed cut snapped to an element, then bounded at limit
            relaxed_cut = sign * res.relaxed_vertex[2]
            cut = min(float(xs[xs <= relaxed_cut + s.cfg.spacing * 1e-9].max()), limit)
            if res.status == "solved":
                solved += 1
                assert sign * res.solution.x_t_star == cut
            fired += res.message == PINNED_ZERO
            assert (res.message == PINNED_ZERO) == (cut == -r_half)
    assert fired >= 5 and solved >= 1000


def test_plan_excitation_requires_solved_plan(cfg1024):
    s = AvoidanceScenario(Point2(-0.05, 1.0), RectObstacle(0.05, -0.90, 0.10, 0.50), cfg1024, 1.0)
    plan = plan_with_fallback(s)
    with pytest.raises(ValueError, match="not solved"):
        plan_excitation(cfg1024, plan, 1.0)


def test_best_vertex_keeps_a_feasible_vertex_whatever_its_objective():
    # the unit square 0 <= z <= 1; a NaN objective compares false with every bound
    g = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    c = np.array([0.0, 0.0, -1.0, -1.0])
    z, feasible = _best_vertex(g, c, np.ones(4), np.array([math.nan, 0.0]), 2)
    assert feasible and z is not None
    assert np.all(g @ z + c <= 0)


def test_scenario_validation(cfg1024):
    with pytest.raises(ValueError):
        AvoidanceScenario(Point2(0.0, -1.0), RectObstacle(0.1, -0.1, 0.2, 0.5), cfg1024)
    with pytest.raises(ValueError):
        AvoidanceScenario(Point2(0.0, 0.4), RectObstacle(0.1, -0.1, 0.2, 0.5), cfg1024)
    with pytest.raises(ValueError):
        AvoidanceScenario(Point2(0.0, 1.0), RectObstacle(0.1, -0.1, 0.2, 0.5), cfg1024, 0.0)
    with pytest.raises(ValueError, match="finite"):
        AvoidanceScenario(Point2(0.0, 1.0), RectObstacle(0.14, -0.14, 0.10, 0.57), cfg1024, math.inf)
    # w and every nonzero length lie within 1e-100..1e100 in magnitude
    rect = RectObstacle(0.1, -0.1, 0.3, 0.5)
    for w in (1e101, 1e-101):
        with pytest.raises(ValueError, match="weight_w must be finite and within 1e-100..1e100"):
            AvoidanceScenario(Point2(0.0, 1.0), rect, cfg1024, w)
    out_of_range = [
        (Point2(0.0, 1e160), rect, cfg1024),
        (Point2(-1e101, 1.0), rect, cfg1024),
        (Point2(1e-101, 1.0), rect, cfg1024),
        (Point2(0.0, 1.0), RectObstacle(1e-101, -0.1, 0.3, 0.5), cfg1024),
        (Point2(0.0, 1.0), RectObstacle(0.1, -0.1, 1e-101, 0.5), cfg1024),
        (Point2(0.0, 2e100), RectObstacle(0.1, -0.1, 0.3, 0.5), cfg1024),
        # R = 1e101 m
        (Point2(0.0, 1.0), rect, UlaConfig(3, 1e101, 140e9)),
    ]
    for user, obstacle, cfg in out_of_range:
        with pytest.raises(ValueError, match="scene lengths must be 0 or within 1e-100..1e100 m in magnitude"):
            AvoidanceScenario(user, obstacle, cfg)
    # zero lengths and both ends of the range are accepted
    AvoidanceScenario(Point2(0.0, 1e100), RectObstacle(0.0, -1e-100, 1e-100, 0.5), cfg1024, 1e100)
    AvoidanceScenario(Point2(-1e100, 1.0), rect, UlaConfig(2, 2e100, 140e9), 1e-100)
