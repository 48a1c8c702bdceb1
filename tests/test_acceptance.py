"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with -s to see the gate report. Every test prints
`[Cxx] name: PASS|FAIL` through a try/finally so the verdict line appears
whether the assertions hold or not.

Criteria:
- C01 antenna spacing bound printed to five significant figures
- C02 exact element counts for a 4 m reach at three spacings
- C03 broadside propagation distances at two cone angles
- C04 closed-form phases equal brute-force wavefront distances
- C05 steerability flips exactly at both angular boundaries
- C06 closed-form optimizer matches a cubic grid search
- C07 every solution anchors on the user and clears the obstacle
- C08 phase-gradient ray angles equal parabola tangent angles
- C09 on-axis amplitude flat to 6 dB, then decayed by 10 dB
- C10 focusing attains the highest amplitude at the user
- C11 shadowed beam recovers past the healing distance
- C12 repeated CLI runs are byte-identical
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    grid_search,
    grid_tolerance,
    polyline_min_distances,
    random_feasible_scenarios,
    solution_geometry_slacks,
    tangent_y,
    trajectory_eval,
    wavefront,
)
from ulabeam import (
    AvoidanceScenario,
    BesselDesign,
    Point2,
    RectObstacle,
    UlaConfig,
    bessel_phases,
    curving_phases,
    f_para,
    field_at,
    focusing_excitation,
    gaussian_excitation,
    max_spacing,
    min_elements,
    normalize_power,
    optimize,
    plan_excitation,
    plan_with_fallback,
    propagation_limits,
    self_heal,
)
from ulabeam.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
STEER_15_20 = BesselDesign(math.radians(15), math.radians(20))


def _report(cid: str, name: str, passed: bool) -> None:
    print(f"[{cid}] {name}: {'PASS' if passed else 'FAIL'}", flush=True)


@pytest.fixture(scope="module")
def kkt_batch(cfg1024):
    """200 oracle-certified scenarios with optimizer and grid results."""
    rng = np.random.default_rng(20260816)
    scenarios = random_feasible_scenarios(cfg1024, rng, 200)
    batch = []
    for s in scenarios:
        res = optimize(s, 1)
        f_kkt = f_para(s, *res.relaxed_vertex) if res.relaxed_vertex else math.inf
        found = grid_search(s, n=400)
        batch.append((s, res, f_kkt, found))
    return batch


def test_c01_spacing_bound(cfg1024):
    ok = False
    try:
        bound = max_spacing(STEER_15_20, cfg1024.wavelength())
        # printed value is truncated after the fifth significant digit
        assert abs(bound - 0.0018666) < 1e-7
        ok = True
    finally:
        _report("C01", "antenna spacing bound", ok)


def test_c02_element_counts(cfg1024):
    ok = False
    try:
        for spacing, expected in (
            (cfg1024.spacing, 3121),
            (0.00186, 1797),
            (0.00372, 899),
        ):
            n = min_elements(4.0, STEER_15_20, spacing)
            assert isinstance(n, int) and n == expected
        ok = True
    finally:
        _report("C02", "element counts for a 4 m target", ok)


def test_c03_propagation_distances(cfg1024):
    ok = False
    try:
        for alpha_deg, expected in ((20.0, 1.5047), (30.0, 0.9486)):
            lim = propagation_limits(cfg1024, BesselDesign(0.0, math.radians(alpha_deg)))
            assert abs(lim.d_max - expected) < 5e-4
        ok = True
    finally:
        _report("C03", "propagation distances", ok)


def test_c04_phase_oracle_equivalence():
    ok = False
    try:
        t0 = time.monotonic()
        cfg = UlaConfig(257, 299792458.0 / 140e9 / 2.0, 140e9)
        rng = np.random.default_rng(41)
        r_half = cfg.half_aperture()
        curve_x = np.linspace(-6 * r_half, 6 * r_half, 100001)
        k = cfg.wavenumber()
        for _ in range(50):
            th = rng.uniform(-0.6, 0.6)
            al = rng.uniform(abs(th) + 1e-6, math.pi / 2 - abs(th) - 1e-6)
            design = BesselDesign(th, al)
            assert design.steering_failure() is None
            exc = bessel_phases(cfg, design)
            dist = polyline_min_distances(cfg.element_xs(), curve_x, wavefront(curve_x, design))
            assert_allclose(exc.phases, k * dist, rtol=1e-6, atol=1e-9)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"C04 took {elapsed:.1f} s (bound 30 s)"
        ok = True
    finally:
        _report("C04", "phase oracle equivalence", ok)


def test_c05_steerability_boundary():
    ok = False
    try:
        eps = 1e-12
        theta = math.radians(15)
        # lower boundary alpha = |theta| is steerable, just below is not
        assert BesselDesign(theta, theta).steering_failure() is None
        assert BesselDesign(theta, theta - eps).steering_failure() is not None
        # upper boundary alpha = pi/2 - |theta| is not steerable, just below is
        upper = math.pi / 2 - theta
        assert BesselDesign(theta, upper).steering_failure() is not None
        assert BesselDesign(theta, upper - eps).steering_failure() is None
        # the failed steering demonstration: theta 15 deg, alpha 10 deg
        bad = BesselDesign(math.radians(15), math.radians(10))
        assert bad.steering_failure() is not None
        with pytest.raises(ValueError, match=r"alpha < \|theta\|"):
            bessel_phases(UlaConfig(64, 1e-3, 140e9), bad)
        ok = True
    finally:
        _report("C05", "steerability boundary", ok)


def test_c06_optimizer_matches_grid_search(kkt_batch):
    ok = False
    try:
        t0 = time.monotonic()
        disagreements = []
        for s, res, f_kkt, found in kkt_batch:
            # the flat zero-curvature corner is a valid optimum too
            assert res.status in ("solved", "unnecessary")
            assert res.relaxed_vertex is not None
            assert found is not None
            f_grid, _ = found
            # grid points are feasible, so the optimum can never beat the
            # closed-form solution by more than float noise
            assert f_kkt <= f_grid + 1e-9 * max(1.0, abs(f_grid))
            if f_grid - f_kkt > grid_tolerance(s, 400):
                disagreements.append(s)
        assert len(disagreements) <= 10  # >= 95% of 200
        for s in disagreements:
            res = optimize(s, 1)
            f_kkt = f_para(s, *res.relaxed_vertex)
            f_grid, _ = grid_search(s, n=1600)
            assert f_grid - f_kkt <= grid_tolerance(s, 1600)
        assert time.monotonic() - t0 < 300.0
        ok = True
    finally:
        _report("C06", "optimizer vs grid search", ok)


def test_c07_anchor_and_clearance(kkt_batch, cfg1024):
    ok = False
    try:
        solutions = [(s, res.solution) for s, res, _, _ in kkt_batch if res.solution]
        assert len(solutions) >= 150
        bend_scene = AvoidanceScenario(
            Point2(-0.1, 1.0), RectObstacle(0.14, -0.14, 0.10, 0.57), cfg1024, 1.0
        )
        plan = plan_with_fallback(bend_scene)
        assert plan.status == "solved"
        solutions.append((bend_scene, plan.primary.solution))
        solutions.append((bend_scene, plan.secondary.solution))
        for s, sol in solutions:
            anchor, side = solution_geometry_slacks(s, sol)
            assert anchor <= 1e-9
            assert max(side) <= 1e-9
        ok = True
    finally:
        _report("C07", "anchor and clearance slack", ok)


def test_c08_tangent_ray_agreement(kkt_batch, cfg1024):
    ok = False
    try:
        t0 = time.monotonic()
        k = cfg1024.wavenumber()
        xs = cfg1024.element_xs()
        solved = [res.solution for _, res, _, _ in kkt_batch if res.solution]
        for sol in solved[:10]:
            t = sol.trajectory
            phases = curving_phases(cfg1024, t, sol.active_elements).phases
            idx = np.flatnonzero(sol.active_elements)
            assert idx.size >= 2
            worst = 0.0
            for a, b in zip(idx[:-1], idx[1:]):
                dphi = phases[b] - phases[a]
                dx = xs[b] - xs[a]
                numeric = math.asin(max(-1.0, min(1.0, -dphi / (k * dx))))
                x_mid = 0.5 * (xs[a] + xs[b])
                s_mid = tangent_y(t, x_mid)
                analytic = math.atan2(trajectory_eval(t, s_mid) - x_mid, s_mid)
                worst = max(worst, abs(numeric - analytic))
            assert worst < 1e-2
        assert time.monotonic() - t0 < 10.0
        ok = True
    finally:
        _report("C08", "tangent ray agreement", ok)


def test_c09_on_axis_flatness_and_decay(cfg1024):
    ok = False
    try:
        t0 = time.monotonic()
        design = BesselDesign(0.0, math.radians(20))
        lim = propagation_limits(cfg1024, design)
        exc = bessel_phases(cfg1024, design)

        def amp(y):
            return abs(field_at(cfg1024, exc, Point2(0.0, y)))

        window = np.array([amp(y) for y in np.linspace(0.1, 0.9 * lim.d_max, 1001)])
        peak = window.max()
        # amplitude dB: 10*log10 of the |E| ratio
        assert window.min() >= peak * 10 ** (-0.6)
        assert amp(2 * lim.d_lim) <= peak * 10 ** (-1.0)
        assert time.monotonic() - t0 < 60.0
        ok = True
    finally:
        _report("C09", "on-axis flatness and decay", ok)


def test_c10_focusing_wins_at_user(cfg1024):
    ok = False
    try:
        t0 = time.monotonic()
        user = Point2(0.0, 1.0)
        plan = plan_with_fallback(
            AvoidanceScenario(user, RectObstacle(-1.86, -2.14, 0.10, 0.57), cfg1024, 1.0)
        )
        assert plan.status == "solved"
        amplitudes = {
            "gaussian": normalize_power(gaussian_excitation(cfg1024, 0.0), 1.0),
            "focus": normalize_power(focusing_excitation(cfg1024, user), 1.0),
            "bessel": normalize_power(
                bessel_phases(cfg1024, BesselDesign(0.0, math.radians(20))), 1.0
            ),
            "curving": plan_excitation(cfg1024, plan, 1.0),
        }
        amplitudes = {name: abs(field_at(cfg1024, exc, user)) for name, exc in amplitudes.items()}
        assert max(amplitudes, key=amplitudes.get) == "focus"
        assert amplitudes["focus"] > 2 * max(v for n, v in amplitudes.items() if n != "focus")
        assert time.monotonic() - t0 < 60.0
        ok = True
    finally:
        _report("C10", "focusing wins at the user", ok)


def test_c11_shadow_recovery(cfg1024):
    ok = False
    try:
        t0 = time.monotonic()
        design = BesselDesign(0.0, math.radians(30))
        obstacle = RectObstacle(0.14, -0.14, 0.10, 0.57)
        heal = self_heal(cfg1024, design, obstacle)
        assert_allclose(heal.d_h_pos, 0.813191623923532, rtol=1e-12)
        assert heal.d_h_neg == heal.d_h_pos
        exc = bessel_phases(cfg1024, design)

        def ratio(y):
            free = abs(field_at(cfg1024, exc, Point2(0.0, y)))
            blocked = abs(field_at(cfg1024, exc, Point2(0.0, y), obstacle))
            return blocked / free

        for y in np.linspace(0.5701, 0.76, 80):
            assert ratio(y) <= 0.1
        for y in np.linspace(heal.d_h_pos, 1.2, 120):
            assert ratio(y) >= 0.5
        assert time.monotonic() - t0 < 60.0
        ok = True
    finally:
        _report("C11", "shadow recovery distance", ok)


def test_c12_cli_determinism(tmp_path):
    ok = False
    try:
        runs = []
        for tag in ("one", "two"):
            root = tmp_path / tag
            jobs = [
                (["analyze"], "bessel_axis.yaml"),
                (["analyze"], "bessel_steered.yaml"),
                (["analyze"], "self_healing_cuboid.yaml"),
                (["analyze"], "self_healing_cylinder.yaml"),
                (["synthesize"], "bessel_axis.yaml"),
                (["synthesize"], "bessel_steered.yaml"),
                (["synthesize"], "self_healing_cuboid.yaml"),
                (["synthesize"], "self_healing_cylinder.yaml"),
                (["synthesize"], "curving_centered_cuboid.yaml"),
                (["synthesize"], "smoke_two_element.yaml"),
                (["simulate", "--grid", "40,40"], "bessel_axis.yaml"),
                (["simulate", "--grid", "40,40"], "bessel_steered.yaml"),
                (["simulate", "--grid", "40,40"], "self_healing_cuboid.yaml"),
                (["simulate", "--grid", "40,40"], "self_healing_cylinder.yaml"),
                (["simulate", "--grid", "40,40"], "curving_centered_cuboid.yaml"),
                (["simulate", "--grid", "40,40", "--line-cut", "1.5,64"], "smoke_two_element.yaml"),
                (["compare", "--levels", "21"], "compare_four_positions.yaml"),
                (["optimize"], "curving_centered_cuboid.yaml"),
            ]
            for i, (argv, scenario) in enumerate(jobs):
                out = root / f"{i:02d}_{argv[0]}"
                rc = main(argv + ["--scenario", str(SCENARIOS / scenario), "--out", str(out)])
                assert rc == 0, (argv, scenario)
            runs.append(root)
        one, two = runs
        files_one = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        files_two = sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
        assert files_one == files_two and files_one
        for rel in files_one:
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), str(rel)
        ok = True
    finally:
        _report("C12", "deterministic CLI outputs", ok)
