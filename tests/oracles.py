"""Independent test oracles: brute-force and closed-form references the tests compare against.

Kept free of any imports from the package's functions; only its data
types are used, so the oracles cannot inherit a bug from the code under
test. The one exception is ``dense_field``: it checks the field kernel's
arithmetic, not its geometry, so it takes the kernel's blocked runs and
the obstacle's ``contains`` (which ``visible_pairs`` and
``inside_obstacle`` check on their own). ``highs_optimum`` solves the
curving LP, built from this module's own rows, with scipy's HiGHS rather
than by enumeration.

The paper's closed forms that no command evaluates live here too: the
Bessel wavefront curve (``wavefront``), the parabola and its tangent
heights (``trajectory_eval``, ``tangent_y``) and the nine KKT candidate
vertices of the curving LP (``kkt_candidates``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ulabeam import (
    AvoidanceScenario,
    BesselDesign,
    CircleObstacle,
    ParabolicTrajectory,
    Point2,
    RectObstacle,
    UlaConfig,
)
from ulabeam.field import _blocked_runs


def wavefront(x, d: BesselDesign):
    """Wavefront curve height at transverse position x.

    Piecewise linear: tan(alpha - theta_a) * x for x >= 0,
    -tan(alpha + theta_a) * x otherwise. Defined only while
    alpha + |theta_a| < pi/2. Scalar in, scalar out.
    """
    if not d.alpha + abs(d.theta_a) < math.pi / 2:
        raise ValueError("wavefront undefined: alpha + |theta_a| >= pi/2")
    xv = np.asarray(x, dtype=float)
    out = np.where(xv >= 0, math.tan(d.alpha - d.theta_a) * xv, -math.tan(d.alpha + d.theta_a) * xv)
    return float(out) if np.isscalar(x) or xv.ndim == 0 else out


def trajectory_eval(t: ParabolicTrajectory, y):
    """Trajectory x-coordinate at height y."""
    yv = np.asarray(y, dtype=float)
    out = t.beta * (yv - t.p) ** 2 + t.q
    return float(out) if np.isscalar(y) or yv.ndim == 0 else out


def tangent_y(t: ParabolicTrajectory, x_t):
    """Height of the tangent point on the trajectory for an element at x_t.

    For beta > 0 this is non-increasing in x_t. A radicand below zero by
    at most 1e-7 of the largest one is roundoff at an edge element tangent
    on the array plane, and reads as height 0; raises when the element has
    no tangent (a negative radicand beyond that).
    """
    if t.beta == 0:
        raise ValueError("tangent undefined for beta = 0")
    xv = np.asarray(x_t, dtype=float)
    rad = (t.beta * t.p**2 + t.q - xv) / t.beta
    atol = 1e-7 * max(1.0, float(np.abs(rad).max(initial=0.0)))
    rad = np.where((rad < 0) & (rad >= -atol), 0.0, rad)
    if np.any(rad < 0):
        raise ValueError("element has no tangent to trajectory")
    out = np.sqrt(rad)
    return float(out) if np.isscalar(x_t) or xv.ndim == 0 else out


def polyline_min_distances(points_x: np.ndarray, curve_x: np.ndarray, curve_y: np.ndarray) -> np.ndarray:
    """Min distance from each array point (x, 0) to the sampled polyline.

    Exact point-to-segment distances over every consecutive sample pair,
    minimized per point. Works one point row at a time in reused
    segment-length buffers, so the working set (a few arrays of one double
    per segment) stays in cache. Chunking changes no per-pair arithmetic:
    each pair goes through the same elementwise expressions in the same
    order, and the terms that depend only on the segment are the same
    values whether computed once or per row. So the result does not depend
    on the chunking.
    """
    ax, ay = curve_x[:-1], curve_y[:-1]
    ex, ey = np.diff(curve_x), np.diff(curve_y)
    inv_l2 = 1.0 / (ex * ex + ey * ey)
    dy = -ay
    dy_ey = dy * ey
    dx, t, fx, fy = (np.empty_like(ax) for _ in range(4))
    out = np.empty(points_x.shape[0])
    for i, px in enumerate(points_x):
        np.subtract(px, ax, out=dx)
        # t = clip((dx * ex + dy * ey) * inv_l2, 0, 1)
        np.multiply(dx, ex, out=t)
        t += dy_ey
        t *= inv_l2
        np.clip(t, 0.0, 1.0, out=t)
        # fx = dx - t * ex, fy = dy - t * ey
        np.multiply(t, ex, out=fx)
        np.subtract(dx, fx, out=fx)
        np.multiply(t, ey, out=fy)
        np.subtract(dy, fy, out=fy)
        # squared distance fx * fx + fy * fy
        fx *= fx
        fy *= fy
        fx += fy
        out[i] = np.sqrt(fx.min())
    return out


def direct_ray(y, x_tn: float, d: BesselDesign):
    """x-coordinate at height y of the Bessel ray leaving the element at x_tn.

    Each element's ray runs perpendicular to its wavefront segment: it
    leans inward at alpha - theta_a from the y-axis on the x >= 0 side and
    at alpha + theta_a on the other.
    """
    slope = -math.tan(d.alpha - d.theta_a) if x_tn >= 0 else math.tan(d.alpha + d.theta_a)
    return slope * np.asarray(y, dtype=float) + x_tn


def _lp_data(s: AvoidanceScenario):
    y_n, y_f, y_u = s.obstacle.y_n, s.obstacle.y_f, s.user.y
    x_u, x_r2 = s.user.x, s.obstacle.x_r2
    r_half = s.cfg.half_aperture()
    return y_n, y_f, y_u, x_u, x_r2, r_half


# A NamedTuple, not a dataclass: perfbench loads this file as a module
# that sys.modules does not hold, where a dataclass cannot resolve its
# string annotations.
class KktCandidate(NamedTuple):
    index: int
    beta: float
    p_tilde: float
    x_adj: float
    valid: bool


def kkt_candidates(s: AvoidanceScenario) -> list[KktCandidate]:
    """The paper's nine closed-form candidate vertices of the positive-curvature LP.

    Rows 1..3 carry a computed aperture cut; rows 4..9 pin x_adj = R.
    Candidates with non-finite entries are flagged invalid but returned.
    """
    y_n, y_f, y_u, x_u, x_r2, r_half = _lp_data(s)

    def pair_rows(y_e: float) -> list[tuple[float, float, float]]:
        # Rows parameterized by one obstacle corner height y_e (y_f or y_n):
        # edge-tangent family (computed x_adj), full-span family (x_adj = R)
        # sharing the same (beta, p_tilde), and two more x_adj = R rows.
        d_e = y_e - y_u
        b2 = -(r_half * y_e - r_half * y_u + x_u * y_e - x_r2 * y_u) / (y_u * d_e**2)
        p2 = -(
            r_half * y_e**2 - r_half * y_u**2 + x_u * y_e**2 - 2.0 * x_r2 * y_u**2 + x_u * y_u**2
        ) / (2.0 * y_u * d_e**2)
        x2 = -(r_half * y_e**2 - x_r2 * y_u**2 - r_half * y_e * y_u + x_u * y_e * y_u) / d_e**2
        b4 = (r_half * y_e - r_half * y_u - x_u * y_e + x_r2 * y_u) / (y_e * y_u * d_e)
        p4 = (r_half * y_e**2 - r_half * y_u**2 - x_u * y_e**2 + x_r2 * y_u**2) / (
            2.0 * y_e * y_u * d_e
        )
        b8 = (r_half * y_e - r_half * y_u - x_u * y_e + x_r2 * y_u) / (y_u * d_e**2)
        p8 = -(
            r_half * y_u**2 - r_half * y_e**2 + x_u * y_e**2 - 2.0 * x_r2 * y_u**2 + x_u * y_u**2
        ) / (2.0 * y_u * d_e**2)
        return [(b2, p2, x2), (b4, p4, r_half), (b2, p2, r_half), (b8, p8, r_half)]

    d_f, d_n = y_f - y_u, y_n - y_u
    b1 = -(x_r2 - x_u) / (d_f * d_n)
    p1 = -(x_r2 * y_f - x_u * y_f + x_r2 * y_n - x_u * y_n) / (2.0 * d_f * d_n)
    x1 = (x_r2 * y_u**2 + x_u * y_f * y_n - x_r2 * y_f * y_u - x_r2 * y_n * y_u) / (d_f * d_n)

    far_rows = pair_rows(y_f)
    near_rows = pair_rows(y_n)
    ordered = [(b1, p1, x1)] + [row for pair in zip(far_rows, near_rows) for row in pair]
    return [
        KktCandidate(i, b, pt, xa, all(math.isfinite(v) for v in (b, pt, xa)))
        for i, (b, pt, xa) in enumerate(ordered, start=1)
    ]


def grid_objective(s: AvoidanceScenario, beta, p_tilde, x_adj):
    y_n, y_f, y_u, _, _, _ = _lp_data(s)
    a = y_n**2 + y_f**2 - 2.0 * y_u**2
    b = 2.0 * y_u - y_n - y_f
    return beta * a + 2.0 * p_tilde * b - s.weight_w * x_adj


def grid_bounds(s: AvoidanceScenario) -> tuple[float, float, float]:
    """Search box (beta_hi, p_lo, p_hi) covering every feasible vertex.

    Derived from the constraint system: combining the user-tangent lower
    bound on p_tilde with each obstacle-corner clearance gives a finite
    beta cap; the p_tilde extremes are linear in beta so the box endpoints
    suffice.
    """
    y_n, y_f, y_u, x_u, x_r2, r_half = _lp_data(s)
    beta_hi = math.inf
    for y_e in (y_n, y_f):
        d_abs = y_u - y_e
        cap = ((x_r2 - x_u) / (2.0 * d_abs) + (x_u + r_half) / (2.0 * y_u)) / (d_abs / 2.0)
        beta_hi = min(beta_hi, cap)
    beta_hi = max(beta_hi, 0.0) * 1.1 + 1e-6
    p_candidates = []
    for beta in (0.0, beta_hi):
        p_candidates.append(beta * y_u - (x_u + r_half) / (2.0 * y_u))
        p_candidates.append((beta * y_u**2 - x_u - r_half) / (2.0 * y_u))
        p_candidates.append(beta * y_u + (r_half - x_u) / (2.0 * y_u))
        for y_e in (y_n, y_f):
            d_abs = y_u - y_e
            p_candidates.append(((x_r2 - x_u) + beta * (y_u**2 - y_e**2)) / (2.0 * d_abs))
    margin = 0.1 * (max(p_candidates) - min(p_candidates)) + 1e-6
    return beta_hi, min(p_candidates) - margin, max(p_candidates) + margin


def lp_rows(s: AvoidanceScenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positive-curvature LP over z = (beta, p_tilde, x_adj): minimize cost . z, A z <= b.

    One row per condition that grid_search scans: beta >= 0, |x_adj| <= R
    (two rows), the leftmost tangent spanning the user, x_adj between the
    tangent-reaches-user and tangent-exists-at-cut bounds (two rows), and
    both obstacle corners cleared. The cost is grid_objective's.
    """
    y_n, y_f, y_u, x_u, x_r2, r_half = _lp_data(s)
    rows = [
        ((-1.0, 0.0, 0.0), 0.0),
        ((0.0, 0.0, 1.0), r_half),
        ((0.0, 0.0, -1.0), r_half),
        ((2.0 * y_u**2, -2.0 * y_u, 0.0), x_u + r_half),
        ((-2.0 * y_u**2, 2.0 * y_u, -1.0), -x_u),
        ((y_u**2, -2.0 * y_u, 1.0), x_u),
    ]
    rows += [((y_e**2 - y_u**2, -2.0 * (y_e - y_u), 0.0), x_r2 - x_u) for y_e in (y_n, y_f)]
    # grid_objective is linear: its values at the unit vectors are its coefficients.
    cost = np.array([grid_objective(s, *unit) for unit in np.eye(3)])
    return np.array([a for a, _ in rows]), np.array([b for _, b in rows]), cost


def lp_violation(s: AvoidanceScenario, beta: float, p_tilde: float, x_adj: float) -> float:
    """Largest constraint violation of the positive-curvature LP (lp_rows) at a point.

    <= 0 means feasible. Unscaled.
    """
    a, b, _ = lp_rows(s)
    return float(np.max(a @ np.array([beta, p_tilde, x_adj]) - b))


def highs_optimum(s: AvoidanceScenario, x_adj: float | None = None):
    """scipy's HiGHS solve of the positive-curvature LP of lp_rows.

    With x_adj given, the aperture cut is fixed there (the pinned problem).
    Returns linprog's result: status 0 optimal, 2 infeasible, 3 unbounded;
    fun the optimal objective.
    """
    from scipy.optimize import linprog

    a, b, cost = lp_rows(s)
    cut = (None, None) if x_adj is None else (x_adj, x_adj)
    return linprog(cost, A_ub=a, b_ub=b, bounds=[(None, None), (None, None), cut], method="highs")


def grid_search(s: AvoidanceScenario, n: int = 400) -> tuple[float, tuple[float, float, float]] | None:
    """Best objective on an n^3 grid of the positive-curvature problem.

    The x_adj axis is reduced exactly: for fixed (beta, p_tilde) the
    feasible x_adj values form an interval and the objective decreases in
    x_adj, so the best grid point is the largest feasible one; the result
    is identical to scanning all n^3 triples (grid_search_literal checks
    this on small n).
    """
    y_n, y_f, y_u, x_u, x_r2, r_half = _lp_data(s)
    beta_hi, p_lo, p_hi = grid_bounds(s)
    betas = np.linspace(0.0, beta_hi, n)
    ps = np.linspace(p_lo, p_hi, n)
    x_grid = np.linspace(-r_half, r_half, n)

    bb, pp = np.meshgrid(betas, ps, indexing="ij")
    feas = np.ones(bb.shape, dtype=bool)
    for y_e in (y_n, y_f):
        feas &= bb * (y_e**2 - y_u**2) - 2.0 * pp * (y_e - y_u) + x_u - x_r2 <= 1e-12
    feas &= 2.0 * bb * y_u**2 - 2.0 * pp * y_u - x_u - r_half <= 1e-12
    low = -2.0 * bb * y_u**2 + 2.0 * pp * y_u + x_u
    high = -bb * y_u**2 + 2.0 * pp * y_u + x_u
    idx = np.searchsorted(x_grid, high + 1e-15, side="right") - 1
    x_best = x_grid[np.clip(idx, 0, n - 1)]
    feas &= (x_best >= low - 1e-15) & (x_best <= high + 1e-15)
    if not feas.any():
        return None
    f = grid_objective(s, bb, pp, x_best)
    f = np.where(feas, f, np.inf)
    flat = int(np.argmin(f))
    i, j = np.unravel_index(flat, f.shape)
    return float(f[i, j]), (float(bb[i, j]), float(pp[i, j]), float(x_best[i, j]))


def grid_search_literal(s: AvoidanceScenario, n: int) -> tuple[float, tuple[float, float, float]] | None:
    """Same grid, scanned as a literal triple loop over all n^3 points."""
    y_n, y_f, y_u, x_u, x_r2, r_half = _lp_data(s)
    beta_hi, p_lo, p_hi = grid_bounds(s)
    betas = np.linspace(0.0, beta_hi, n)
    ps = np.linspace(p_lo, p_hi, n)
    x_grid = np.linspace(-r_half, r_half, n)
    best = None
    for beta in betas:
        for p_t in ps:
            ok = True
            for y_e in (y_n, y_f):
                if beta * (y_e**2 - y_u**2) - 2.0 * p_t * (y_e - y_u) + x_u - x_r2 > 1e-12:
                    ok = False
            if 2.0 * beta * y_u**2 - 2.0 * p_t * y_u - x_u - r_half > 1e-12:
                ok = False
            if not ok:
                continue
            low = -2.0 * beta * y_u**2 + 2.0 * p_t * y_u + x_u
            high = -beta * y_u**2 + 2.0 * p_t * y_u + x_u
            for x_adj in x_grid:
                if x_adj < low - 1e-15 or x_adj > high + 1e-15:
                    continue
                f = grid_objective(s, beta, p_t, x_adj)
                if best is None or f < best[0]:
                    best = (f, (beta, p_t, x_adj))
    return best


def grid_tolerance(s: AvoidanceScenario, n: int, safety: float = 4.0) -> float:
    """Discretization bound: objective Lipschitz constants times grid steps."""
    y_n, y_f, y_u, _, _, r_half = _lp_data(s)
    beta_hi, p_lo, p_hi = grid_bounds(s)
    l_beta = abs(y_n**2 + y_f**2 - 2.0 * y_u**2)
    l_p = 2.0 * abs(2.0 * y_u - y_n - y_f)
    h_beta = beta_hi / (n - 1)
    h_p = (p_hi - p_lo) / (n - 1)
    h_x = 2.0 * r_half / (n - 1)
    return safety * (l_beta * h_beta + l_p * h_p + s.weight_w * h_x)


def solution_geometry_slacks(s: AvoidanceScenario, sol) -> tuple[float, list[float]]:
    """Geometric residuals of a curving solution, from the trajectory itself.

    Returns (anchor_error, side_residuals); every side residual must be
    <= 0 up to tolerance. Checks read the parabola directly: corner
    clearance on the curving side, aperture bounds of the kept cut, and
    tangent-point coverage of the user height (the edge element's tangent
    reaches at least y_u, the cut element's at most y_u). None of the
    solver's constraint rows are reused.
    """
    t = sol.trajectory
    y_u, x_u = s.user.y, s.user.x
    r_half = s.cfg.half_aperture()
    anchor = abs(trajectory_eval(t, y_u) - x_u)
    x_n = trajectory_eval(t, s.obstacle.y_n)
    x_f = trajectory_eval(t, s.obstacle.y_f)
    if sol.curvature_sign > 0:
        clear = [x_n - s.obstacle.x_r2, x_f - s.obstacle.x_r2]
        edge = -r_half
    else:
        clear = [s.obstacle.x_r1 - x_n, s.obstacle.x_r1 - x_f]
        edge = r_half
    s_cut = tangent_y(t, sol.x_t_star)
    s_edge = tangent_y(t, edge)
    side = clear + [s_cut - y_u, y_u - s_edge, abs(sol.x_t_star) - r_half]
    return anchor, side


def random_feasible_scenarios(cfg, rng: np.random.Generator, count: int) -> list[AvoidanceScenario]:
    """Random avoidance scenarios with an oracle-certified interior optimum.

    Geometry is sampled at desk scale around the array half-aperture. A
    grid-search screen keeps a candidate only when two resolutions agree
    within their combined discretization bound (so grid search is valid
    ground truth there, not fooled by a thin feasible sliver), the best
    beta is well off zero (genuine curvature needed) and the aperture cut
    stays off the left edge. The screen uses only the grid oracle, so
    scenario selection is independent of the solver under test.
    """
    r_half = cfg.half_aperture()
    out: list[AvoidanceScenario] = []
    while len(out) < count:
        y_u = float(rng.uniform(0.6, 2.0))
        y_n = float(rng.uniform(0.05, 0.6 * y_u))
        y_f = float(rng.uniform(y_n + 0.05, 0.8 * y_u))
        x_u = float(rng.uniform(-0.4, 0.4) * r_half)
        x_r2 = float(rng.uniform(-0.6, 0.4) * r_half)
        width = float(rng.uniform(0.1, 0.8) * r_half)
        w = float(rng.uniform(0.2, 5.0))
        scen = AvoidanceScenario(
            user=Point2(x_u, y_u),
            obstacle=RectObstacle(x_r2 + width, x_r2, y_n, y_f),
            cfg=cfg,
            weight_w=w,
        )
        coarse = grid_search(scen, n=60)
        if coarse is None:
            continue
        fine = grid_search(scen, n=240)
        if fine is None or abs(coarse[0] - fine[0]) > grid_tolerance(scen, 60) + grid_tolerance(scen, 240):
            continue
        beta_hi, _, _ = grid_bounds(scen)
        ok = True
        for (_, (beta, _, x_adj)), n_scan in ((coarse, 60), (fine, 240)):
            if beta < 3.0 * beta_hi / (n_scan - 1):
                ok = False
            if x_adj < -r_half + 3.0 * (2.0 * r_half / (n_scan - 1)):
                ok = False
        if ok:
            out.append(scen)
    return out


def sweep_scenarios(rng: np.random.Generator, count: int) -> list[AvoidanceScenario]:
    """Random avoidance scenes over the whole range of outcomes, feasible or not.

    N is 64, 256 or 1024 (half-wavelength spacing at 140 GHz); both rect x
    edges and the user's x are uniform in [-2R, 2R]; y_u is uniform in
    [0.2, 3], y_n in [0, 0.9 y_u], y_f in [y_n, 0.99 y_u] and w in [0.1, 3].
    """
    cfgs = [UlaConfig(n, 299792458.0 / 140e9 / 2.0, 140e9) for n in (64, 256, 1024)]
    out = []
    for _ in range(count):
        cfg = cfgs[int(rng.integers(3))]
        r_half = cfg.half_aperture()
        x_r2, x_r1 = sorted(rng.uniform(-2.0 * r_half, 2.0 * r_half, 2))
        x_u = rng.uniform(-2.0 * r_half, 2.0 * r_half)
        y_u = rng.uniform(0.2, 3.0)
        y_n = rng.uniform(0.0, 0.9 * y_u)
        y_f = rng.uniform(y_n, 0.99 * y_u)
        obstacle = RectObstacle(float(x_r1), float(x_r2), float(y_n), float(y_f))
        out.append(AvoidanceScenario(Point2(float(x_u), float(y_u)), obstacle, cfg, float(rng.uniform(0.1, 3.0))))
    return out


def visible_pairs(obstacle, ex: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Visibility of each element (ex, 0) from each point (px, py), pair by pair.

    ex has shape (N,), px/py shape (M,); the result has shape (M, N). A sight
    segment that touches the obstacle counts as blocked.
    """
    if obstacle is None:
        return np.ones((px.shape[0], ex.shape[0]), dtype=bool)
    exr = ex[np.newaxis, :]
    pxr = px[:, np.newaxis]
    pyr = py[:, np.newaxis]
    if isinstance(obstacle, RectObstacle):
        # The sight segment rises monotonically from y=0 to y=py. Its x-extent
        # across the band [y_n, min(y_f, py)] is an interval; the segment is
        # blocked iff that interval overlaps the obstacle's x-extent.
        reaches = pyr > obstacle.y_n
        frac_lo = obstacle.y_n / pyr
        frac_hi = np.minimum(obstacle.y_f, pyr) / pyr
        x_lo = exr + (pxr - exr) * frac_lo
        # At the top of the segment (frac_hi == 1) x is the point's own x:
        # ex + (px - ex) can round away from px.
        x_hi = np.where(frac_hi == 1.0, pxr, exr + (pxr - exr) * frac_hi)
        lo = np.minimum(x_lo, x_hi)
        hi = np.maximum(x_lo, x_hi)
        blocked = reaches & (hi >= obstacle.x_r2) & (lo <= obstacle.x_r1)
        return ~blocked
    if isinstance(obstacle, CircleObstacle):
        # Closest point of the segment to the center, against the radius.
        cx, cy, r = obstacle.center.x, obstacle.center.y, obstacle.radius
        dx = pxr - exr
        dy = pyr
        wx = cx - exr
        t = np.clip((wx * dx + cy * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        qx = exr + t * dx - cx
        qy = t * dy - cy
        return qx * qx + qy * qy > r * r
    raise TypeError(f"unsupported obstacle type {type(obstacle).__name__}")


def inside_obstacle(obstacle, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """True where a point lies inside or on the boundary of the obstacle."""
    if obstacle is None:
        return np.zeros(px.shape, dtype=bool)
    if isinstance(obstacle, RectObstacle):
        return (px >= obstacle.x_r2) & (px <= obstacle.x_r1) & (py >= obstacle.y_n) & (py <= obstacle.y_f)
    return np.hypot(px - obstacle.center.x, py - obstacle.center.y) <= obstacle.radius


def sampled_support(obstacle, ux: float, uy: float, samples: int = 100_000) -> float:
    """Largest ux x + uy y over points sampled densely on the obstacle's boundary.

    A rect's four edges get `samples` points each, corners included, so
    the value is its corner maximum up to rounding; a circle gets `samples`
    equally spaced angles, so the value falls short of the true maximum by
    at most r |u| (1 - cos(pi / samples)).
    """
    if isinstance(obstacle, RectObstacle):
        t = np.linspace(0.0, 1.0, samples)
        across = obstacle.x_r2 + (obstacle.x_r1 - obstacle.x_r2) * t
        up = obstacle.y_n + (obstacle.y_f - obstacle.y_n) * t
        x = np.concatenate((across, across, np.full(samples, obstacle.x_r2), np.full(samples, obstacle.x_r1)))
        y = np.concatenate((np.full(samples, obstacle.y_n), np.full(samples, obstacle.y_f), up, up))
    else:
        angle = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        x = obstacle.center.x + obstacle.radius * np.cos(angle)
        y = obstacle.center.y + obstacle.radius * np.sin(angle)
    return float((ux * x + uy * y).max())


def field_by_elements(ex, k, gamma, phi, obstacle, px, py) -> tuple[np.ndarray, np.ndarray]:
    """Field at points (px, py), one element at a time, and sum(gamma / r) per point.

    Each element adds gamma e^(j phi) e^(-j k r) / r where it is visible by
    ``visible_pairs``; interior points are NaN. The second array is the
    free-space scale sum(gamma_n / r_n) against which the drift of a faster
    kernel is measured.
    """
    field = np.zeros(px.shape, dtype=complex)
    scale = np.zeros(px.shape)
    for x_n, g_n, phi_n in zip(ex, gamma, phi):
        r = np.hypot(px - x_n, py)
        visible = visible_pairs(obstacle, np.array([x_n]), px, py)[:, 0]
        field += np.where(visible, g_n * np.exp(1j * phi_n) * np.exp(-1j * k * r) / r, 0.0)
        scale += g_n / r
    field[inside_obstacle(obstacle, px, py)] = complex(np.nan, np.nan)
    return field, scale


def dense_field(ex, k, entries, px, py) -> np.ndarray:
    """Field at points (px, py) of each (excitation, obstacle) entry, on the whole pair matrix.

    The (len(entries), M) result follows the field kernel's arithmetic on
    the whole (M, N) pair matrix at once: r, the half-angle tangent
    t = tan(k r / 2) of every pair, hidden elements included, and from it
    q = (1 / r) / (1 + t^2), cos(k r) / r = (1 - t^2) q and
    sin(k r) / r = (2 t) q, side by side in each row. Each entry zeroes
    both on its obstacle's blocked runs and takes one row dot product with
    (a, b) for the real part and one with (b, -a) for the imaginary part,
    a = gamma cos(phi) and b = gamma sin(phi). Interior points are NaN.
    Bit for bit, this is what the kernel returns.
    """
    rr = np.subtract.outer(px, ex)
    rr *= rr
    rr += (py * py)[:, np.newaxis]
    r = np.sqrt(rr)
    tan_half = np.tan(r * (0.5 * k))
    q = (1.0 / r) / (1.0 + tan_half * tan_half)
    n = ex.shape[0]
    uv = np.concatenate(((1.0 - tan_half * tan_half) * q, (2.0 * tan_half) * q), axis=1)
    out = np.empty((len(entries), px.shape[0]), dtype=complex)
    for t, (exc, obstacle) in enumerate(entries):
        masked = uv.copy()
        if obstacle is not None:
            for i, (lo, hi) in enumerate(zip(*_blocked_runs(obstacle, ex, px, py))):
                masked[i, lo:hi] = 0.0
                masked[i, n + lo : n + hi] = 0.0
        a = exc.magnitudes * np.cos(exc.phases)
        b = exc.magnitudes * np.sin(exc.phases)
        out.real[t] = np.vecdot(masked, np.concatenate((a, b)))
        out.imag[t] = np.vecdot(masked, np.concatenate((b, -a)))
        if obstacle is not None:
            out[t, obstacle.contains(px, py)] = complex(np.nan, np.nan)
    return out
