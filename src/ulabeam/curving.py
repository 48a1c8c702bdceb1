"""Curving-beam synthesis around one rectangular obstacle.

A parabolic trajectory x = f_t(y) = beta (y - p)^2 + q is anchored at the
user and launched from the array as the envelope of element rays, each ray
tangent to the parabola. Trajectory parameters are chosen by a small linear
program over (beta, p_tilde, x_adj) where p_tilde = beta * p and x_adj is a
relaxed aperture cut; the LP trades obstacle clearance against the number of
elements kept. Its optimum lies at a vertex, so the solver intersects every
triple of the eight constraints in one batched linear solve and keeps the
feasible vertex of least objective. The relaxed cut is then snapped to an
element, lowered to a caller's bound if that is smaller, and (beta, p_tilde)
re-solved with the cut pinned, by the same enumeration over pairs of the
six constraints left. One build of the constraint rows per curvature
serves the relaxed solve, the pinned solve and the lookup of the KKT row.
The pinned problem has a feasible vertex in exact arithmetic (proof in
`optimize`), so there is no second route; a scene whose rounding loses
that vertex is rejected as ill-conditioned. The solve never evaluates
the paper's nine closed-form KKT candidates: a solution reports which of
them its vertex is by the constraint triple that defines each row
(`_KKT_ROWS`), and the closed forms are kept with the test oracles.

Positive curvature clears the obstacle on its left edge using a prefix of
the array; negative curvature writes the rows of the scene mirrored about
the y-axis (the user's x negated, the right edge as the one to clear),
solves them the same way and maps the result back. A two-beam plan
solves each curvature once: the reverse-curvature secondary's cut is
bounded at the first element the primary leaves, so the two element sets
are disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .array_geometry import ParameterError, Point2, RectObstacle, UlaConfig
from .field import Excitation, normalize_power

__all__ = [
    "ParabolicTrajectory",
    "AvoidanceScenario",
    "CurvingSolution",
    "CurvingResult",
    "AvoidancePlan",
    "curving_phases",
    "f_para",
    "optimize",
    "plan_with_fallback",
    "plan_excitation",
]

_FEAS_TOL = 1e-9
_ACTIVE_TOL = 1e-7
_BETA_TOL = 1e-10
# Magnitude range of a scene's weight and nonzero lengths (AvoidanceScenario).
_SCALE_MIN, _SCALE_MAX = 1e-100, 1e100
# Subsets of k constraints with |det| below this are skipped as singular.
_DET_TOL = {2: 1e-14, 3: 1e-12}

# Rows of _constraints, in order.
_CONSTRAINT_NAMES = (
    "beta non-negativity",
    "aperture lower bound",
    "aperture upper bound",
    "near-corner clearance",
    "far-corner clearance",
    "tangent reaches user",
    "leftmost tangent spans user",
    "tangent exists at aperture cut",
)
# The constraint triple that defines each row of the paper's KKT table, in row order.
_KKT_ROWS = (
    (3, 4, 7),
    (4, 6, 7),
    (3, 6, 7),
    (2, 4, 7),
    (2, 3, 7),
    (2, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
    (2, 3, 5),
)
# Constraints left once the aperture cut is pinned (the two cut bounds go).
_PINNED_ROWS = [0, 3, 4, 5, 6, 7]


@dataclass(frozen=True)
class ParabolicTrajectory:
    """x = beta (y - p)^2 + q in the xy-plane."""

    beta: float
    p: float
    q: float

    def __post_init__(self) -> None:
        for v in (self.beta, self.p, self.q):
            if not math.isfinite(v):
                raise ValueError("trajectory parameters must be finite")


@dataclass(frozen=True)
class AvoidanceScenario:
    """Problem data: user position, obstacle footprint, array, weight.

    The obstacle must lie strictly between the array plane and the user
    (0 < y_n < y_f < user.y); the weight trades clearance against kept
    aperture, larger keeping more elements. The weight and every nonzero
    length (the user's x and y, the four obstacle edges and the half
    aperture R) must lie within 1e-100..1e100 in magnitude: the planner's
    vertex determinants are cubes of lengths, which then stay finite. A
    ParameterError names the lengths out of range: user.x, user.y, the edges
    x_r1 to y_f, and n_elements and spacing for the half aperture.
    """

    user: Point2
    obstacle: RectObstacle
    cfg: UlaConfig
    weight_w: float = 1.0

    def __post_init__(self) -> None:
        if not self.user.y > 0:
            raise ParameterError("user must lie in front of the array", "user.y")
        if not self.obstacle.y_f < self.user.y:
            raise ParameterError("obstacle must lie strictly between array and user", "y_f", "user.y")
        if not self.weight_w > 0:
            raise ParameterError("weight_w must be positive", "weight_w")
        if not _SCALE_MIN <= self.weight_w <= _SCALE_MAX:
            raise ParameterError("weight_w must be finite and within 1e-100..1e100", "weight_w")
        o, r = self.obstacle, self.cfg.half_aperture()
        lengths = {"user.x": self.user.x, "user.y": self.user.y, "x_r1": o.x_r1, "x_r2": o.x_r2}
        lengths.update(y_n=o.y_n, y_f=o.y_f, n_elements=r, spacing=r)
        bad = [name for name, v in lengths.items() if not (v == 0 or _SCALE_MIN <= abs(v) <= _SCALE_MAX)]
        if bad:
            raise ParameterError("scene lengths must be 0 or within 1e-100..1e100 m in magnitude", *bad)


@dataclass(frozen=True)
class CurvingSolution:
    trajectory: ParabolicTrajectory
    p_tilde: float
    x_adj_star: float
    x_t_star: float
    curvature_sign: int
    objective_value: float
    active_elements: np.ndarray
    kkt_candidate_index: int | None
    relaxed_objective: float


@dataclass(frozen=True)
class CurvingResult:
    """Solver outcome: status is one of solved, unnecessary, infeasible, degenerate.

    relaxed_vertex is the optimal (beta, p_tilde, x_adj) of the continuous
    problem, before the aperture cut is snapped to an element; it is kept
    even when the outcome is unnecessary or degenerate so callers can see
    what classified it.
    """

    status: str
    solution: CurvingSolution | None
    message: str
    most_violated: str | None = None
    relaxed_vertex: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class AvoidancePlan:
    status: str
    primary: CurvingResult
    secondary: CurvingResult | None
    message: str


def curving_phases(cfg: UlaConfig, t: ParabolicTrajectory, active: np.ndarray) -> Excitation:
    """Unit-magnitude excitation launching the curving beam along t.

    The phase of the element at x equals k (ell - sigma) up to a constant,
    where ell is the element-to-tangent-point distance and sigma the arc
    length along the parabola to that tangent point; adjacent-element phase
    slope is then -k sin(theta_ray) with theta_ray the tangent angle, which
    co-phases the aperture along each ray. Closed form:

        phi = k { (p + s) sqrt(c1) / 2 - log(sqrt(c1) - c2) / (4 |beta|) }

    with s the tangent height, c1 = 4 beta^2 (p - s)^2 + 1 and
    c2 = 2 |beta| (p - s). Natural logarithm. active is the boolean mask
    of the driven elements, one entry per element.
    """
    if t.beta == 0:
        raise ValueError("curving phases undefined for beta = 0")
    xs = cfg.element_xs()
    n = xs.shape[0]
    mask = np.asarray(active)
    if mask.dtype != bool or mask.shape != (n,):
        raise ValueError("active must be a boolean mask with one entry per element")
    k = cfg.wavenumber()
    phases = np.zeros(n)
    # Squared tangent heights. An optimal aperture cut often makes the edge
    # element tangent exactly at the array plane (height 0), so roundoff can
    # push the radicand a hair below zero; such residue is clamped, and
    # genuine violations stay negative.
    rad = (t.beta * t.p**2 + t.q - xs[mask]) / t.beta
    atol = 1e-7 * max(1.0, float(np.abs(rad).max(initial=0.0)))
    rad = np.where((rad < 0) & (rad >= -atol), 0.0, rad)
    bad = np.nonzero(rad < 0)[0]
    if bad.size:
        element = int(np.nonzero(mask)[0][bad[0]])
        raise ValueError(f"element {element} has no tangent to the trajectory")
    s = np.sqrt(rad)
    c1 = 4.0 * t.beta**2 * (t.p - s) ** 2 + 1.0
    c2 = 2.0 * abs(t.beta) * (t.p - s)
    arg = np.sqrt(c1) - c2
    bad = np.nonzero(arg <= 0)[0]
    if bad.size:
        raise ValueError(
            f"phase formula log-domain violation at active element {int(bad[0])}"
        )
    # Phases that overflow are left non-finite for Excitation to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        phases[mask] = k * ((t.p + s) * np.sqrt(c1) / 2.0 - np.log(arg) / (4.0 * abs(t.beta)))
    return Excitation(np.where(mask, 1.0, 0.0), phases)


def f_para(s: AvoidanceScenario, beta: float, p_tilde: float, x_adj: float) -> float:
    """Clearance/aperture objective; minimized for positive curvature."""
    g = _objective_grad(s)
    return float(g[0] * beta + g[1] * p_tilde + g[2] * x_adj)


def _objective_grad(s: AvoidanceScenario) -> np.ndarray:
    y_n, y_f, y_u = s.obstacle.y_n, s.obstacle.y_f, s.user.y
    return np.array(
        [y_n**2 + y_f**2 - 2.0 * y_u**2, 2.0 * (2.0 * y_u - y_n - y_f), -s.weight_w]
    )


def _constraints(s: AvoidanceScenario, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Constraints of curvature `sign`'s LP as (g, c), named by _CONSTRAINT_NAMES.

    Row i reads g[i] . (beta, p_tilde, x_adj) + c[i] <= 0, in the
    positive-curvature frame: for sign -1 the rows are those of the scene
    mirrored about the y-axis, whose user is at -x_u and whose left edge,
    the one to clear, is -x_r1.
    """
    y_n, y_f, y_u = s.obstacle.y_n, s.obstacle.y_f, s.user.y
    x_u = sign * s.user.x
    x_r2 = s.obstacle.x_r2 if sign > 0 else -s.obstacle.x_r1
    r_half = s.cfg.half_aperture()
    a_n, d_n = y_n**2 - y_u**2, y_n - y_u
    a_f, d_f = y_f**2 - y_u**2, y_f - y_u
    g = np.array(
        [
            [-1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0],
            [a_n, -2.0 * d_n, 0.0],
            [a_f, -2.0 * d_f, 0.0],
            [-2.0 * y_u**2, 2.0 * y_u, -1.0],
            [2.0 * y_u**2, -2.0 * y_u, 0.0],
            [y_u**2, -2.0 * y_u, 1.0],
        ]
    )
    c = np.array([0.0, -r_half, -r_half, x_u - x_r2, x_u - x_r2, x_u, -x_u - r_half, -x_u])
    return g, c


def _scales(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.maximum(np.abs(g).max(axis=1), np.abs(c)))


def _best_vertex(
    g: np.ndarray, c: np.ndarray, scales: np.ndarray, grad: np.ndarray, k: int
) -> tuple[np.ndarray | None, bool]:
    """Best vertex of {z : g z + c <= 0} in k variables, by enumeration.

    Every nonsingular k-subset of rows is solved as equalities in one
    batched call. Returns (z, True) for the feasible vertex (normalized
    slack <= 1e-9) of least grad . z, where a later subset displaces an
    earlier one only when lower by more than 1e-12 relative; (z, False) for
    the vertex of least worst violation when none is feasible; and
    (None, False) when every subset is singular.
    """
    subsets = np.array(list(combinations(range(c.size), k)))
    mats = g[subsets]
    keep = np.abs(np.linalg.det(mats)) >= _DET_TOL[k]
    if not keep.any():
        return None, False
    zs = np.linalg.solve(mats[keep], -c[subsets[keep]][..., None])[..., 0]
    worst = ((zs @ g.T + c) / scales).max(axis=1)
    feasible = np.nonzero(worst <= _FEAS_TOL)[0]
    if feasible.size == 0:
        return zs[np.argmin(worst)], False
    best = feasible[0]
    best_f = float(grad @ zs[best])
    for i in feasible[1:]:
        f = float(grad @ zs[i])
        if f < best_f - 1e-12 * max(1.0, abs(f)):
            best, best_f = i, f
    return zs[best], True


_MIRROR_NAMES = {
    "aperture lower bound": "aperture upper bound",
    "aperture upper bound": "aperture lower bound",
}


def optimize(s: AvoidanceScenario, sign: int, limit: float = math.inf) -> CurvingResult:
    """Result of curvature `sign` (+1 or -1), its aperture cut pinned at no more than `limit`.

    One build of the LP in the positive-curvature frame (mirrored rows
    for sign -1; `limit` is in that frame too) serves the relaxed
    solve, the pinned 2-variable solve and the KKT-row lookup. The result
    is mapped back to s and keeps a prefix of the array for sign +1, a
    suffix for sign -1. The relaxed cut is snapped to the last element not
    past it, then lowered to `limit` (>= -R) if that is smaller. An
    infeasible result names the constraint most violated at the
    least-violating vertex, on s's own side; a sign -1 solution's KKT
    index refers to the mirrored problem's table.

    In exact arithmetic the pinned solve has a feasible vertex, as
    -R <= x_pin <= x_adj.
    Proof: keep the relaxed beta and lower the leftmost-tangent intercept
    l = 2 y_u p_tilde - 2 beta y_u^2 + x_u to min(l_rel, x_pin). Lowering
    p_tilde only adds corner clearance; l <= x_pin is the reach row;
    l >= -R as l_rel >= -R and x_pin >= -R; the cut row holds as
    x_pin <= x_adj (up to the snap's 1e-9 spacing) and beta >= 0. The rows
    have rank 2 (beta >= 0 and the span row), so a feasible vertex exists.
    Rounding can still lose it when the scene's lengths span many orders
    of magnitude; such a scene raises ValueError as ill-conditioned.
    """
    if sign not in (1, -1):
        raise ValueError("curvature sign must be +1 or -1")
    g, c = _constraints(s, sign)
    scales = _scales(g, c)
    grad = _objective_grad(s)
    z_star, feasible = _best_vertex(g, c, scales, grad, 3)
    if not feasible:
        if z_star is None:
            worst = "near-corner clearance"
        else:
            worst = _CONSTRAINT_NAMES[int(np.argmax((g @ z_star + c) / scales))]
        return CurvingResult(
            "infeasible",
            None,
            "no trajectory with this curvature sign clears the obstacle",
            most_violated=worst if sign > 0 else _MIRROR_NAMES.get(worst, worst),
        )
    r_half = s.cfg.half_aperture()
    vertex = tuple(sign * float(v) for v in z_star)
    if z_star[0] <= _BETA_TOL:
        return CurvingResult(
            "unnecessary",
            None,
            "optimal curvature is zero; a straight beam already clears the obstacle",
            relaxed_vertex=vertex,
        )
    if z_star[2] <= -r_half + 1e-9 * max(1.0, r_half):
        return CurvingResult(
            "degenerate",
            None,
            "optimum collapses the aperture to a single edge element; increase weight_w",
            relaxed_vertex=vertex,
        )
    # Snap the cut to the last element not past it; there is one, as
    # xs[0] == -R and a cut at -R returned degenerate above.
    xs = s.cfg.element_xs()
    x_pin = min(float(xs[xs <= z_star[2] + s.cfg.spacing * 1e-9].max()), limit)
    g2 = g[_PINNED_ROWS, :2]
    c2 = c[_PINNED_ROWS] + g[_PINNED_ROWS, 2] * x_pin
    z2, feasible = _best_vertex(g2, c2, _scales(g2, c2), grad[:2], 2)
    if not feasible:
        raise ValueError(
            "ill-conditioned scene: rounding leaves the pinned aperture problem without a feasible vertex"
        )
    beta_m, p_tilde_m = float(z2[0]), float(z2[1])
    if beta_m <= _BETA_TOL:
        return CurvingResult(
            "unnecessary",
            None,
            "optimal curvature is zero after aperture projection; a straight beam suffices",
            relaxed_vertex=vertex,
        )
    beta, p_tilde, x_t_star = sign * beta_m, sign * p_tilde_m, sign * x_pin
    # The KKT row is the lowest whose defining constraints all bind at z_star.
    binding = np.abs((g @ z_star + c) / scales) <= _ACTIVE_TOL
    kkt_index = next((i for i, rows in enumerate(_KKT_ROWS, 1) if binding[list(rows)].all()), None)
    p = p_tilde / beta
    q = s.user.x - beta * (s.user.y - p) ** 2
    sol = CurvingSolution(
        trajectory=ParabolicTrajectory(beta, p, q),
        p_tilde=p_tilde,
        x_adj_star=vertex[2],
        x_t_star=x_t_star,
        curvature_sign=sign,
        objective_value=f_para(s, beta, p_tilde, x_t_star),
        active_elements=sign * xs <= sign * x_t_star + s.cfg.spacing * 1e-9,
        kkt_candidate_index=kkt_index,
        relaxed_objective=sign * float(grad @ z_star),
    )
    side = "positive" if sign > 0 else "negative"
    return CurvingResult("solved", sol, f"{side}-curvature trajectory found", relaxed_vertex=vertex)


def plan_with_fallback(s: AvoidanceScenario) -> AvoidancePlan:
    """Primary trajectory plus an optional reverse-curvature secondary.

    Positive curvature is attempted first. When the primary keeps only part
    of the array, the remaining elements get a reverse-curvature trajectory
    through the same user, solved once with its aperture cut bounded at
    the first element the primary leaves, so the two element sets are
    disjoint. Both signs failing yields a combined infeasibility.
    """
    pos = optimize(s, 1)
    if pos.status == "unnecessary":
        return AvoidancePlan("unnecessary", pos, None, pos.message)
    if pos.status == "solved":
        remaining = s.cfg.element_xs()[~pos.solution.active_elements]
        if remaining.size == 0:
            return AvoidancePlan("solved", pos, None, "primary uses the full array")
        neg = optimize(s, -1, -float(remaining.min()))
        if neg.status != "solved":
            return AvoidancePlan(
                "solved", pos, None, "no reverse-curvature secondary for the remaining elements"
            )
        return AvoidancePlan("solved", pos, neg, "primary plus reverse-curvature secondary")

    neg = optimize(s, -1)
    if neg.status == "solved" or neg.status == "unnecessary":
        status = neg.status
        return AvoidancePlan(
            status,
            neg,
            None,
            "positive curvature failed; negative curvature used"
            if status == "solved"
            else neg.message,
        )
    return AvoidancePlan(
        "infeasible",
        pos,
        neg,
        f"both curvature signs failed (positive: {pos.status}, negative: {neg.status})",
    )


def plan_excitation(cfg: UlaConfig, plan: AvoidancePlan, power_budget: float) -> Excitation:
    """Combined excitation for a solved plan, split equally across beams.

    Each solved beam is normalized to an equal share of the budget so the
    total power matches a single-beam budget. The beams drive disjoint
    elements; np.where merges them, so every phase keeps its bits (a sum
    would turn -0.0 into +0.0).
    """
    if plan.status != "solved":
        raise ValueError(f"plan is not solved: {plan.status}")
    sols = [r.solution for r in (plan.primary, plan.secondary) if r is not None and r.status == "solved"]
    exc, *rest = (
        normalize_power(curving_phases(cfg, sol.trajectory, sol.active_elements), power_budget / len(sols))
        for sol in sols
    )
    for other in rest:
        exc = Excitation(
            np.where(exc.active, exc.magnitudes, other.magnitudes),
            np.where(exc.active, exc.phases, other.phases),
        )
    return exc
