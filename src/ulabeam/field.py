"""Scalar field superposition, excitation builders, and hard-shadow occlusion.

The field at p from the active, non-occluded elements is

    E(p) = sum_n gamma_n / r_n * exp(-j k r_n) * exp(j phi_n),

with r_n the element-to-point distance. This is a scalar model: element
pattern and polarization factors are dropped, so values are relative
amplitudes with no absolute calibration.

Occlusion is binary (hard shadow): an element contributes to a point only if
the straight segment between them does not intersect the obstacle. A segment
touching the obstacle boundary counts as blocked; a field point on the
obstacle boundary counts as interior. Interior points evaluate to a
non-finite sentinel (NaN) on grids and raise for single-point queries.

Kernel
------
``field_points`` folds the phase into one real array: with
arg_n = phi_n - k r_n and w_n = gamma_n * visible_n / r_n, each point is
sum_n w_n cos(arg_n) + j sum_n w_n sin(arg_n). The obstacle is convex, so
the elements a point cannot see form one contiguous index run: the central
projection, from the point onto y = 0, of the obstacle below the point's
height. Each point gets that run [lo, hi) from O(1) geometry and a binary
search, and w is zeroed on it (a point level with the obstacle has a run
that reaches one end of the array).

Points are processed in chunks of about ``_CHUNK_PAIRS`` point-element pairs,
whose temporaries stay in cache. Chunks run on a thread pool with one thread
per CPU this process may use (there is no setting); a batch of one chunk
runs in the calling thread. Each chunk writes its own slice of the output and
each point's sum is taken over its own row of elements, so the values are
bit-identical whatever the chunk size and the number of threads.

File formats
------------
``write_field_csv`` emits ``x,y,re,im,abs`` rows, sweeping x fastest with y
ascending; floats use shortest round-trip representation, NaN spelled
``nan``. ``write_field_pgm`` emits a binary (P5) 8-bit PGM, one pixel per
grid node, rows top-down in y (first row is y_max), columns left-right in x,
with linear amplitude mapping onto 0..255 over [0, max finite amplitude];
non-finite values map to 0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .array_geometry import CircleObstacle, Point2, RectObstacle, UlaConfig

__all__ = [
    "Excitation",
    "FieldGrid",
    "OcclusionModel",
    "gaussian_excitation",
    "focusing_excitation",
    "field_at",
    "field_grid",
    "field_points",
    "line_cut",
    "normalize_power",
    "write_field_csv",
    "write_field_pgm",
]

# Point batches are processed in chunks of about this many point-element
# pairs: each chunk's few float64 temporaries (1 MB apiece) stay in cache.
_CHUNK_PAIRS = 131_072


@dataclass(frozen=True)
class Excitation:
    """Per-element excitation: magnitudes gamma_n >= 0, phases [rad], active mask.

    Inactive elements are forced to gamma_n = 0 and phase 0. Arrays are
    copied and made read-only.
    """

    magnitudes: np.ndarray
    phases: np.ndarray
    active: np.ndarray

    def __post_init__(self) -> None:
        mag = np.array(self.magnitudes, dtype=float)
        ph = np.array(self.phases, dtype=float)
        act = np.array(self.active, dtype=bool)
        if not (mag.shape == ph.shape == act.shape) or mag.ndim != 1:
            raise ValueError("magnitudes, phases, active must be equal-length 1-D arrays")
        if np.any(mag[act] < 0) or not np.all(np.isfinite(mag[act])):
            raise ValueError("active magnitudes must be finite and non-negative")
        if not np.all(np.isfinite(ph[act])):
            raise ValueError("active phases must be finite")
        mag[~act] = 0.0
        ph[~act] = 0.0
        for a in (mag, ph, act):
            a.flags.writeable = False
        object.__setattr__(self, "magnitudes", mag)
        object.__setattr__(self, "phases", ph)
        object.__setattr__(self, "active", act)

    @property
    def n_elements(self) -> int:
        return self.magnitudes.shape[0]


@dataclass(frozen=True)
class FieldGrid:
    """Complex field sampled on a regular grid.

    values[ix, iy] is the field at (x_coords()[ix], y_coords()[iy]).
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ValueError("nx and ny must be >= 2")
        if not self.y_range[0] > 0:
            raise ValueError("grid must lie strictly in front of the array (y_min > 0)")
        if self.x_range[1] <= self.x_range[0] or self.y_range[1] <= self.y_range[0]:
            raise ValueError("ranges must be increasing")
        if self.values.shape != (self.nx, self.ny):
            raise ValueError("values must have shape (nx, ny)")

    def x_coords(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.nx)

    def y_coords(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.ny)


@dataclass(frozen=True)
class OcclusionModel:
    """Occlusion configuration; obstacle None means free space."""

    obstacle: RectObstacle | CircleObstacle | None = None
    mode: str = "hard_shadow"

    def __post_init__(self) -> None:
        if self.mode != "hard_shadow":
            raise ValueError("only hard_shadow occlusion is supported")


def gaussian_excitation(cfg: UlaConfig, theta_a: float) -> Excitation:
    """Linear-phase steering excitation, phi_n = -k sin(theta_a) x_n."""
    if not abs(theta_a) < math.pi / 2:
        raise ValueError("|theta_a| must be < pi/2")
    xs = cfg.element_xs()
    # + 0.0 turns -0.0 into 0.0 so broadside phases serialize as plain zeros
    phases = -cfg.wavenumber() * math.sin(theta_a) * xs + 0.0
    return Excitation(np.ones_like(xs), phases, np.ones_like(xs, dtype=bool))


def focusing_excitation(cfg: UlaConfig, focus: Point2) -> Excitation:
    """Phase-conjugation excitation, phi_n = k * |focus - element_n|."""
    if not focus.y > 0:
        raise ValueError("focus must lie in front of the array")
    xs = cfg.element_xs()
    r = np.hypot(focus.x - xs, focus.y)
    phases = cfg.wavenumber() * r
    return Excitation(np.ones_like(xs), phases, np.ones_like(xs, dtype=bool))


def _interior_mask(obstacle, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """True where a point lies inside (or on the boundary of) the obstacle."""
    if obstacle is None:
        return np.zeros_like(px, dtype=bool)
    if isinstance(obstacle, RectObstacle):
        return (
            (px >= obstacle.x_r2)
            & (px <= obstacle.x_r1)
            & (py >= obstacle.y_n)
            & (py <= obstacle.y_f)
        )
    if isinstance(obstacle, CircleObstacle):
        dx = px - obstacle.center.x
        dy = py - obstacle.center.y
        return dx * dx + dy * dy <= obstacle.radius**2
    raise TypeError(f"unsupported obstacle type {type(obstacle).__name__}")


def _shadow_interval(obstacle, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed x-interval [a, b] on y = 0 hidden from each point (px, py).

    The element at (x, 0) is blocked iff its sight segment meets the
    obstacle, i.e. iff x lies in the central projection, from the point onto
    y = 0, of the obstacle clipped to y < py. The obstacle is convex, so that
    projection is one interval; a side whose obstacle points reach the
    height py projects to -inf or +inf. No shadow gives a = +inf, b = -inf.
    Points inside the obstacle get an arbitrary interval.
    """
    if isinstance(obstacle, RectObstacle):
        # A corner (qx, qy) with qy < py projects to px + (qx - px) * py / (py - qy).
        reaches = py > obstacle.y_n
        above = py > obstacle.y_f
        s_n = np.divide(py, py - obstacle.y_n, out=np.ones_like(py), where=reaches)
        s_f = np.divide(py, py - obstacle.y_f, out=np.ones_like(py), where=above)
        left_n = px + (obstacle.x_r2 - px) * s_n
        right_n = px + (obstacle.x_r1 - px) * s_n
        a = np.where(
            above,
            np.minimum(left_n, px + (obstacle.x_r2 - px) * s_f),
            np.where(px < obstacle.x_r2, left_n, -np.inf),
        )
        b = np.where(
            above,
            np.maximum(right_n, px + (obstacle.x_r1 - px) * s_f),
            np.where(px > obstacle.x_r1, right_n, np.inf),
        )
        return np.where(reaches, a, np.inf), np.where(reaches, b, -np.inf)
    if isinstance(obstacle, CircleObstacle):
        # The tangent directions from the point, u_lo = L d - R perp(d) and
        # u_hi = L d + R perp(d), with d the offset to the center,
        # perp(d) = (-dy, dx) and L the tangent length, bound the hidden
        # cone clockwise and counter-clockwise. A tangent that points down
        # (uy < 0) meets y = 0 at px - py * ux / uy; one that does not
        # leaves that side of the run unbounded.
        r = obstacle.radius
        dx = obstacle.center.x - px
        dy = obstacle.center.y - py
        tangent = np.sqrt(np.maximum(dx * dx + dy * dy - r * r, 0.0))
        ux_lo, uy_lo = tangent * dx + r * dy, tangent * dy - r * dx
        ux_hi, uy_hi = tangent * dx - r * dy, tangent * dy + r * dx
        down_lo, down_hi = uy_lo < 0, uy_hi < 0
        a = px - py * np.divide(ux_lo, uy_lo, out=np.zeros_like(px), where=down_lo)
        b = px - py * np.divide(ux_hi, uy_hi, out=np.zeros_like(px), where=down_hi)
        a = np.where(down_lo, a, -np.inf)
        b = np.where(down_hi, b, np.inf)
        hidden = down_lo | down_hi
        return np.where(hidden, a, np.inf), np.where(hidden, b, -np.inf)
    raise TypeError(f"unsupported obstacle type {type(obstacle).__name__}")


def _blocked_runs(obstacle, xs: np.ndarray, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the index run [lo, hi) of ascending xs hidden by the obstacle."""
    a, b = _shadow_interval(obstacle, px, py)
    lo = np.searchsorted(xs, a, side="left")
    hi = np.searchsorted(xs, b, side="right")
    return lo, np.maximum(lo, hi)


def _workers() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def field_points(
    cfg: UlaConfig, exc: Excitation, px: np.ndarray, py: np.ndarray, occ: OcclusionModel | None = None
) -> np.ndarray:
    """Complex field at the points (px[i], py[i]); interior points yield NaN."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    if exc.n_elements != cfg.n_elements:
        raise ValueError("excitation length does not match array size")
    if px.ndim != 1 or px.shape != py.shape:
        raise ValueError("px and py must be equal-length 1-D arrays")
    if not (np.all(np.isfinite(px)) and np.all(np.isfinite(py))):
        raise ValueError("field points must be finite")
    if np.any(py <= 0):
        raise ValueError("field points must lie strictly in front of the array (y > 0)")
    obstacle = occ.obstacle if occ is not None else None
    xs = cfg.element_xs()
    k = cfg.wavenumber()
    gamma, phi = exc.magnitudes, exc.phases
    if obstacle is not None:
        lo, hi = _blocked_runs(obstacle, xs, px, py)

    out = np.empty(px.shape[0], dtype=complex)
    step = max(1, _CHUNK_PAIRS // max(1, cfg.n_elements))

    def chunk(start: int) -> None:
        sl = slice(start, start + step)
        cpy = py[sl]
        rr = np.subtract.outer(px[sl], xs)
        rr *= rr
        rr += (cpy * cpy)[:, np.newaxis]
        r = np.sqrt(rr, out=rr)
        w = gamma / r
        if obstacle is not None:
            clo, chi = lo[sl], hi[sl]
            for i in np.flatnonzero(chi > clo):
                w[i, clo[i] : chi[i]] = 0.0
        arg = np.multiply(r, k, out=r)
        np.subtract(phi, arg, out=arg)
        term = np.cos(arg)
        term *= w
        out.real[sl] = term.sum(axis=1)
        np.sin(arg, out=term)
        term *= w
        out.imag[sl] = term.sum(axis=1)

    starts = range(0, px.shape[0], step)
    workers = min(len(starts), _workers())
    if workers <= 1:
        for start in starts:
            chunk(start)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(chunk, starts))
    out[_interior_mask(obstacle, px, py)] = complex(np.nan, np.nan)
    return out


def field_at(cfg: UlaConfig, exc: Excitation, p: Point2, occ: OcclusionModel | None = None) -> complex:
    """Complex field at a single point; raises if p lies inside the obstacle."""
    obstacle = occ.obstacle if occ is not None else None
    if _interior_mask(obstacle, np.array([p.x]), np.array([p.y]))[0]:
        raise ValueError("field point lies inside the obstacle")
    return complex(field_points(cfg, exc, np.array([p.x]), np.array([p.y]), occ)[0])


def field_grid(
    cfg: UlaConfig,
    exc: Excitation,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    nx: int,
    ny: int,
    occ: OcclusionModel | None = None,
) -> FieldGrid:
    """Field on a regular nx-by-ny grid; obstacle-interior nodes become NaN."""
    x = np.linspace(x_range[0], x_range[1], nx)
    y = np.linspace(y_range[0], y_range[1], ny)
    gx, gy = np.meshgrid(x, y, indexing="ij")
    values = field_points(cfg, exc, gx.ravel(), gy.ravel(), occ).reshape(nx, ny)
    return FieldGrid((float(x_range[0]), float(x_range[1])), (float(y_range[0]), float(y_range[1])), nx, ny, values)


def line_cut(
    cfg: UlaConfig,
    exc: Excitation,
    theta_a: float,
    d_max_plot: float,
    samples: int,
    occ: OcclusionModel | None = None,
) -> list[tuple[float, float]]:
    """|E| along the ray at angle theta_a from the y-axis, d in (0, d_max_plot].

    Returns (distance, amplitude) pairs at `samples` uniform distances.
    Interior samples carry NaN amplitude.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not d_max_plot > 0:
        raise ValueError("d_max_plot must be positive")
    d = d_max_plot * np.arange(1, samples + 1) / samples
    px = d * math.sin(theta_a)
    py = d * math.cos(theta_a)
    vals = field_points(cfg, exc, px, py, occ)
    return [(float(di), float(abs(v))) for di, v in zip(d, vals)]


def normalize_power(exc: Excitation, budget: float) -> Excitation:
    """Scale magnitudes so that sum(gamma_n^2) equals budget."""
    if not budget > 0:
        raise ValueError("budget must be positive")
    total = float(np.sum(exc.magnitudes**2))
    if total == 0.0:
        raise ValueError("cannot normalize an excitation with no active power")
    factor = math.sqrt(budget / total)
    return Excitation(exc.magnitudes * factor, exc.phases, exc.active)


def _fmt(v: float) -> str:
    return repr(float(v))


def write_field_csv(grid: FieldGrid, path: str) -> None:
    """Write the grid as CSV (see module docstring for the layout)."""
    xs = grid.x_coords()
    ys = grid.y_coords()
    lines = ["x,y,re,im,abs"]
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            v = grid.values[ix, iy]
            lines.append(
                f"{_fmt(xs[ix])},{_fmt(ys[iy])},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(abs(v))}"
            )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field_pgm(grid: FieldGrid, path: str) -> None:
    """Write the amplitude map as a binary 8-bit PGM (see module docstring)."""
    amp = np.abs(grid.values)
    finite = np.isfinite(amp)
    vmax = float(amp[finite].max()) if finite.any() else 0.0
    if vmax > 0:
        scaled = np.where(finite, amp / vmax * 255.0, 0.0)
    else:
        scaled = np.zeros_like(amp)
    pixels = np.rint(scaled).astype(np.uint8)
    # Image rows run top-down in y; pixels[ix, iy] -> row (ny-1-iy), col ix.
    img = pixels.T[::-1, :]
    header = f"P5\n{grid.nx} {grid.ny}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.tobytes())
