"""Scalar field superposition, excitation builders, and hard-shadow occlusion.

An excitation is plain data: per element a magnitude gamma_n >= 0 and a
phase phi_n; an element is driven iff gamma_n > 0. The field at p from
the driven, non-occluded elements is

    E(p) = sum_n gamma_n / r_n * exp(-j k r_n) * exp(j phi_n),

with r_n the element-to-point distance. This is a scalar model: element
pattern and polarization factors are dropped, so values are relative
amplitudes with no absolute calibration. Every amplitude |E| the package
reports (the grid CSV and PGM, the line cut, the error-box metrics) is
``np.hypot(E.real, E.imag)``, which equals Python's complex ``abs`` bit
for bit; ``np.abs`` of a complex array rounds some values differently.

Occlusion is binary (hard shadow): an element contributes to a point only if
the straight segment between them does not intersect the obstacle. A segment
touching the obstacle boundary counts as blocked; a field point on the
obstacle boundary counts as interior. Interior points evaluate to a
non-finite sentinel (NaN) on grids and raise for single-point queries.
The geometry is the obstacle's own (``contains`` and ``shadow`` of the
classes in ``array_geometry``); an obstacle of None is free space.

Kernel
------
``field_points_per_entry`` evaluates a list of (excitation, obstacle)
entries at one point set; ``field_at``, ``field_grid`` and ``line_cut``
are its one-entry calls. The excitation's phase is split off the trig: with
a_n = gamma_n cos(phi_n), b_n = gamma_n sin(phi_n), U_n = cos(k r_n) / r_n
and V_n = sin(k r_n) / r_n, a point's field is

    Re E = sum_n (U_n a_n + V_n b_n),    Im E = sum_n (U_n b_n - V_n a_n),

so the trig depends on the geometry alone and is taken once for every
excitation of the call, on every pair. U and V come from one tangent of
the half angle, t_n = tan(k r_n / 2), where r_n (k / 2) is exactly half
of r_n k:

    q_n = (1 / r_n) / (1 + t_n^2),    U_n = (1 - t_n^2) q_n,    V_n = (2 t_n) q_n.

NumPy's float64 tan is a SIMD loop on x86-64 CPUs with AVX-512 (about
2 ns a pair), while its cos and sin call the C library's scalar routines
(about 23 ns each); without AVX-512, tan took 32 ns against 48 ns for
both (Xeon, NumPy 2.4, glibc). U_n r_n and V_n r_n are within 3.6e-16 of
cos and sin of the rounded k r_n (mpmath, r_n from 1e-150 to 1e150 m)
and within 4.4e-16 of glibc's (2 M pairs at 140 GHz); no floating-point
flag is raised unless k r_n / 2 is below about 1.5e-154, where t_n^2
underflows. NumPy's scalar tan differs from its SIMD tan by an ulp on
about 0.7% of arguments, and it picks the loop by memory layout, so tan
runs on the chunk's contiguous array of r whatever its row count.

The obstacle is convex, so the elements a point cannot see form one
contiguous index run: the central projection, from the point onto
y = 0, of the obstacle below the point's height. Each point gets that
run [lo, hi) from the obstacle's ``shadow`` interval, O(1) geometry,
and a binary search (a point level with the obstacle has a run that
reaches one end of the array).

Per chunk of points, r, 1 / r and U and V (side by side in one row of 2N
values, ``uv``) are computed once for all entries. The entries are
grouped by obstacle: each obstacle zeroes its own runs (free space has
none), and each of its entries takes two row dot products, of those rows
with (a, b) and with (b, -a). An obstacle that hides some pairs and has
another after it copies the rows into a third buffer and zeroes its runs
there; the last obstacle zeroes them in uv itself.

A point (x, y) and its mirror (-x, y) share their trig. The element
positions are exactly symmetric, ``element_xs()[::-1] == -element_xs()``,
and IEEE subtraction and squaring are symmetric in sign, so the mirror's
distances are the point's in reverse order, bit for bit, and so are its
U and V. Each point with x < 0 whose exact mirror is in the call
(px[j] == -px[i], py[j] == py[i], each point in one pair at most)
represents the pair: it alone computes r, 1 / r and trig. The partner's
row of uv is the representative's reversed, the bits it would hold
unpaired, and each obstacle then zeroes its own runs on both rows. A
point on x = 0 stays single. ``grid_nodes``, the lattice of
``field_grid`` and of the error box, builds a symmetric x range
mirror-exact, so that every node off x = 0 finds its partner.

Each sum is one ``np.vecdot`` of a row of uv with a weight row, so its
bits depend on those two vectors only: not on the chunk's row count or
the other entries of the call. A row of the result is therefore
bit-identical whatever the chunking and the entry list, and equal to the
call with its entry alone. (A matrix product over the chunk
would not be: its bits depend on the shapes.) A zeroed pair, or a pair
of zero weight (an undriven element, whose trig is taken all the same),
adds a zero term, which leaves a sum that starts from +0.0 unchanged
(rounding to nearest, a sum is -0.0 only when both its terms are). Points
whose distance to an element overflows (beyond about 1e154 m) are
rejected, and so are points whose squared distance to the nearest
element is not a positive normal float (nearer than about 1e-154 m,
where y^2 can underflow to 0 above an element), so every r and 1 / r is
positive and finite.

Every call processes its points in chunks of step = ``_CHUNK_PAIRS`` // N
points, 16,384 pairs, whatever its obstacle count. A chunk holds uv and
``spare`` (r, reused for t, and 1 / r side by side), each of step x 2N
float64 values, 256 KB, and in a call with several obstacles a third
buffer of that size for the copy: at most 768 KB, within a 2 MB L2
cache. Every pass of the identity runs on contiguous arrays (t^2 and
1 + t^2 in the two halves of uv, U and V in spare), and two copies then
put U and V side by side: the passes that wrote into uv's interleaved
rows took twice as long. Each chunk pays a fixed cost on top of its
arithmetic, in Python and small numpy calls, so chunks are not made
smaller. 65,536 pairs ran slower and raised peak memory. 32,768 pairs
raised ``compare``'s peak memory by 1.6%; on one-obstacle grids of
1,024 elements they took 4% to 6% less kernel time at 80 x 80 and 4% to
14% less at 300 x 300 (2-vCPU Xeon, NumPy 2.4), too little for the
benchmark's 80 x 80 ``simulate`` to resolve.

Within a chunk, (x - x_n)^2 is taken once per column: a run of
consecutive points of equal x in chunk order. ``grid_nodes`` and the
error box ravel their nodes x-major and the representatives are sorted
by (|x|, y), so a grid's chunk holds one column or a few, and a line
cut's chunk one per point. The squared column row is made in the array
of 1 / r and copied to each of its points' rows of r, to which y^2 is
then added: the same subtraction, square and addition as point by
point, so the bits are too.

The points are put once in chunk order: the representatives, the points
in no pair, then the partners. Chunks cut the first two groups into runs
of step points, and the partners of a chunk's representatives come with
it; so a chunk holds representatives, points in no pair or both, and
reads and writes only slices of arrays in chunk order. One scatter per
call puts the result back in the caller's order. The partners' uv fills
the array that held r and 1 / r, so a chunk takes trig on step points
at most, writes up to 2 step, and needs no more memory than a chunk
without partners.

The kernel runs on the calling thread and starts no thread. A second
thread gains only while the GIL is released, and much of a chunk holds
it: each obstacle's per-row run zeroing is a Python loop, and
``np.vecdot`` keeps the GIL unless one call makes more than 500 dot
products (a one-obstacle chunk of 1,024 elements makes 32).

uv, spare and (several obstacles) the copy are allocated once per call
and sliced to each chunk's rows. Allocated per chunk at 32,768 pairs,
glibc's malloc gave most chunks' memory back to the system, and the
next chunk faulted it in again: about 250 page faults per chunk.

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
import numbers
from dataclasses import dataclass

import numpy as np

from .array_geometry import CircleObstacle, Point2, RectObstacle, UlaConfig

__all__ = [
    "Excitation",
    "FieldGrid",
    "gaussian_excitation",
    "focusing_excitation",
    "field_at",
    "field_grid",
    "field_points_per_entry",
    "grid_nodes",
    "line_cut",
    "normalize_power",
    "write_columns",
    "write_field_csv",
    "write_field_pgm",
]

# Point-element pairs per chunk of every call (see the module docstring).
_CHUNK_PAIRS = 16_384


@dataclass(frozen=True)
class Excitation:
    """Per-element excitation: magnitudes gamma_n >= 0 and phases [rad].

    An element is driven iff gamma_n > 0; an undriven element's phase is
    set to 0. Arrays are copied and made read-only.
    """

    magnitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        mag = np.array(self.magnitudes, dtype=float)
        ph = np.array(self.phases, dtype=float)
        if mag.shape != ph.shape or mag.ndim != 1:
            raise ValueError("magnitudes and phases must be equal-length 1-D arrays")
        if not np.all((mag >= 0) & np.isfinite(mag)):
            raise ValueError("active magnitudes must be finite and non-negative")
        driven = mag > 0
        if not np.all(np.isfinite(ph[driven])):
            raise ValueError("active phases must be finite")
        ph[~driven] = 0.0
        for a in (mag, ph):
            a.flags.writeable = False
        object.__setattr__(self, "magnitudes", mag)
        object.__setattr__(self, "phases", ph)

    @property
    def active(self) -> np.ndarray:
        """The driven elements, gamma_n > 0."""
        return self.magnitudes > 0

    @property
    def n_elements(self) -> int:
        return self.magnitudes.shape[0]


@dataclass(frozen=True)
class FieldGrid:
    """Complex field sampled on a regular grid.

    values, of shape (nx, ny), holds at [ix, iy] the field at the node
    (x[ix], y[iy]): the nodes the kernel evaluated, ``grid_nodes``'s.
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray


def grid_nodes(
    x_range: tuple[float, float], y_range: tuple[float, float], nx: int, ny: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Axes x, y and flattened nodes px, py of a regular nx-by-ny lattice.

    Node (x[ix], y[iy]) is (px[ix * ny + iy], py[ix * ny + iy]). Each axis
    is np.linspace's, made mirror-exact on a symmetric range: when
    lo == -hi, node count - 1 - i is -node[i] for i < count // 2 and an odd
    count's middle node is 0.0. The left half and both ends are
    np.linspace's; the right half moves by a few ulp of hi, at most 2 on
    the ranges and sizes of the shipped scenes and the benchmark.
    """
    axes = []
    for (lo, hi), count in ((x_range, nx), (y_range, ny)):
        nodes = np.linspace(lo, hi, count)
        if hi > 0 and lo == -hi:
            half = count // 2
            nodes[count - half :] = -nodes[half - 1 :: -1]
            if count % 2:
                nodes[half] = 0.0
        axes.append(nodes)
    x, y = axes
    return x, y, np.repeat(x, ny), np.tile(y, nx)


def gaussian_excitation(cfg: UlaConfig, theta_a: float) -> Excitation:
    """Linear-phase steering excitation, phi_n = -k sin(theta_a) x_n."""
    if not abs(theta_a) < math.pi / 2:
        raise ValueError("|theta_a| must be < pi/2")
    # Phases that overflow are left non-finite for Excitation to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        xs = cfg.element_xs()
        # + 0.0 turns -0.0 into 0.0 so broadside phases serialize as plain zeros
        phases = -cfg.wavenumber() * math.sin(theta_a) * xs + 0.0
    return Excitation(np.ones_like(xs), phases)


def focusing_excitation(cfg: UlaConfig, focus: Point2) -> Excitation:
    """Phase-conjugation excitation, phi_n = k * |focus - element_n|."""
    if not focus.y > 0:
        raise ValueError("focus must lie in front of the array")
    # Phases that overflow are left non-finite for Excitation to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        xs = cfg.element_xs()
        r = np.hypot(focus.x - xs, focus.y)
        phases = cfg.wavenumber() * r
    return Excitation(np.ones_like(xs), phases)


def _blocked_runs(obstacle, xs: np.ndarray, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the index run [lo, hi) of ascending xs hidden by the obstacle."""
    a, b = obstacle.shadow(px, py)
    lo = np.searchsorted(xs, a, side="left")
    hi = np.searchsorted(xs, b, side="right")
    return lo, np.maximum(lo, hi)


def _nonempty_runs(lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, int, int]]:
    """(row, lo, hi) of each row whose run [lo, hi) is not empty, as Python ints."""
    return [(i, a, b) for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())) if b > a]


def _mirror_pairs(px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (rep, mate) with px[mate] == -px[rep] > 0 and py[mate] == py[rep].

    The points off x = 0 are sorted stably by (|x|, y), those with x < 0
    first, so a point with x < 0 sits just before its mirror unless an
    equal point comes between them; such points stay single.
    """
    neg, pos = np.flatnonzero(px < 0), np.flatnonzero(px > 0)
    # Complex keys sort by real part, then imaginary part.
    key = np.empty(neg.size + pos.size, dtype=complex)
    key.real[: neg.size], key.real[neg.size :] = -px[neg], px[pos]
    key.imag[: neg.size], key.imag[neg.size :] = py[neg], py[pos]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero((key[1:] == key[:-1]) & (order[:-1] < neg.size) & (order[1:] >= neg.size))
    return neg[order[first]], pos[order[first + 1] - neg.size]


def _chunk_order(px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, int]:
    """The points in chunk order (the representatives, the points in no pair, then the partners) and the pair count."""
    rep, mate = _mirror_pairs(px, py)
    unpaired = np.ones(px.shape, dtype=bool)
    unpaired[rep] = unpaired[mate] = False
    return np.concatenate((rep, np.flatnonzero(unpaired), mate)), mate.size


def _check_points(xs: np.ndarray, px: np.ndarray, py: np.ndarray) -> None:
    """Reject points that are not finite 1-D pairs in front of the array, or whose r^2 is not a positive normal float."""
    if px.ndim != 1 or px.shape != py.shape:
        raise ValueError("px and py must be equal-length 1-D arrays")
    if not (np.all(np.isfinite(px)) and np.all(np.isfinite(py))):
        raise ValueError("field points must be finite")
    if np.any(py <= 0):
        raise ValueError("field points must lie strictly in front of the array (y > 0)")
    # r^2 is largest at an end element, so it is finite on every pair iff there.
    with np.errstate(over="ignore"):
        far = np.maximum((px - xs[0]) ** 2, (px - xs[-1]) ** 2) + py * py
    if not np.all(np.isfinite(far)):
        raise ValueError("field points must lie within about 1e154 m of the array")
    # r^2 is smallest at one of the two elements that bracket px.
    above = np.clip(np.searchsorted(xs, px), 1, xs.size - 1)
    near = np.minimum((px - xs[above - 1]) ** 2, (px - xs[above]) ** 2) + py * py
    if not np.all(near >= np.finfo(float).tiny):
        raise ValueError("field points must lie at least about 1e-154 m from every element")


def _weights(exc: Excitation) -> np.ndarray:
    """The weight rows (a, b) and (b, -a), a = gamma cos(phi) and b = gamma sin(phi)."""
    a = exc.magnitudes * np.cos(exc.phases)
    b = exc.magnitudes * np.sin(exc.phases)
    return np.stack((np.concatenate((a, b)), np.concatenate((b, -a))))


def field_points_per_entry(cfg: UlaConfig, entries, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Complex field at the points (px[i], py[i]) of each (excitation, obstacle) entry.

    Row t of the (len(entries), M) result is the field of entries[t]'s
    excitation under its obstacle, bit for bit that of a call with
    entries[t] alone; points inside the obstacle yield NaN in that row. An
    obstacle may be None (free space).
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    entries = list(entries)
    n = cfg.n_elements
    xs = cfg.element_xs()
    if any(exc.n_elements != n for exc, _ in entries):
        raise ValueError("excitation length does not match array size")
    _check_points(xs, px, py)
    if not entries:
        return np.empty((0, px.shape[0]), dtype=complex)
    k = cfg.wavenumber()
    # Entries are grouped by obstacle, in first-seen order; each group reduces
    # against the stacked weight rows of its entries, two per entry.
    groups: dict = {}
    for t, (_, obstacle) in enumerate(entries):
        groups.setdefault(obstacle, []).append(t)
    distinct = {id(exc): exc for exc, _ in entries}
    weights = {key: _weights(exc) for key, exc in distinct.items()}
    stacks = [np.concatenate([weights[id(entries[t][0])] for t in ts]) for ts in groups.values()]
    # Chunks cut the first size points in chunk order.
    order, pairs = _chunk_order(px, py)
    size = order.size - pairs
    qx, qy = px[order], py[order]
    # Free space hides no element and has no runs.
    runs = [None if obstacle is None else _blocked_runs(obstacle, xs, qx, qy) for obstacle in groups]
    step = max(1, _CHUNK_PAIRS // n)
    # Consecutive points of equal x in chunk order form a column; column[i]
    # is point i's, column_x the columns' x. A chunk squares x - x_n once
    # per column it holds.
    new_x = np.ones(size, dtype=bool)
    np.not_equal(qx[1:size], qx[: size - 1], out=new_x[1:])
    column = np.cumsum(new_x) - 1
    column_x = qx[:size][new_x]
    # The result, its points in chunk order.
    ordered = np.empty((len(entries), order.size), dtype=complex)
    # uv, spare and (several obstacles) the copy, allocated once per call
    # and sliced to each chunk's rows (see the module docstring).
    rows = min(step, size)
    uv_rows, spare_rows = np.empty((rows, 2, n)), np.empty((rows, 2, n))
    copy = np.empty((rows, 2, n)) if len(groups) > 1 else None
    for start in range(0, size, step):
        stop = min(start + step, size)
        # The chunk's first paired points are representatives.
        m, paired = stop - start, max(0, min(stop, pairs) - start)
        # uv holds U = cos(k r) / r and V = sin(k r) / r, side by side in
        # each row; spare holds r, then t = tan(k r / 2), then V, and 1 / r,
        # then q, then U, and last the partners' uv.
        uv, spare = uv_rows[:m], spare_rows[:m]
        r, q = spare.reshape(2, m, n)
        # (x - x_n)^2 once per column, in q, then copied to each point's row.
        first = column[start]
        cols = column_x[first : column[stop - 1] + 1]
        dx2 = np.subtract.outer(cols, xs, out=q[: cols.size])
        dx2 *= dx2
        np.take(dx2, column[start:stop] - first, axis=0, out=r, mode="clip")
        r += (qy[start:stop] ** 2)[:, np.newaxis]
        np.sqrt(r, out=r)
        np.divide(1.0, r, out=q)
        t = np.tan(np.multiply(r, 0.5 * k, out=r), out=r)
        # q = (1 / r) / (1 + t^2), U = (1 - t^2) q and V = (2 t) q, each
        # pass on contiguous arrays; then U and V are copied into uv.
        d, t2 = uv.reshape(2, m, n)
        np.multiply(t, t, out=t2)
        np.add(t2, 1.0, out=d)
        q /= d
        np.subtract(1.0, t2, out=t2)
        t += t
        t *= q
        q *= t2
        uv[:, 0], uv[:, 1] = q, t
        blocks = [(uv, slice(start, stop))]
        if paired:
            # A partner's row is its representative's, reversed.
            spare[:paired] = uv[:paired, :, ::-1]
            blocks.append((spare[:paired], slice(size + start, size + start + paired)))
        for block, points in blocks:
            for j, (run, ts) in enumerate(zip(runs, groups.values())):
                hidden = () if run is None else _nonempty_runs(run[0][points], run[1][points])
                # An obstacle with another after it zeroes its runs in a copy.
                seen = block
                if hidden and j < len(runs) - 1:
                    seen = copy[: block.shape[0]]
                    seen[...] = block
                for i, a, b in hidden:
                    seen[i, :, a:b] = 0.0
                # One row dot product per entry and part: bit-identical
                # whatever the chunk's row count and the number of entries.
                sums = np.vecdot(seen.reshape(-1, 1, 2 * n), stacks[j])
                ordered.real[ts, points] = sums[:, 0::2].T
                ordered.imag[ts, points] = sums[:, 1::2].T
    out = np.empty_like(ordered)
    out[:, order] = ordered
    for obstacle, ts in groups.items():
        if obstacle is not None:
            out[np.ix_(ts, obstacle.contains(px, py))] = complex(np.nan, np.nan)
    return out


def field_at(
    cfg: UlaConfig, exc: Excitation, p: Point2, obstacle: RectObstacle | CircleObstacle | None = None
) -> complex:
    """Complex field at a single point; raises if p lies inside the obstacle."""
    if obstacle is not None and obstacle.contains(p.x, p.y):
        raise ValueError("field point lies inside the obstacle")
    return complex(field_points_per_entry(cfg, ((exc, obstacle),), np.array([p.x]), np.array([p.y]))[0, 0])


def field_grid(
    cfg: UlaConfig,
    exc: Excitation,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    nx: int,
    ny: int,
    obstacle: RectObstacle | CircleObstacle | None = None,
) -> FieldGrid:
    """Field on a regular nx-by-ny grid, checked before it is computed; obstacle-interior nodes become NaN."""
    if not (isinstance(nx, numbers.Integral) and isinstance(ny, numbers.Integral)):
        raise ValueError("nx and ny must be integers")
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be >= 2")
    if x_range[1] <= x_range[0] or y_range[1] <= y_range[0]:
        raise ValueError("ranges must be increasing")
    x, y, px, py = grid_nodes(x_range, y_range, nx, ny)
    values = field_points_per_entry(cfg, ((exc, obstacle),), px, py)[0].reshape(nx, ny)
    return FieldGrid(x, y, values)


def line_cut(
    cfg: UlaConfig,
    exc: Excitation,
    theta_a: float,
    d_max_plot: float,
    samples: int,
    obstacle: RectObstacle | CircleObstacle | None = None,
) -> list[tuple[float, float]]:
    """|E| along the ray at angle theta_a from the y-axis, d in (0, d_max_plot].

    Returns (distance, amplitude) pairs at `samples` uniform distances.
    Interior samples carry NaN amplitude.
    """
    if not isinstance(samples, numbers.Integral):
        raise ValueError("samples must be an integer")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not d_max_plot > 0:
        raise ValueError("d_max_plot must be positive")
    d = d_max_plot * np.arange(1, samples + 1) / samples
    px, py = d * math.sin(theta_a), d * math.cos(theta_a)
    vals = field_points_per_entry(cfg, ((exc, obstacle),), px, py)[0]
    return list(zip(d.tolist(), np.hypot(vals.real, vals.imag).tolist()))


def normalize_power(exc: Excitation, budget: float) -> Excitation:
    """Scale magnitudes so that sum(gamma_n^2) equals budget."""
    if not budget > 0:
        raise ValueError("budget must be positive")
    total = float(np.sum(exc.magnitudes**2))
    if total == 0.0:
        raise ValueError("cannot normalize an excitation with no active power")
    factor = math.sqrt(budget / total)
    return Excitation(exc.magnitudes * factor, exc.phases)


def write_columns(path: str, header: str, columns) -> None:
    """Write equal-length columns as an ASCII CSV with LF line endings.

    Cells are str of each value (of tolist() for arrays): a float's str is
    its shortest round-trip repr, NaN spelled ``nan``.
    """
    cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row + "\n" for row in map(",".join, zip(*cells)))


def write_field_csv(grid: FieldGrid, path: str) -> None:
    """Write the grid as CSV (see module docstring for the layout)."""
    nx, ny = grid.values.shape
    values = grid.values.T.ravel()
    # Each coordinate is formatted once and its string repeated.
    xs = [str(x) for x in grid.x.tolist()]
    ys = [str(y) for y in grid.y.tolist()]
    write_columns(
        path,
        "x,y,re,im,abs",
        (xs * ny, [y for y in ys for _ in range(nx)], values.real, values.imag, np.hypot(values.real, values.imag)),
    )


def write_field_pgm(grid: FieldGrid, path: str) -> None:
    """Write the amplitude map as a binary 8-bit PGM (see module docstring)."""
    amp = np.hypot(grid.values.real, grid.values.imag)
    finite = np.isfinite(amp)
    vmax = float(amp[finite].max()) if finite.any() else 0.0
    if vmax > 0:
        scaled = np.where(finite, amp / vmax * 255.0, 0.0)
    else:
        scaled = np.zeros_like(amp)
    pixels = np.rint(scaled).astype(np.uint8)
    # Image rows run top-down in y; pixels[ix, iy] -> row (ny-1-iy), col ix.
    img = pixels.T[::-1, :]
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.tobytes())
