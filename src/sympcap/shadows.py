"""Projection (shadow) checks for linear symplectic maps and nonlinear
Hamiltonian flows: the conjugate-plane shadow of an evolved ball never
drops below its initial area.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

import numpy as np

from .core import SymplecticMatrix, _certify, _parse_int, _positive, _random_symplectic_stack
from .ebk import Potential
from .errors import FlowDiverged, FlowError
from .sampling import ball_points

CONJUGATE_TOL = 1e-9
GRID_SHADOW_TOL = 0.05  # relative allowance of a grid shadow area below pi R^2
CELL_LIMIT = 2.0**62  # bound on grid cell indices and codes, half of int64's
# a grid area takes a bitmap of the cloud's box, margin included, of at most
# this many cells per point plus the floor below; a wider box sorts its codes
_BITMAP_CELLS_PER_POINT = 32
_BITMAP_MIN_CELLS = 2**14
GRADIENT_CHECK_POINTS = 5
GRADIENT_CHECK_SCALE = 0.375  # the scale at which a force is checked to follow it
MIN_STEP_RATIO = 2.0**-960  # least dt / mass: the scaled momentum stays a normal double
# bound on samples x Verlet steps of one evolve_ball_shadow call: 4 times
# the 5e8 of the README's quartic example, which takes 1.0-1.1 s in-process
# (2.0-2.3 ns a particle-step on 1e5 samples), so some 4 s
MAX_PARTICLE_STEPS = 2 * 10**9


@dataclass(frozen=True)
class PlaneSelector:
    """The coordinate 2-plane (a_i, b_j), with a and b each "q" or "p" and
    1-based mode indices i, j: (q_j, p_j) is the conjugate plane of mode j."""

    a: str
    i: int
    b: str
    j: int

    def __post_init__(self):
        if not {self.a, self.b} <= {"q", "p"}:
            raise ValueError(f"plane coordinates are q or p, got {self.a!r} and {self.b!r}")
        if (self.a, self.i) == (self.b, self.j):
            raise ValueError(f"plane {self.label()} needs two distinct coordinates")

    @classmethod
    def conjugate(cls, j: int) -> "PlaneSelector":
        return cls("q", j, "p", j)

    @classmethod
    def parse(cls, spec: str) -> "PlaneSelector":
        """`conjugate:j`, `qq:i,j`, `pp:i,j` or `qp:i,j` with i != j."""
        kind, colon, idx = spec.partition(":") if isinstance(spec, str) else ("", "", "")
        nums = idx.split(",")
        if not colon or len(nums) != {"conjugate": 1, "qq": 2, "pp": 2, "qp": 2}.get(kind):
            raise ValueError(f"plane must be conjugate:j, qq:i,j, pp:i,j or qp:i,j, got {spec!r}")
        i, j = (_parse_int(s, "plane index") for s in (nums[0], nums[-1]))
        if kind == "conjugate":
            return cls.conjugate(j)
        if kind == "qp" and i == j:
            raise ValueError(f"qp:{j},{j} is the conjugate plane; write conjugate:{j}")
        return cls(kind[0], i, kind[1], j)

    def indices(self, n: int) -> tuple[int, int]:
        """0-based coordinate indices into a (q-block, p-block) vector."""
        for idx in (self.i, self.j):
            if not (1 <= idx <= n):
                raise ValueError(f"plane index {idx} outside 1..{n}")
        return self.i - 1 + n * (self.a == "p"), self.j - 1 + n * (self.b == "p")

    def label(self) -> str:
        return f"{self.a}{self.i}{self.b}{self.j}"


@dataclass(frozen=True)
class ShadowReport:
    plane: PlaneSelector
    area: float
    bound: float
    satisfied: bool
    method: str  # exact-ellipse | grid-estimate
    time: float = 0.0

    def to_row(self):
        return [self.time, self.plane.label(), self.area, self.bound, self.satisfied]


def linear_shadow_area(S: SymplecticMatrix, R: float, plane: PlaneSelector) -> ShadowReport:
    """Exact area of the orthogonal projection of S(B(R)) onto a plane.

    The image of the ball is the ellipsoid z^T (SS^T)^{-1} z <= R^2; its
    shadow is an ellipse of area pi R^2 sqrt(det (SS^T)_plane).
    """
    _positive("radius", R)
    area = math.pi * R * R * math.sqrt(max(_plane_dets(S.matrix, [plane])[0], 0.0))
    bound = math.pi * R * R
    return ShadowReport(
        plane=plane,
        area=area,
        bound=bound,
        satisfied=area >= bound * (1 - CONJUGATE_TOL),
        method="exact-ellipse",
    )


@dataclass
class EnsembleSummary:
    min_conjugate_det: float
    nonconjugate_witness: Optional[dict]
    conjugate_bound_held: bool


@functools.cache
def _index_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair k < l of range(m), as two read-only arrays."""
    pairs = np.triu_indices(m, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _plane_dets(S: np.ndarray, planes: Sequence[PlaneSelector]) -> np.ndarray:
    """det of the 2x2 block of SS^T on each plane; S may be a stack (..., 2n, 2n).

    By Cauchy-Binet, with u and v the plane's two rows of S, the det is the
    sum over k < l of the squared 2x2 minors (u_k v_l - u_l v_k)^2. Every
    term is >= 0, so nothing cancels, unlike |u|^2 |v|^2 - (u.v)^2. One
    plane at a time keeps memory at a few (..., n (2n - 1)) temporaries. A
    det that overflows is inf, without a warning.
    """
    n = S.shape[-1] // 2
    k, l = _index_pairs(2 * n)
    dets = np.empty(S.shape[:-2] + (len(planes),))
    with np.errstate(over="ignore"):
        for p, plane in enumerate(planes):
            a, b = plane.indices(n)
            u, v = S[..., a, :], S[..., b, :]
            minors = u[..., k] * v[..., l] - u[..., l] * v[..., k]
            dets[..., p] = np.sum(minors * minors, axis=-1)
    return dets


def nonsqueeze_ensemble(N: int, count: int, sigma: float = 1.0, seed: int = 0) -> EnsembleSummary:
    """Conjugate-plane shadow determinants over a random symplectic ensemble.

    Every conjugate 2x2 block of SS^T must have determinant >= 1 (within
    roundoff); nonconjugate blocks are free to shrink and the smallest one
    found is reported with its witness, the first in (member, plane) order.
    """
    stack = _random_symplectic_stack(N, count, sigma, np.random.default_rng(seed))
    _certify(stack)  # the first member that fails raises
    # every nonconjugate coordinate plane once, in witness order
    nonconj = []
    for i, j in permutations(range(1, N + 1), 2):
        if i < j:
            nonconj += [PlaneSelector("q", i, "q", j), PlaneSelector("p", i, "p", j)]
        nonconj.append(PlaneSelector("q", i, "p", j))
    dets = _plane_dets(stack, [PlaneSelector.conjugate(j) for j in range(1, N + 1)] + nonconj)
    min_conj = float(dets[:, :N].min())
    witness = None
    if nonconj:
        k, p = divmod(int(np.argmin(dets[:, N:])), len(nonconj))
        witness = {"member": k, "plane": nonconj[p].label(), "det": float(dets[k, N + p])}
    return EnsembleSummary(
        min_conjugate_det=min_conj,
        nonconjugate_witness=witness,
        conjugate_bound_held=min_conj >= 1 - CONJUGATE_TOL,
    )


@functools.lru_cache(maxsize=8)
def _check_points(n_modes: int) -> np.ndarray:
    """The points in [-1, 1)^n_modes where a force is checked, drawn once, read-only."""
    x = np.random.default_rng(1234).uniform(-1.0, 1.0, size=(GRADIENT_CHECK_POINTS, n_modes))
    x.flags.writeable = False
    return x


@dataclass
class FlowSpec:
    """The flow of H(q, p) = |p|^2 / 2 mass + V(q) of a `Potential`, in Verlet steps of dt.

    Its force is the potential's dV(q, scale, out), which writes scale * dV/dq into `out`
    and returns it: the kernel folds its step into the force's constants and allocates
    nothing per step. At construction V, read as np.reshape(V(q), -1), and the
    force must be finite at the check points, where the force must also return its fresh
    `out`, match central finite differences of V and follow its scale. dt / mass must be
    at least 2^-960, or the momentum the kernel scales by it would lose bits as a subnormal.
    """

    potential: Potential
    dt: float

    def __post_init__(self):
        _positive("dt", self.dt)
        pot = self.potential
        if not self.dt / pot.mass >= MIN_STEP_RATIO:
            raise ValueError(f"dt / mass = {self.dt / pot.mass!r} is below 2^-960: the "
                             "momentum scaled by it would be subnormal")
        n = pot.n_modes
        x = _check_points(n)
        h = 1e-6
        with np.errstate(all="ignore"):  # what is not finite is refused by name
            g = self._force(x, 1.0)
            v = np.array([(pot.V(x + e), pot.V(x - e)) for e in h * np.eye(n)]).reshape(n, 2, -1)
            fd = (v[:, 0] - v[:, 1]).T / (2 * h)
            # fails where anything is not finite too (NaN, or inf where fd overflows)
            if not np.max(np.abs(fd - g) / np.maximum(np.abs(g), 1.0)) <= 1e-6 * 10:
                for name, values in (("V", v), ("dV", g)):
                    if not np.isfinite(values).all():
                        raise FlowError(f"{name} is not finite at the gradient check points")
                raise FlowError("gradient of V disagrees with finite differences")
        s = GRADIENT_CHECK_SCALE
        if not np.max(np.abs(self._force(x, s) - s * g)) <= 1e-9 * s * np.max(np.abs(g)):
            raise FlowError(f"dV ignores its scale: dV(q, {s}, out) is not {s} "
                            "times dV(q, 1, out)")

    def _force(self, x: np.ndarray, scale: float) -> np.ndarray:
        """dV(x, scale, out) on a fresh NaN-filled `out`, which it must return."""
        out = np.full_like(x, np.nan)
        try:  # gradient callables are caller-supplied
            g = self.potential.dV(x, scale, out)
        except Exception as exc:
            raise FlowError(f"gradient evaluation failed: {exc}") from exc
        if g is not out:
            raise FlowError("dV ignores its out: dV(q, scale, out) must write "
                            "scale * dV/dq into out and return it")
        return g


def _aligned(size: int) -> np.ndarray:
    """An uninitialized float array of `size` whose data starts on a 64-byte boundary."""
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size]


def _advance(q: np.ndarray, p: np.ndarray, flow: FlowSpec, count: int, buf: np.ndarray) -> None:
    """Advance in place by `count` Stoermer-Verlet (kick-drift-kick) steps,
    exactly symplectic, fusing adjacent half-kicks: one force evaluation per
    step instead of two, algebraically identical to `count` single steps.

    For the length of the call `p` holds the scaled momentum P = h p, with
    h = dt / mass: each drift is then `q += P`, and each kick subtracts
    s dV/dq, s = dt h (halved at the two end half-kicks), which the force
    writes into `buf`, the caller's scratch array of p's shape. A quartic
    step takes five array passes and allocates nothing. Its speed depends on
    where the arrays start: on 5 000 one-mode particles (2 cores, numpy 2.4.6,
    pinned to one core) a quartic particle-step took 1.5 ns with q, p and buf
    on 64-byte boundaries and 1.8 ns with all three at 16 or 48 mod 64, a
    harmonic one 0.93 against 1.08 ns. The scaling rounds: p differs from
    the unscaled kernel's in the last bits.
    """
    if count <= 0:
        return
    h = flow.dt / flow.potential.mass
    s = flow.dt * h
    force = flow.potential.dV
    p *= h
    try:  # gradient callables are caller-supplied
        p -= force(q, 0.5 * s, buf)
        for _ in range(count - 1):
            q += p
            p -= force(q, s, buf)
        q += p
        p -= force(q, 0.5 * s, buf)
    except Exception as exc:
        raise FlowError(f"gradient evaluation failed: {exc}") from exc
    p /= h


def grid_shadow_area(points_2d: np.ndarray, grid_cell: float) -> float:
    """Occupancy-grid area of a projected point cloud.

    Cells straddling the boundary are on average half covered, so the raw
    count overestimates by about perimeter * cell / 2; the correction
    subtracts half of every occupied cell with an unoccupied 4-neighbor.
    A cloud with a non-finite coordinate, or too wide for int64 cell codes
    at this cell size (indices or code range beyond 2^62), is refused.

    The occupied cells are found in one of two ways, chosen by the cloud's
    bounding box and point count alone. A compact cloud, whose box with a
    one-cell margin holds at most _BITMAP_CELLS_PER_POINT cells a point plus
    _BITMAP_MIN_CELLS, is marked in a boolean bitmap of that box: a cell is
    interior where its four shifted neighbours are all marked. A wider cloud
    (a filament across many cells, far-apart clusters) sorts its cell codes
    and finds each neighbour by binary search. Both give the same cell set,
    so the same area bits. On uniform clouds at the limit (2 cores, numpy
    2.4.6) the bitmap took 0.2 to 0.6 of the sort's time, from 2 points (19
    against 31 us) to 100 000 (6.3 against 14 ms). On the 5 000-point clouds
    of `perfbench` shadow-flow (cell 0.1, boxes of some 600 cells) a call
    took 51 us, against 134 us with the sort alone.
    """
    scaled = np.floor(np.asarray(points_2d, dtype=float) / grid_cell)
    if not len(scaled):
        return 0.0
    # per column, as Python floats: .min(axis=0) on a C-ordered (n, 2) array,
    # and small arrays of the ends, each took several times as long
    x, y = scaled[:, 0], scaled[:, 1]
    x0, x1, y0, y1 = float(x.min()), float(x.max()), float(y.min()), float(y.max())
    # cell indices, and the codes below (less than the product), must fit
    # in int64 with room to spare; a NaN or infinite coordinate fails too
    if not (-x0 < CELL_LIMIT and x1 < CELL_LIMIT and -y0 < CELL_LIMIT and y1 < CELL_LIMIT
            and (x1 - x0 + 3) * (y1 - y0 + 3) < CELL_LIMIT):
        raise ValueError(f"cloud does not fit an int64 grid of cell {grid_cell}")
    cells = scaled.astype(np.int64)
    # one code per cell, rows `span` apart with an empty row and column on
    # each side, so the 4-neighbors of a code are code +- span and code +- 1
    lo_x, lo_y = int(x0) - 1, int(y0) - 1
    span = int(y1) - lo_y + 2
    codes = (cells[:, 0] - lo_x) * span + (cells[:, 1] - lo_y)
    size = (int(x1) - lo_x + 2) * span
    if size <= _BITMAP_CELLS_PER_POINT * len(codes) + _BITMAP_MIN_CELLS:
        grid = np.zeros(size, dtype=bool)
        grid[codes] = True
        count = int(np.count_nonzero(grid))
        interior = grid[span:-span] & grid[:-2 * span]
        for shifted in (grid[2 * span:], grid[span - 1:-span - 1], grid[span + 1:size - span + 1]):
            interior &= shifted
        boundary = count - int(np.count_nonzero(interior))
    else:
        codes = np.sort(codes)
        codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
        count = codes.size
        outside = np.zeros(count, dtype=bool)
        for d in (span, -span, 1, -1):
            at = np.minimum(np.searchsorted(codes, codes + d), count - 1)
            outside |= codes[at] != codes + d
        boundary = int(outside.sum())
    return (count - 0.5 * boundary) * grid_cell * grid_cell


def evolve_ball_shadow(
    radius: float,
    flow: FlowSpec,
    plane: PlaneSelector,
    samples: int,
    grid_cell: float,
    snapshot_times: Sequence[float],
    seed: int = 0,
):
    """Advect samples of the ball B(radius) about the origin under the flow
    and estimate shadow areas.

    The grid estimate is one-sided (an undersampled filament can only lose
    cells), so `satisfied` allows GRID_SHADOW_TOL relative below the pi R^2
    bound. Returns (reports, clouds): a ShadowReport and the projected
    (samples, 2) cloud for each snapshot time, in ascending time order.
    """
    _positive("radius", radius)
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    _positive("grid_cell", grid_cell)
    n = flow.potential.n_modes
    a, b = plane.indices(n)
    bound = math.pi * radius**2

    times = sorted(set(float(t) for t in snapshot_times))
    snap_steps = []
    for t in times:
        if t < 0:
            raise ValueError(f"snapshot time {t} is negative")
        if not math.isfinite(t):
            raise ValueError(f"snapshot time {t} is not finite")
        k = round(t / flow.dt)
        if abs(k * flow.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"snapshot time {t} is not a multiple of dt={flow.dt}")
        snap_steps.append(k)
    steps = max(snap_steps, default=0)
    if samples * max(1, steps) > MAX_PARTICLE_STEPS:
        raise ValueError(f"{samples} samples x {steps} Verlet steps exceeds the bound of "
                         f"{MAX_PARTICLE_STEPS:.1e} particle-steps")

    # state and force scratch on 64-byte boundaries: the kernel ran about 20% slower
    # wherever the heap put them 16 mod 32
    q, p, buf = (_aligned(samples * n).reshape(samples, n) for _ in range(3))
    state = ball_points(samples, 2 * n, radius, seed=seed)
    q[...], p[...] = state[:, :n], state[:, n:]
    del state  # kept through the run, it raised the peak at 5e6 samples by 78 MB
    reports = []
    clouds = []
    step = 0
    for t, target in zip(times, snap_steps):
        _advance(q, p, flow, target - step, buf)
        step = target
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise FlowDiverged(f"non-finite coordinate at t={t}")
        # the plane's two columns, each contiguous in the (samples, 2) cloud
        proj = np.array([q[:, i] if i < n else p[:, i - n] for i in (a, b)]).T
        area = grid_shadow_area(proj, grid_cell)
        reports.append(
            ShadowReport(
                plane=plane,
                area=area,
                bound=bound,
                satisfied=area >= bound * (1 - GRID_SHADOW_TOL),
                method="grid-estimate",
                time=t,
            )
        )
        clouds.append(proj)
    return reports, clouds
