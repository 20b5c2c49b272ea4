"""Projection (shadow) checks for linear symplectic maps and nonlinear
Hamiltonian flows: the conjugate-plane shadow of an evolved ball never
drops below its initial area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Optional, Sequence

import numpy as np

from .capacity import Ball
from .core import SymplecticMatrix, _random_symplectic_stack
from .errors import FlowDiverged, FlowError
from .sampling import ball_points

CONJUGATE_TOL = 1e-9
GRADIENT_CHECK_POINTS = 5


@dataclass(frozen=True)
class PlaneSelector:
    """A 2-plane spanned by two phase-space coordinates (1-based indices)."""

    kind: str  # conjugate | position_pair | momentum_pair | mixed
    i: int
    j: int

    @classmethod
    def conjugate(cls, j: int) -> "PlaneSelector":
        return cls("conjugate", j, j)

    @classmethod
    def position_pair(cls, i: int, j: int) -> "PlaneSelector":
        if i == j:
            raise ValueError("position pair needs two distinct indices")
        return cls("position_pair", i, j)

    @classmethod
    def momentum_pair(cls, i: int, j: int) -> "PlaneSelector":
        if i == j:
            raise ValueError("momentum pair needs two distinct indices")
        return cls("momentum_pair", i, j)

    @classmethod
    def mixed(cls, i: int, j: int) -> "PlaneSelector":
        if i == j:
            raise ValueError("mixed plane (q_i, p_j) needs i != j; use conjugate(j)")
        return cls("mixed", i, j)

    def indices(self, n: int) -> tuple[int, int]:
        """0-based coordinate indices into a (q-block, p-block) vector."""
        for idx in (self.i, self.j):
            if not (1 <= idx <= n):
                raise ValueError(f"index {idx} outside 1..{n}")
        if self.kind == "conjugate":
            return self.j - 1, n + self.j - 1
        if self.kind == "position_pair":
            return self.i - 1, self.j - 1
        if self.kind == "momentum_pair":
            return n + self.i - 1, n + self.j - 1
        if self.kind == "mixed":
            return self.i - 1, n + self.j - 1
        raise ValueError(f"unknown plane kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "conjugate":
            return f"q{self.j}p{self.j}"
        names = {"position_pair": ("q", "q"), "momentum_pair": ("p", "p"), "mixed": ("q", "p")}
        a, b = names[self.kind]
        return f"{a}{self.i}{b}{self.j}"


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
    if R <= 0:
        raise ValueError(f"radius must be positive, got {R}")
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
    n_modes: int
    count: int
    min_conjugate_det: float
    min_nonconjugate_det: float
    nonconjugate_witness: Optional[dict]
    conjugate_bound_held: bool


def _plane_dets(S: np.ndarray, planes: Sequence[PlaneSelector]) -> np.ndarray:
    """det of the 2x2 block of SS^T on each plane; S may be a stack (..., 2n, 2n)."""
    idx = np.array([plane.indices(S.shape[-1] // 2) for plane in planes])
    A = S @ np.swapaxes(S, -1, -2)
    return np.linalg.det(A[..., idx[:, :, None], idx[:, None, :]])


def nonsqueeze_ensemble(N: int, count: int, sigma: float = 1.0, seed: int = 0) -> EnsembleSummary:
    """Conjugate-plane shadow determinants over a random symplectic ensemble.

    Every conjugate 2x2 block of SS^T must have determinant >= 1 (within
    roundoff); nonconjugate blocks are free to shrink and the smallest one
    found is reported with its witness, the first in (member, plane) order.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    stack = _random_symplectic_stack(N, count, sigma, np.random.default_rng(seed))
    for S in stack:  # certify each member; the first failure raises
        SymplecticMatrix(S, tol=1e-9)
    # every nonconjugate coordinate plane once, in witness order
    nonconj = []
    for i, j in permutations(range(1, N + 1), 2):
        if i < j:
            nonconj += [PlaneSelector.position_pair(i, j), PlaneSelector.momentum_pair(i, j)]
        nonconj.append(PlaneSelector.mixed(i, j))
    dets = _plane_dets(stack, [PlaneSelector.conjugate(j) for j in range(1, N + 1)] + nonconj)
    min_conj = float(dets[:, :N].min())
    witness = None
    if nonconj:
        k, p = divmod(int(np.argmin(dets[:, N:])), len(nonconj))
        witness = {"member": k, "plane": nonconj[p].label(), "det": float(dets[k, N + p])}
    return EnsembleSummary(
        n_modes=N,
        count=count,
        min_conjugate_det=min_conj,
        min_nonconjugate_det=witness["det"] if witness else math.inf,
        nonconjugate_witness=witness,
        conjugate_bound_held=min_conj >= 1 - CONJUGATE_TOL,
    )


@dataclass
class FlowSpec:
    """Separable Hamiltonian H(q, p) = T(p) + V(q) with explicit gradients.

    Gradients are spot-checked against central finite differences at
    construction; callables must be vectorized over a leading sample axis.
    """

    grad_V: Callable[[np.ndarray], np.ndarray]
    grad_T: Callable[[np.ndarray], np.ndarray]
    dt: float
    V: Optional[Callable[[np.ndarray], np.ndarray]] = None
    T: Optional[Callable[[np.ndarray], np.ndarray]] = None
    n_modes: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        self._check_gradient(self.V, self.grad_V, "V")
        self._check_gradient(self.T, self.grad_T, "T")

    def _check_gradient(self, f, grad, name):
        if f is None:
            return
        rng = np.random.default_rng(1234)
        x = rng.uniform(-1.0, 1.0, size=(GRADIENT_CHECK_POINTS, self.n_modes))
        g = np.asarray(grad(x), dtype=float)
        h = 1e-6
        for k in range(self.n_modes):
            e = np.zeros(self.n_modes)
            e[k] = h
            fd = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h)
            scale = np.maximum(np.abs(g[:, k]), 1.0)
            if np.max(np.abs(fd - g[:, k]) / scale) > 1e-6 * 10:
                raise FlowError(f"gradient of {name} disagrees with finite differences")

    def energy(self, state: np.ndarray) -> np.ndarray:
        if self.V is None or self.T is None:
            raise FlowError("energy requires both V and T callables")
        n = self.n_modes
        state = np.asarray(state, dtype=float)
        return np.asarray(self.T(state[..., n:])) + np.asarray(self.V(state[..., :n]))


def verlet_step(state: np.ndarray, flow: FlowSpec) -> np.ndarray:
    """One Stoermer-Verlet (kick-drift-kick) step; exactly symplectic."""
    n = flow.n_modes
    state = np.asarray(state, dtype=float)
    q = state[..., :n].copy()
    p = state[..., n:].copy()
    _advance(q, p, flow, 1)
    return np.concatenate([q, p], axis=-1)


def _advance(q: np.ndarray, p: np.ndarray, flow: FlowSpec, count: int) -> None:
    """Advance in place by `count` Verlet steps, fusing adjacent half-kicks.

    Algebraically identical to iterating verlet_step; one force evaluation
    per step instead of two.
    """
    if count <= 0:
        return
    dt = flow.dt
    try:  # gradient callables are caller-supplied
        p -= 0.5 * dt * np.asarray(flow.grad_V(q))
        for _ in range(count - 1):
            q += dt * np.asarray(flow.grad_T(p))
            p -= dt * np.asarray(flow.grad_V(q))
        q += dt * np.asarray(flow.grad_T(p))
        p -= 0.5 * dt * np.asarray(flow.grad_V(q))
    except Exception as exc:
        raise FlowError(f"gradient evaluation failed: {exc}") from exc


def grid_shadow_area(points_2d: np.ndarray, grid_cell: float,
                     perimeter_correction: bool = True) -> float:
    """Occupancy-grid area of a projected point cloud.

    Cells straddling the boundary are on average half covered, so the raw
    count overestimates by about perimeter * cell / 2; the correction
    subtracts half of every occupied cell with an unoccupied 4-neighbor.
    """
    cells = np.floor(points_2d / grid_cell).astype(np.int64)
    if not len(cells):
        return 0.0
    # one code per cell, rows `span` apart with an empty column on each
    # side, so the 4-neighbors of a code are code +- span and code +- 1
    lo = cells.min(axis=0) - 1
    span = cells[:, 1].max() - lo[1] + 2
    codes = np.unique((cells[:, 0] - lo[0]) * span + (cells[:, 1] - lo[1]))
    count = codes.size
    if perimeter_correction:
        boundary = np.zeros(count, dtype=bool)
        for d in (span, -span, 1, -1):
            at = np.minimum(np.searchsorted(codes, codes + d), count - 1)
            boundary |= codes[at] != codes + d
        count = count - 0.5 * int(boundary.sum())
    return count * grid_cell * grid_cell


def evolve_ball_shadow(
    ball: Ball,
    flow: FlowSpec,
    plane: PlaneSelector,
    samples: int,
    grid_cell: float,
    snapshot_times: Sequence[float],
    seed: int = 0,
    tolerance: float = 0.05,
    collect_points: bool = False,
):
    """Advect ball samples under the flow and estimate shadow areas.

    The grid estimate is one-sided (an undersampled filament can only lose
    cells), so `satisfied` uses the relative tolerance below the pi R^2
    bound. Returns a list of ShadowReport (and the projected clouds when
    `collect_points` is set).
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if grid_cell <= 0:
        raise ValueError(f"grid_cell must be positive, got {grid_cell}")
    n = flow.n_modes
    if ball.dim != 2 * n:
        raise ValueError(f"ball dimension {ball.dim} != 2 * n_modes {2 * n}")
    a, b = plane.indices(n)
    bound = math.pi * ball.radius**2

    times = sorted(set(float(t) for t in snapshot_times))
    snap_steps = []
    for t in times:
        k = round(t / flow.dt)
        if abs(k * flow.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"snapshot time {t} is not a multiple of dt={flow.dt}")
        snap_steps.append(k)

    state = ball_points(samples, 2 * n, ball.radius, ball.center, seed=seed)
    q = np.ascontiguousarray(state[:, :n])
    p = np.ascontiguousarray(state[:, n:])
    reports = []
    clouds = []
    step = 0
    for t, target in zip(times, snap_steps):
        _advance(q, p, flow, target - step)
        step = target
        state = np.concatenate([q, p], axis=1)
        if not np.all(np.isfinite(state)):
            raise FlowDiverged(f"non-finite coordinate at t={t}", time=t)
        proj = state[:, [a, b]]
        area = grid_shadow_area(proj, grid_cell)
        reports.append(
            ShadowReport(
                plane=plane,
                area=area,
                bound=bound,
                satisfied=area >= bound * (1 - tolerance),
                method="grid-estimate",
                time=t,
            )
        )
        if collect_points:
            clouds.append(proj.copy())
    if collect_points:
        return reports, clouds
    return reports
