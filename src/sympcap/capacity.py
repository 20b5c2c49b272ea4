"""Symplectic areas (Gromov widths) of balls, cylinders, ellipsoids and
sandwich-certified regions.

A cylinder over a conjugate plane (q_j, p_j) has capacity pi R^2: no ball
wider than its hole fits inside (Gromov, Invent. Math. 82, 307 (1985)).
Over any other coordinate plane its capacity is infinite: a diagonal linear
symplectic map shrinks both of the plane's coordinates, growing their
conjugate partners instead, and so takes any ball inside. Every capacity
is a float, and math.inf is the infinite one.

The capacity of a quadratic energy shell, 2 pi E / w_max
(`capacity_ellipsoid`), is also the action of its fastest normal-mode orbit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import QuadraticHamiltonian, _positive, symplectic_eigenvalues
from .errors import CertificateInvalid
from .sampling import ball_points, box_points
from .shadows import PlaneSelector

SANDWICH_SAMPLES = 10_000  # points of each sampled inclusion check
SANDWICH_SEED = 0  # of the inner-ball draw; the bounding-box draw uses SANDWICH_SEED + 1


def _area(value: float) -> float:
    """A finite analytic capacity. One that is not finite (from a NaN input,
    or an overflow such as pi R^2 at R = 1e200) raises OverflowError, as
    float arithmetic that overflows does, rather than passing for the
    infinite capacity of a nonconjugate cylinder."""
    if not math.isfinite(value):
        raise OverflowError(f"capacity {value} is not finite")
    return value


@dataclass(frozen=True)
class Cylinder:
    """x_a^2 + x_b^2 <= R^2 in 2 `dim` dimensions, with (x_a, x_b) the
    coordinate plane `plane`."""

    plane: PlaneSelector
    radius: float
    dim: int

    def __post_init__(self):
        if not isinstance(self.plane, PlaneSelector):
            raise ValueError(f"cylinder plane must be a PlaneSelector, got {self.plane!r}")
        _positive("radius", self.radius)
        self.plane.indices(self.dim)  # an index outside 1..dim raises

    def contains(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        a, b = self.plane.indices(self.dim)
        x, y = z[..., a], z[..., b]
        return x * x + y * y <= self.radius**2 * (1 + 1e-12)


def capacity_ball(R: float, N: int) -> float:
    """pi R^2, independent of the ambient dimension."""
    _positive("radius", R)
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    return _area(math.pi * R * R)


def capacity_cylinder(Z: Cylinder) -> float:
    """pi R^2 over a conjugate plane, regardless of N; math.inf over any
    other, for every radius. Over a conjugate plane a radius whose pi R^2
    overflows raises OverflowError.
    """
    # two distinct coordinates of one mode j are q_j and p_j
    if Z.plane.i != Z.plane.j:
        return math.inf
    return _area(math.pi * Z.radius * Z.radius)


def capacity_ellipsoid(H: QuadraticHamiltonian, E: float) -> float:
    """Capacity of the interior of the energy shell H(z) = E, E > 0: 2 pi E /
    w_max with w_max the largest symplectic eigenvalue, the smallest action of
    a closed orbit on the shell, the fastest normal mode's."""
    _positive("energy", E)
    w_max = float(symplectic_eigenvalues(H)[0])
    return _area(2.0 * math.pi * E / w_max)


@dataclass(frozen=True)
class CertificateReport:
    """Sample counts of a passed certificate; every sample passed its check."""

    inner_samples: int
    region_hits: int


def capacity_sandwich(oracle: Callable[[np.ndarray], np.ndarray], radius: float, box):
    """pi R^2 for any region pinched between B(R) and Z_1(R), both about the origin.

    `oracle` tests membership in the region and `box` = (lo, hi) encloses
    it in 2N dimensions. Both inclusions are validated on SANDWICH_SAMPLES
    quasi-random points, not proved; the first violation raises
    CertificateInvalid with a witness point. Returns (capacity,
    CertificateReport).
    """
    lo, hi = box
    outer = Cylinder(PlaneSelector.conjugate(1), radius, len(lo) // 2)
    pts = ball_points(SANDWICH_SAMPLES, len(lo), radius, seed=SANDWICH_SEED)
    inside = np.asarray(oracle(pts), dtype=bool)
    if not inside.all():
        w = pts[np.argmin(inside)]
        raise CertificateInvalid("inner-ball point rejected by the region oracle", witness=w)

    box_pts = box_points(SANDWICH_SAMPLES, lo, hi, seed=SANDWICH_SEED + 1)
    hits = np.asarray(oracle(box_pts), dtype=bool)
    region_pts = box_pts[hits]
    in_cyl = outer.contains(region_pts)
    if not np.all(in_cyl):
        w = region_pts[np.argmin(in_cyl)]
        raise CertificateInvalid("region point escapes the outer cylinder", witness=w)

    report = CertificateReport(inner_samples=SANDWICH_SAMPLES, region_hits=int(hits.sum()))
    return _area(math.pi * radius**2), report


@dataclass
class BordeauxBottle:
    """Nonconvex ball-plus-neck region whose neck orbit action undercuts
    its capacity, breaking the minimal-action formula for nonconvex sets.
    """

    oracle: Callable[[np.ndarray], np.ndarray]
    neck_loop_action: float
    capacity: float
    report: CertificateReport


def bordeaux_bottle_fixture(R: float, r: float) -> BordeauxBottle:
    """Ball B(R) at the origin plus a thin neck tube of radius r < R.

    The neck extends along q_2 from R to 3R, stays within radius r of the
    (q_1, p_1) axis, so the whole region sits inside Z_1(R) and contains
    B(R): capacity pi R^2 by the sandwich rule, while a loop around the
    neck has action pi r^2.
    """
    _positive("radius", R)
    _positive("neck", r)
    if r >= R:
        raise ValueError(f"neck radius {r} must be smaller than body radius {R}")
    # the areas pi r^2 < pi R^2 must be normal doubles, or they round to 0 or inf
    if not (sys.float_info.min <= math.pi * r * r and math.pi * R * R <= sys.float_info.max):
        raise ValueError(f"radii R={R}, r={r} have areas beyond double precision")

    def oracle(z):
        z = np.asarray(z, dtype=float)
        in_ball = np.sum(z * z, axis=-1) <= R * R * (1 + 1e-12)
        q1, q2, p1, p2 = z[..., 0], z[..., 1], z[..., 2], z[..., 3]  # N = 2
        in_neck = (
            (q1 * q1 + p1 * p1 <= r * r)
            & (q2 >= R)
            & (q2 <= 3 * R)
            & (np.abs(p2) <= r)
        )
        return in_ball | in_neck

    lo = np.array([-R, -R, -R, -R])
    hi = np.array([R, 3 * R, R, R])
    cap, report = capacity_sandwich(oracle, R, (lo, hi))
    return BordeauxBottle(oracle=oracle, neck_loop_action=math.pi * r * r, capacity=cap,
                          report=report)
