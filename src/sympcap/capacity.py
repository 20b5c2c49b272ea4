"""Symplectic areas (Gromov widths) of balls, cylinders, ellipsoids and
sandwich-certified regions, and the minimal-action characterization for
quadratic energy shells.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import QuadraticHamiltonian, symplectic_eigenvalues
from .errors import CertificateInvalid, InvalidNeck, UnsupportedRegion
from .sampling import ball_points, box_points


@dataclass(frozen=True)
class CapacityValue:
    """A symplectic area: a nonnegative number or an explicit infinity flag.

    `exact` distinguishes analytic values from numerical estimates.
    """

    value: float
    exact: bool = True
    infinite: bool = False

    def __post_init__(self):
        if not self.infinite and self.value < 0:
            raise ValueError(f"capacity must be nonnegative, got {self.value}")

    @classmethod
    def infinity(cls) -> "CapacityValue":
        return cls(value=math.inf, exact=True, infinite=True)

    def to_json(self) -> dict:
        return {"value": "inf" if self.infinite else self.value, "exact": self.exact}


@dataclass(frozen=True)
class Ball:
    """Round phase-space ball |z - center| <= radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class Cylinder:
    """q_j^2 + p_j^2 <= R^2 over the conjugate plane of mode j (1-based)."""

    axis_index: int
    radius: float
    dim: int
    plane_kind: str = "conjugate"

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not (1 <= self.axis_index <= self.dim):
            raise ValueError(f"axis index {self.axis_index} outside 1..{self.dim}")

    def contains(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        j = self.axis_index - 1
        q = z[..., j]
        p = z[..., self.dim + j]
        return q * q + p * p <= self.radius**2 * (1 + 1e-12)


@dataclass(frozen=True)
class EnergyShellRegion:
    """Interior of the quadratic energy shell H(z) = E."""

    hamiltonian: QuadraticHamiltonian
    energy: float

    def __post_init__(self):
        if self.energy <= 0:
            raise ValueError(f"energy must be positive, got {self.energy}")


@dataclass
class SandwichCertificate:
    """Witness that a region is pinched between a ball and a cylinder of
    equal radius; inclusions are validated by sampling, not proved.
    """

    inner: Ball
    outer: Cylinder
    membership_oracle: Callable[[np.ndarray], np.ndarray]
    bounding_box: tuple  # (lo, hi) arrays enclosing the region
    samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not math.isclose(self.inner.radius, self.outer.radius, rel_tol=1e-12):
            raise CertificateInvalid(
                f"inner radius {self.inner.radius} != outer radius {self.outer.radius}"
            )


def capacity_ball(R: float, N: int) -> CapacityValue:
    """pi R^2, independent of the ambient dimension."""
    if R <= 0 or N < 1:
        raise ValueError(f"need R > 0 and N >= 1, got R={R}, N={N}")
    return CapacityValue(value=math.pi * R * R, exact=True)


def volume_ball(R: float, N: int) -> float:
    """pi^N R^{2N} / N!  (Lebesgue volume of the 2N-ball)."""
    if R <= 0 or N < 1:
        raise ValueError(f"need R > 0 and N >= 1, got R={R}, N={N}")
    return math.pi**N * R ** (2 * N) / math.factorial(N)


def capacity_cylinder(Z: Cylinder) -> CapacityValue:
    """pi R^2 for a cylinder over a conjugate plane, regardless of N."""
    if Z.plane_kind != "conjugate":
        raise UnsupportedRegion(
            f"no capacity formula for a cylinder over a {Z.plane_kind} plane"
        )
    return CapacityValue(value=math.pi * Z.radius * Z.radius, exact=True)


def capacity_ellipsoid(region: EnergyShellRegion) -> CapacityValue:
    """2 pi E / w_max with w_max the largest symplectic eigenvalue."""
    w_max = float(symplectic_eigenvalues(region.hamiltonian)[0])
    return CapacityValue(value=2.0 * math.pi * region.energy / w_max, exact=True)


def minimal_action_quadratic(region: EnergyShellRegion):
    """Smallest closed-orbit action on the shell: the fastest normal mode.

    Returns (action, orbit_frequency); the action coincides with the
    ellipsoid capacity.
    """
    omega_max = float(symplectic_eigenvalues(region.hamiltonian)[0])
    return 2.0 * math.pi * region.energy / omega_max, omega_max


@dataclass(frozen=True)
class CertificateReport:
    """Sample counts of a passed certificate; every sample passed its check."""

    inner_samples: int
    region_hits: int


def capacity_sandwich(cert: SandwichCertificate):
    """pi R^2 for any region pinched between B(R) and Z_j(R).

    Validates both inclusions on quasi-random samples and raises
    CertificateInvalid with a witness point on the first violation.
    Returns (CapacityValue, CertificateReport).
    """
    dim = cert.inner.dim
    pts = ball_points(cert.samples, dim, cert.inner.radius, cert.inner.center, seed=cert.seed)
    inside = np.asarray(cert.membership_oracle(pts), dtype=bool)
    if not inside.all():
        w = pts[np.argmin(inside)]
        raise CertificateInvalid("inner-ball point rejected by the region oracle", witness=w)

    lo, hi = cert.bounding_box
    box = box_points(cert.samples, lo, hi, seed=cert.seed + 1)
    hits = np.asarray(cert.membership_oracle(box), dtype=bool)
    region_pts = box[hits]
    in_cyl = cert.outer.contains(region_pts)
    if not np.all(in_cyl):
        w = region_pts[np.argmin(in_cyl)]
        raise CertificateInvalid("region point escapes the outer cylinder", witness=w)

    report = CertificateReport(inner_samples=cert.samples, region_hits=int(hits.sum()))
    return CapacityValue(value=math.pi * cert.inner.radius**2, exact=True), report


@dataclass
class BordeauxBottle:
    """Nonconvex ball-plus-neck region whose neck orbit action undercuts
    its capacity, breaking the minimal-action formula for nonconvex sets.
    """

    oracle: Callable[[np.ndarray], np.ndarray]
    neck_loop_action: float
    capacity: CapacityValue
    report: CertificateReport
    body_radius: float
    neck_radius: float


def bordeaux_bottle_fixture(R: float, r: float) -> BordeauxBottle:
    """Ball B(R) at the origin plus a thin neck tube of radius r < R.

    The neck extends along q_2 from R to 3R, stays within radius r of the
    (q_1, p_1) axis, so the whole region sits inside Z_1(R) and contains
    B(R): capacity pi R^2 by the sandwich rule, while a loop around the
    neck has action pi r^2.
    """
    if not (0 < R < math.inf and 0 < r < math.inf):  # NaN too
        raise ValueError(f"radii must be finite and positive, got R={R}, r={r}")
    if r >= R:
        raise InvalidNeck(f"neck radius {r} must be smaller than body radius {R}")
    # the areas pi r^2 < pi R^2 must be normal doubles, or they round to 0 or inf
    if not (sys.float_info.min <= math.pi * r * r and math.pi * R * R <= sys.float_info.max):
        raise ValueError(f"radii R={R}, r={r} have areas beyond double precision")

    N = 2  # (q1, q2, p1, p2)

    def oracle(z):
        z = np.asarray(z, dtype=float)
        in_ball = np.sum(z * z, axis=-1) <= R * R * (1 + 1e-12)
        q1, q2, p1, p2 = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
        in_neck = (
            (q1 * q1 + p1 * p1 <= r * r)
            & (q2 >= R)
            & (q2 <= 3 * R)
            & (np.abs(p2) <= r)
        )
        return in_ball | in_neck

    lo = np.array([-R, -R, -R, -R])
    hi = np.array([R, 3 * R, R, R])
    cert = SandwichCertificate(
        inner=Ball(np.zeros(2 * N), R),
        outer=Cylinder(axis_index=1, radius=R, dim=N),
        membership_oracle=oracle,
        bounding_box=(lo, hi),
    )
    cap, report = capacity_sandwich(cert)
    return BordeauxBottle(
        oracle=oracle,
        neck_loop_action=math.pi * r * r,
        capacity=cap,
        report=report,
        body_radius=R,
        neck_radius=r,
    )
