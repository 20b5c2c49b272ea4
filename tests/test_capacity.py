import itertools
import math
import sys

import numpy as np
import pytest

from sympcap import capacity
from sympcap.capacity import (
    Cylinder,
    bordeaux_bottle_fixture,
    capacity_ball,
    capacity_cylinder,
    capacity_ellipsoid,
    capacity_sandwich,
)
from sympcap.core import QuadraticHamiltonian, SymplecticMatrix, random_symplectic, williamson
from sympcap.errors import CertificateInvalid, NotPositiveDefinite
from sympcap.shadows import PlaneSelector

from oracles import (
    ball_volume,
    isotropic_hamiltonian,
    normal_mode_actions,
    random_pd_matrix,
    squeezing_map,
)


class TestBallCapacity:
    def test_unit_ball(self):
        assert capacity_ball(1.0, 3) == pytest.approx(math.pi, abs=0)

    def test_dimension_independence(self):
        assert capacity_ball(1.0, 1) == capacity_ball(1.0, 7)

    def test_scaling(self):
        assert capacity_ball(2.0, 1) == pytest.approx(4 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("R,error,message", [
        (math.nan, ValueError, "radius must be finite and positive, got nan"),
        (math.inf, ValueError, "radius must be finite and positive, got inf"),
        (1e200, OverflowError, "capacity inf is not finite"),
    ], ids=["nan", "inf", "1e+200"])
    def test_area_not_finite_raises(self, R, error, message):
        # once a NaN, or an infinite value without the `infinite` flag: a radius
        # that is not finite is refused by name, an area that overflows raises
        with pytest.raises(error, match=f"^{message}$"):
            capacity_ball(R, 2)


class TestBallVolume:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_volume_capacity_identity(self, N):
        R = 1.37
        lhs = ball_volume(R, N) * math.factorial(N)
        rhs = capacity_ball(R, N) ** N
        assert lhs == pytest.approx(rhs, rel=1e-12)


def nonconjugate_planes(N):
    """(N, plane) for every qq:i,j and pp:i,j with i < j, and qp:i,j with i != j."""
    planes = []
    for i, j in itertools.permutations(range(1, N + 1), 2):
        if i < j:
            planes += [PlaneSelector("q", i, "q", j), PlaneSelector("p", i, "p", j)]
        planes.append(PlaneSelector("q", i, "p", j))
    return [(N, plane) for plane in planes]


def sphere_points(count, dim, radius, seed=0):
    """Gaussian directions scaled to the sphere of `radius`: the boundary of B(radius)."""
    g = np.random.default_rng(seed).normal(size=(count, dim))
    return radius * g / np.linalg.norm(g, axis=1, keepdims=True)


class TestCylinderCapacity:
    def test_basic(self):
        Z = Cylinder(PlaneSelector.conjugate(1), 1.0, 3)
        assert capacity_cylinder(Z) == pytest.approx(math.pi)

    def test_blob_sized(self):
        Z = Cylinder(PlaneSelector.conjugate(2), math.sqrt(3.0), 2)
        assert capacity_cylinder(Z) == pytest.approx(3 * math.pi, rel=1e-15)

    def test_degenerate_disk(self):
        Z = Cylinder(PlaneSelector.conjugate(1), 1.0, 1)
        assert capacity_cylinder(Z) == pytest.approx(math.pi)

    @pytest.mark.parametrize("kind", ["foo", "", "QQ", "conjugate:1", None, 1])
    def test_unknown_plane_kind_is_bad_input(self, kind):
        # a plane spec, valid or not, is text for PlaneSelector.parse, not a plane
        with pytest.raises(ValueError, match="cylinder plane must be a PlaneSelector"):
            Cylinder(kind, 1.0, 3)

    @pytest.mark.parametrize("spec,a,b", [("qq:1,2", 0, 1), ("pp:1,2", 2, 3), ("qp:1,2", 0, 3),
                                          ("conjugate:2", 1, 3)])
    def test_contains_reads_the_plane(self, spec, a, b):
        # contains once tested q1^2 + p1^2 on every plane
        Z = Cylinder(PlaneSelector.parse(spec), 1.0, 2)
        inside, outside = np.full((2, 4), 5.0)  # far out on the other coordinates
        inside[[a, b]] = 0.6, 0.7
        outside[[a, b]] = 0.6, 0.9
        assert Z.contains(inside) and not Z.contains(outside)
        assert Z.contains(np.stack([inside, outside])).tolist() == [True, False]

    @pytest.mark.parametrize("ratio", [2.0, 10.0])
    @pytest.mark.parametrize("N,plane", nonconjugate_planes(2) + nonconjugate_planes(3),
                             ids=lambda x: x.label() if isinstance(x, PlaneSelector) else None)
    def test_squeezing_witness(self, N, plane, ratio):
        # B(r) with r = ratio R passes through a hole of radius R in this plane
        R = 0.5
        r = ratio * R
        S = SymplecticMatrix(squeezing_map(plane, N, ratio)).matrix  # certified
        a, b = plane.indices(N)
        block = (S @ S.T)[np.ix_([a, b], [a, b])]
        # S(B(r)) projects onto the ellipse of this block, whose widest radius is
        # r sqrt(lambda_max); it equals R here up to rounding
        assert r * r * np.linalg.eigvalsh(block).max() <= R * R * (1 + 1e-12)
        Z = Cylinder(plane, R, N)
        assert Z.contains(sphere_points(2000, 2 * N, r) @ S.T).all()
        assert capacity_cylinder(Z) == math.inf

    @pytest.mark.parametrize("ratio", [2.0, 10.0])
    @pytest.mark.parametrize("N,j", [(2, 1), (2, 2), (3, 1), (3, 3)])
    def test_conjugate_plane_not_squeezed(self, N, j, ratio):
        # the same construction on a conjugate plane keeps the shadow's area
        R = 0.5
        plane = PlaneSelector.conjugate(j)
        S = SymplecticMatrix(squeezing_map(plane, N, ratio)).matrix
        a, b = plane.indices(N)
        block = (S @ S.T)[np.ix_([a, b], [a, b])]
        assert np.linalg.det(block) >= 1 - 1e-12
        Z = Cylinder(plane, R, N)
        assert not Z.contains(sphere_points(2000, 2 * N, ratio * R) @ S.T).all()
        assert capacity_cylinder(Z) == math.pi * R * R


class TestEllipsoidCapacity:
    def test_isotropic(self):
        for m, w, E in [(1.0, 1.0, 1.0), (2.0, 3.0, 0.7), (0.5, 0.2, 5.0)]:
            H = isotropic_hamiltonian(2, w, m)
            assert capacity_ellipsoid(H, E) == pytest.approx(2 * math.pi * E / w, rel=1e-12)

    def test_unit_ball_region(self):
        assert capacity_ellipsoid(QuadraticHamiltonian(np.eye(4)), 0.5) == pytest.approx(
            math.pi, rel=1e-12)

    def test_two_frequencies_via_conjugation(self):
        # conjugate diag(1,3,1,3) by a random symplectic; w_max = 3 survives
        S = random_symplectic(2, 0.8, seed=21)
        M = S.matrix.T @ np.diag([1.0, 3.0, 1.0, 3.0]) @ S.matrix
        assert capacity_ellipsoid(QuadraticHamiltonian(M), 1.0) == pytest.approx(
            2 * math.pi / 3, rel=1e-8)

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            capacity_ellipsoid(QuadraticHamiltonian(np.diag([1.0, -2.0])), 1.0)

    def test_indefinite_shell_has_no_minimal_action(self):
        # an indefinite shell is no ellipsoid and has no minimal-action orbit,
        # so the capacity (the action of that orbit) is refused
        H = QuadraticHamiltonian(np.diag([1.0, 2.0, -1.0, 1.0]))
        with pytest.raises(NotPositiveDefinite):
            capacity_ellipsoid(H, 1.0)

    @pytest.mark.parametrize("E", [0.0, -1.0, math.nan, math.inf])
    def test_energy_refused_by_name(self, E):
        # checked before the spectrum, so a NaN energy is not "not finite"
        with pytest.raises(ValueError, match=f"energy must be finite and positive, got {E}"):
            capacity_ellipsoid(QuadraticHamiltonian(np.eye(2)), E)

    def test_spectrum_alone_matches_williamson(self):
        # w_max from eig(JM) instead of the normal form: the same to rounding
        rng = np.random.default_rng(42)
        for N in (1, 2, 3, 4):
            for _ in range(6):
                H = QuadraticHamiltonian(random_pd_matrix(rng, N))
                want = 2 * math.pi * 0.7 / williamson(H).omegas[0]
                got = capacity_ellipsoid(H, 0.7)
                assert got == pytest.approx(want, rel=32 * sys.float_info.epsilon, abs=0)

    def test_symplectic_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            N = int(rng.integers(1, 5))
            M = random_pd_matrix(rng, N)
            S = random_symplectic(N, 0.6, rng)
            c1 = capacity_ellipsoid(QuadraticHamiltonian(M), 1.0)
            Mc = S.matrix.T @ M @ S.matrix
            c2 = capacity_ellipsoid(QuadraticHamiltonian(Mc), 1.0)
            assert c2 == pytest.approx(c1, rel=1e-8)

    def test_monotone_in_region_inclusion(self):
        # M1 >= M2 at equal energy means region 1 sits inside region 2
        rng = np.random.default_rng(12)
        for _ in range(10):
            M2 = random_pd_matrix(rng, 2)
            G = rng.normal(size=(4, 4))
            M1 = M2 + G @ G.T
            c1 = capacity_ellipsoid(QuadraticHamiltonian(M1), 1.0)
            c2 = capacity_ellipsoid(QuadraticHamiltonian(M2), 1.0)
            assert c1 <= c2 * (1 + 1e-10)


class TestMinimalAction:
    """The ellipsoid capacity is the action of the fastest normal-mode orbit."""

    def test_isotropic(self):
        assert capacity_ellipsoid(isotropic_hamiltonian(3, 2.0), 1.5) == pytest.approx(
            2 * math.pi * 1.5 / 2.0, rel=1e-12)

    def test_unit_circle(self):
        assert capacity_ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.5) == pytest.approx(
            math.pi, rel=1e-12)

    def test_against_orbit_integration(self):
        # integrate both normal-mode orbits and trapezoid their circulation
        M = np.diag([1.0, 3.0, 1.0, 3.0])
        oracle_actions = normal_mode_actions(M, E=1.0)
        action = capacity_ellipsoid(QuadraticHamiltonian(M), 1.0)
        assert action == pytest.approx(min(oracle_actions), rel=1e-6)
        assert action == pytest.approx(2 * math.pi / 3, rel=1e-12)


class TestSandwich:
    @staticmethod
    def _ball_oracle(R=1.0):
        def oracle(z):
            return np.sum(z * z, axis=-1) <= R * R * (1 + 1e-12)
        return oracle

    @staticmethod
    def _box(R=1.0, N=2):
        return -R * np.ones(2 * N), R * np.ones(2 * N)

    def test_ball_is_its_own_sandwich(self):
        cap, report = capacity_sandwich(self._ball_oracle(), 1.0, self._box())
        assert cap == pytest.approx(math.pi, abs=0)
        assert report.region_hits > 0

    def test_oracle_rejecting_center_fails(self):
        def bad_oracle(z):
            z = np.asarray(z)
            r2 = np.sum(z * z, axis=-1)
            return (r2 <= 1.0) & (r2 >= 0.25)  # hollow: rejects inner points

        with pytest.raises(CertificateInvalid) as exc:
            capacity_sandwich(bad_oracle, 1.0, self._box())
        assert exc.value.witness is not None

    def test_region_escaping_cylinder_fails(self):
        def big_oracle(z):
            z = np.asarray(z)
            return np.sum(z * z, axis=-1) <= 4.0  # radius 2 > cylinder radius 1

        with pytest.raises(CertificateInvalid):
            capacity_sandwich(big_oracle, 1.0, self._box(R=2.0))


class TestBordeauxBottle:
    def test_reference_numbers(self):
        b = bordeaux_bottle_fixture(1.0, 0.5)
        assert b.capacity == math.pi * 1.0**2
        assert b.neck_loop_action == math.pi * 0.5**2
        assert b.neck_loop_action < b.capacity

    def test_scaled(self):
        b = bordeaux_bottle_fixture(2.0, 1.0)
        assert b.capacity == math.pi * 4.0
        assert b.neck_loop_action == math.pi

    def test_gap_closes_as_neck_widens(self):
        b = bordeaux_bottle_fixture(1.0, 1.0 - 1e-9)
        assert b.neck_loop_action == pytest.approx(math.pi, rel=1e-8)
        assert b.neck_loop_action < b.capacity

    def test_strict_gap_for_all_necks(self):
        for r in (0.1, 0.3, 0.7, 0.99):
            b = bordeaux_bottle_fixture(1.0, r)
            assert b.neck_loop_action < b.capacity

    def test_invalid_neck(self):
        with pytest.raises(ValueError, match="neck radius 1.0 must be smaller"):
            bordeaux_bottle_fixture(1.0, 1.0)

    @pytest.mark.parametrize("R,r", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5),
                                     (0.0, 0.5), (1.0, -0.5)])
    def test_radii_finite_and_positive(self, R, r):
        with pytest.raises(ValueError, match="^(radius|neck) must be finite and positive"):
            bordeaux_bottle_fixture(R, r)

    @pytest.mark.parametrize("R,r", [(1e-200, 1e-201), (1.0, 1e-170), (1e160, 1.0)])
    def test_areas_within_double_precision(self, R, r, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("points drawn for unrepresentable radii")

        # pi r^2 once rounded to 0: capacity 0.0, and the neck action not below it
        monkeypatch.setattr(capacity, "ball_points", draw)
        with pytest.raises(ValueError, match="areas beyond double precision"):
            bordeaux_bottle_fixture(R, r)

    def test_oracle_shape(self):
        b = bordeaux_bottle_fixture(1.0, 0.5)
        inside_ball = b.oracle(np.array([0.0, 0.0, 0.0, 0.0]))
        in_neck = b.oracle(np.array([0.0, 2.0, 0.0, 0.0]))
        outside = b.oracle(np.array([0.9, 2.0, 0.0, 0.0]))
        assert bool(inside_ball) and bool(in_neck) and not bool(outside)


class TestCapacitiesAreFloats:
    def test_every_capacity_is_a_float(self):
        # math.inf is the only infinity: no flag beside the value to disagree with it
        finite = [capacity_ball(1.0, 2),
                  capacity_cylinder(Cylinder(PlaneSelector.conjugate(1), 1.0, 2)),
                  capacity_ellipsoid(QuadraticHamiltonian(np.eye(2)), 1.0),
                  capacity_sandwich(TestSandwich._ball_oracle(), 1.0, TestSandwich._box())[0],
                  bordeaux_bottle_fixture(1.0, 0.5).capacity]
        infinite = capacity_cylinder(Cylinder(PlaneSelector.parse("qq:1,2"), 1e-200, 2))
        assert all(type(c) is float and math.isfinite(c) for c in finite)
        assert type(infinite) is float and infinite == math.inf
