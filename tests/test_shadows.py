import math

import numpy as np
import pytest

from sympcap.capacity import Ball
from sympcap.core import SymplecticMatrix, random_symplectic
from sympcap.errors import FlowDiverged, FlowError
from sympcap.shadows import (
    FlowSpec,
    PlaneSelector,
    _advance,
    evolve_ball_shadow,
    grid_shadow_area,
    linear_shadow_area,
    nonsqueeze_ensemble,
    verlet_step,
)

from oracles import ensemble_oracle, grid_area_oracle


def harmonic_flow(dt):
    return FlowSpec(
        grad_V=lambda q: q,
        grad_T=lambda p: p,
        V=lambda q: 0.5 * np.sum(np.square(q), axis=-1),
        T=lambda p: 0.5 * np.sum(np.square(p), axis=-1),
        dt=dt,
        n_modes=1,
    )


def quartic_flow(dt):
    return FlowSpec(
        grad_V=lambda q: q**3,
        grad_T=lambda p: p,
        V=lambda q: 0.25 * np.sum(q**4, axis=-1),
        T=lambda p: 0.5 * np.sum(np.square(p), axis=-1),
        dt=dt,
        n_modes=1,
    )


class TestPlaneSelector:
    def test_indices(self):
        assert PlaneSelector.conjugate(2).indices(3) == (1, 4)
        assert PlaneSelector.position_pair(1, 3).indices(3) == (0, 2)
        assert PlaneSelector.momentum_pair(1, 2).indices(3) == (3, 4)
        assert PlaneSelector.mixed(1, 2).indices(3) == (0, 4)

    def test_mixed_requires_distinct(self):
        with pytest.raises(ValueError):
            PlaneSelector.mixed(1, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            PlaneSelector.conjugate(4).indices(3)


class TestLinearShadow:
    def test_identity(self):
        S = SymplecticMatrix(np.eye(4))
        for plane in (PlaneSelector.conjugate(1), PlaneSelector.position_pair(1, 2),
                      PlaneSelector.momentum_pair(1, 2), PlaneSelector.mixed(1, 2)):
            rep = linear_shadow_area(S, 1.0, plane)
            assert rep.area == pytest.approx(math.pi, rel=1e-14)
            assert rep.satisfied
            assert rep.method == "exact-ellipse"

    def test_nonconjugate_plane_may_shrink(self):
        lam = 0.5
        S = SymplecticMatrix(np.diag([lam, lam, 1 / lam, 1 / lam]))
        rep = linear_shadow_area(S, 1.0, PlaneSelector.position_pair(1, 2))
        assert rep.area == pytest.approx(math.pi / 4, rel=1e-12)

    def test_same_map_conjugate_plane_holds(self):
        lam = 0.5
        S = SymplecticMatrix(np.diag([lam, lam, 1 / lam, 1 / lam]))
        rep = linear_shadow_area(S, 1.0, PlaneSelector.conjugate(1))
        assert rep.area == pytest.approx(math.pi, rel=1e-12)
        assert rep.satisfied

    def test_conjugate_bound_over_random_maps(self):
        for seed in range(30):
            S = random_symplectic(3, 1.0, seed)
            for j in (1, 2, 3):
                rep = linear_shadow_area(S, 1.3, PlaneSelector.conjugate(j))
                assert rep.area >= rep.bound * (1 - 1e-9)


class TestEnsemble:
    def test_conjugate_bound_and_nonconjugate_witness(self):
        summary = nonsqueeze_ensemble(2, 1000, sigma=1.0, seed=1)
        assert summary.min_conjugate_det >= 1 - 1e-9
        assert summary.min_nonconjugate_det < 1.0
        assert summary.nonconjugate_witness is not None
        assert summary.conjugate_bound_held

    def test_single_mode_det_exactly_one(self):
        summary = nonsqueeze_ensemble(1, 10, sigma=1.0, seed=3)
        # the only plane is the full phase plane: det SS^T = (det S)^2 = 1
        assert summary.min_conjugate_det == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_matches_member_by_member_oracle(self, N, sigma):
        """Same minima, witness member and witness plane, bit for bit; or,
        when a member fails its symplectic check, the same error."""
        def outcome(run):
            try:
                return run()
            except ValueError as exc:
                return str(exc)

        seed = 10 * N + int(sigma)
        want = outcome(lambda: ensemble_oracle(N, 150, sigma, seed))
        got = outcome(lambda: nonsqueeze_ensemble(N, 150, sigma, seed))
        if not isinstance(want, str):
            got = (got.min_conjugate_det, got.min_nonconjugate_det, got.nonconjugate_witness)
            # plain Python numbers, as the CLI's JSON output needs
            assert type(got[0]) is float and type(got[1]) is float
            assert N == 1 or (type(got[2]["member"]) is int and type(got[2]["det"]) is float)
        assert got == want

    def test_witness_is_first_of_tied_minima(self):
        # at sigma 1e-20 every member rounds to the identity, so all dets tie at 1
        summary = nonsqueeze_ensemble(3, 4, sigma=1e-20, seed=2)
        assert summary.nonconjugate_witness == {"member": 0, "plane": "q1q2", "det": 1.0}
        assert ensemble_oracle(3, 4, 1e-20, 2)[2] == summary.nonconjugate_witness

    def test_first_failing_member_reported(self):
        with pytest.raises(ValueError, match=r"symplectic defect 2\.605e-03 exceeds") as exc:
            nonsqueeze_ensemble(12, 5, sigma=4.0, seed=0)
        with pytest.raises(ValueError) as want:
            ensemble_oracle(12, 5, 4.0, 0)
        assert str(exc.value) == str(want.value)

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_ensemble_rejected(self, count):
        with pytest.raises(ValueError, match="count >= 1"):
            nonsqueeze_ensemble(2, count)


class TestVerlet:
    def test_free_particle_drift_is_exact(self):
        flow = FlowSpec(grad_V=lambda q: np.zeros_like(q), grad_T=lambda p: p,
                        dt=0.25, n_modes=1)
        z = verlet_step(np.array([1.0, 2.0]), flow)
        assert z == pytest.approx([1.5, 2.0], abs=0)

    def test_harmonic_period_returns_to_start(self):
        dt = 1e-3
        flow = harmonic_flow(dt)
        steps = round(2 * math.pi / dt)
        z = np.array([1.0, 0.0])
        for _ in range(steps):
            z = verlet_step(z, flow)
        # closed-form solution is a rotation; residual from dt and period rounding
        assert np.max(np.abs(z - [1.0, 0.0])) <= 1e-3

    def test_energy_drift_bounded(self):
        dt = 1e-3
        flow = harmonic_flow(dt)
        z = np.array([[1.0, 0.0]])
        e0 = float(flow.energy(z)[0])
        for _ in range(10_000):
            z = verlet_step(z, flow)
        e1 = float(flow.energy(z)[0])
        assert abs(e1 - e0) / e0 <= 1e-6

    def test_liouville_jacobian_determinant(self):
        flow = quartic_flow(0.01)
        rng = np.random.default_rng(5)
        for _ in range(5):
            z0 = rng.uniform(-1, 1, size=2)
            h = 1e-6
            Jm = np.empty((2, 2))
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                Jm[:, k] = (verlet_step(z0 + e, flow) - verlet_step(z0 - e, flow)) / (2 * h)
            assert np.linalg.det(Jm) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("make_flow", [harmonic_flow, quartic_flow])
    def test_fused_kernel_matches_single_steps(self, make_flow):
        flow = make_flow(0.01)
        z = np.random.default_rng(7).uniform(-1, 1, size=(50, 2))
        q, p = z[:, :1].copy(), z[:, 1:].copy()
        _advance(q, p, flow, 300)
        for _ in range(300):
            z = verlet_step(z, flow)
        assert np.max(np.abs(np.concatenate([q, p], axis=1) - z)) <= 1e-12

    def test_bad_gradient_rejected(self):
        with pytest.raises(FlowError):
            FlowSpec(grad_V=lambda q: 3 * q, grad_T=lambda p: p,
                     V=lambda q: 0.5 * np.sum(q * q, -1),
                     T=lambda p: 0.5 * np.sum(p * p, -1),
                     dt=0.1, n_modes=1)


class TestEvolveShadow:
    def test_initial_snapshot_all_planes(self):
        flow = FlowSpec(grad_V=lambda q: np.zeros_like(q), grad_T=lambda p: p,
                        dt=0.1, n_modes=2)
        ball = Ball(np.zeros(4), 1.0)
        for plane in (PlaneSelector.conjugate(1), PlaneSelector.position_pair(1, 2),
                      PlaneSelector.momentum_pair(1, 2), PlaneSelector.mixed(1, 2)):
            [rep] = evolve_ball_shadow(ball, flow, plane, 30_000, 0.08, [0.0])
            assert rep.area == pytest.approx(math.pi, rel=0.05)

    def test_harmonic_rotation_preserves_disk(self):
        flow = harmonic_flow(1e-2)
        ball = Ball(np.zeros(2), 1.0)
        reports = evolve_ball_shadow(ball, flow, PlaneSelector.conjugate(1),
                                     30_000, 0.04, [0.0, 1.0, 2.0, 5.0])
        for rep in reports:
            assert rep.area == pytest.approx(math.pi, rel=0.05)
            assert rep.satisfied

    def test_quartic_conjugate_shadow_keeps_bound(self):
        flow = quartic_flow(1e-3)
        ball = Ball(np.zeros(2), 1.0)
        reports = evolve_ball_shadow(ball, flow, PlaneSelector.conjugate(1),
                                     30_000, 0.04, [1.0, 2.0])
        for rep in reports:
            assert rep.area >= 0.95 * math.pi

    def test_grid_estimate_converges(self):
        flow = harmonic_flow(1e-2)
        ball = Ball(np.zeros(2), 1.0)
        [coarse] = evolve_ball_shadow(ball, flow, PlaneSelector.conjugate(1),
                                      30_000, 0.05, [1.0])
        [fine] = evolve_ball_shadow(ball, flow, PlaneSelector.conjugate(1),
                                    60_000, 0.025, [1.0])
        assert abs(fine.area - coarse.area) / coarse.area < 0.02

    def test_divergence_detected(self):
        # inverted quartic: trajectories escape to infinity fast
        flow = FlowSpec(grad_V=lambda q: -(q**3) * 50, grad_T=lambda p: p,
                        dt=0.5, n_modes=1)
        ball = Ball(np.zeros(2), 2.0)
        with pytest.raises(FlowDiverged), np.errstate(all="ignore"):
            evolve_ball_shadow(ball, flow, PlaneSelector.conjugate(1),
                               1000, 0.05, [50.0])

    def test_snapshot_must_align_with_dt(self):
        flow = harmonic_flow(1e-2)
        with pytest.raises(ValueError):
            evolve_ball_shadow(Ball(np.zeros(2), 1.0), flow,
                               PlaneSelector.conjugate(1), 100, 0.05, [0.0153])


def test_grid_area_of_known_square():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(200_000, 2))
    # cell-aligned square: the raw count is exact, no boundary cut to correct
    assert grid_shadow_area(pts, 0.05, perimeter_correction=False) == pytest.approx(1.0, rel=0.01)


def _filament(n):
    x = np.linspace(-3.0, 3.0, n)
    return np.column_stack([x, np.full(n, 0.0123)])


def _annulus(n):
    """Gaussian points outside radius 0.8: the hole has a boundary too."""
    pts = np.random.default_rng(5).normal(size=(n, 2))
    return pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.8]


@pytest.mark.parametrize("points,cell", [
    pytest.param(np.random.default_rng(3).normal(size=(5000, 2)) * 0.7 + [-7.3, -2.1], 0.05,
                 id="negative"),
    pytest.param(np.array([[-0.31, 4.2]]), 0.1, id="single-point"),
    pytest.param(_filament(4000), 0.05, id="filament"),
    pytest.param(np.array([[-1e9, 0.5], [1e9, 0.5], [1e9 + 0.07, 0.5]]), 0.05, id="far-apart"),
    pytest.param(_annulus(20000), 0.1, id="annulus"),
    pytest.param(np.random.default_rng(4).normal(size=(100_000, 2)), 0.05, id="gaussian-1e5"),
])
@pytest.mark.parametrize("perimeter_correction", [True, False])
def test_grid_area_matches_cell_set_oracle(points, cell, perimeter_correction):
    want = grid_area_oracle(points, cell, perimeter_correction)
    assert grid_shadow_area(points, cell, perimeter_correction) == want
