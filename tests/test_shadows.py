import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sympcap import cli, shadows
from sympcap.core import (
    DEFAULT_SYMPLECTIC_TOL,
    SymplecticMatrix,
    _random_symplectic_stack,
    random_symplectic,
)
from sympcap.ebk import (
    Potential,
    harmonic_potential,
    make_potential,
    morse_potential,
    polynomial_potential,
    quartic_potential,
)
from sympcap.errors import FlowDiverged, FlowError
from sympcap.sampling import _halton, _unit_ball, ball_points, box_points
from sympcap.shadows import (
    MAX_PARTICLE_STEPS,
    FlowSpec,
    PlaneSelector,
    _advance,
    _plane_dets,
    evolve_ball_shadow,
    grid_shadow_area,
    linear_shadow_area,
    nonsqueeze_ensemble,
)

from oracles import (
    advance_oracle,
    all_minors_oracle,
    ball_points_oracle,
    certify_oracle,
    energy_oracle,
    ensemble_oracle,
    exact_plane_det,
    grid_area_oracle,
    halton_oracle,
)


def _linear(q, scale, out):
    """The harmonic force scale q into out."""
    return np.multiply(q, scale, out=out)


def _cube(q, scale, out):
    """The quartic force scale q^3 into out, as scale q q q."""
    np.multiply(q, scale, out=out)
    out *= q
    out *= q
    return out


def harmonic_flow(dt):
    return FlowSpec(Potential(V=lambda q: 0.5 * np.sum(np.square(q), axis=-1), dV=_linear), dt)


def quartic_flow(dt):
    return FlowSpec(Potential(V=lambda q: 0.25 * np.sum(q**4, axis=-1), dV=_cube), dt)


def free_flow(dt, n_modes=1):
    return FlowSpec(Potential(V=lambda q: np.zeros(q.shape[:-1]),
                              dV=lambda q, scale, out: np.multiply(q, 0.0, out=out),
                              n_modes=n_modes), dt)


def cli_flow(pot, dt, mass=1.0):
    """The flow `evolve` builds from a 1-D potential, with the kernel's mass replaced."""
    return FlowSpec(dataclasses.replace(pot, mass=mass), dt)


def _read_only_cube(q, scale, out):
    g = scale * q**3
    g.flags.writeable = False
    return g


CLI_POTENTIALS = [
    pytest.param(harmonic_potential(1.1), id="harmonic"),
    pytest.param(quartic_potential(0.25), id="quartic"),
    pytest.param(polynomial_potential([0.0, 0.1, 0.5, 0.15, 0.12]), id="polynomial"),
    pytest.param(morse_potential(10.0, 0.5), id="morse"),
]


def _at_offset(a, offset):
    """A copy of `a` whose data starts `offset` bytes past a 64-byte boundary."""
    raw = np.empty(a.size + 16)
    start = (-raw.ctypes.data % 64 + offset) // 8
    out = raw[start:start + a.size].reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


def _advance_both(flow, counts, size=2000):
    """(kernel, oracle) states after advancing the same ball by each count in turn."""
    z = ball_points(size, 2, 1.0, seed=3)
    got = [z[:, :1].copy(), z[:, 1:].copy()]
    want = [a.copy() for a in got]
    for count in counts:
        _advance(*got, flow, count, np.empty_like(got[1]))
        advance_oracle(*want, flow, count)
    return np.concatenate(got, axis=1), np.concatenate(want, axis=1)


class TestPlaneSelector:
    def test_indices(self):
        assert PlaneSelector.conjugate(2).indices(3) == (1, 4)
        assert PlaneSelector("q", 1, "q", 3).indices(3) == (0, 2)
        assert PlaneSelector("p", 1, "p", 2).indices(3) == (3, 4)
        assert PlaneSelector("q", 1, "p", 2).indices(3) == (0, 4)

    def test_mixed_requires_distinct(self):
        with pytest.raises(ValueError):
            PlaneSelector.parse("qp:1,1")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            PlaneSelector.conjugate(4).indices(3)

    @pytest.mark.parametrize("spec,label", [("conjugate:2", "q2p2"), ("qq:1,3", "q1q3"),
                                            ("pp:3,1", "p3p1"), ("qp:1,2", "q1p2")])
    def test_parse(self, spec, label):
        assert PlaneSelector.parse(spec).label() == label

    @pytest.mark.parametrize("spec", ["conjugate", "conjugate:1,2", "qq:1", "qq:1,2,3", "xx:1,2",
                                      "qq:1,1", "pp:2,2", "conjugate:a", "qq:1,,2"])
    def test_parse_refuses(self, spec):
        # "conjugate:1,2" once parsed as conjugate:1, its second index unread
        with pytest.raises(ValueError):
            PlaneSelector.parse(spec)

    @pytest.mark.parametrize("coords", [("x", 1, "p", 2), ("q", 1, "q", 1), ("p", 2, "p", 2)])
    def test_constructor_refuses(self, coords):
        with pytest.raises(ValueError):
            PlaneSelector(*coords)


class TestLinearShadow:
    def test_identity(self):
        S = SymplecticMatrix(np.eye(4))
        for plane in (PlaneSelector.conjugate(1), PlaneSelector("q", 1, "q", 2),
                      PlaneSelector("p", 1, "p", 2), PlaneSelector("q", 1, "p", 2)):
            rep = linear_shadow_area(S, 1.0, plane)
            assert rep.area == pytest.approx(math.pi, rel=1e-14)
            assert rep.satisfied
            assert rep.method == "exact-ellipse"

    def test_nonconjugate_plane_may_shrink(self):
        lam = 0.5
        S = SymplecticMatrix(np.diag([lam, lam, 1 / lam, 1 / lam]))
        rep = linear_shadow_area(S, 1.0, PlaneSelector("q", 1, "q", 2))
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
        assert summary.nonconjugate_witness["det"] < 1.0
        assert summary.conjugate_bound_held

    def test_single_mode_det_exactly_one(self):
        summary = nonsqueeze_ensemble(1, 10, sigma=1.0, seed=3)
        # the only plane is the full phase plane: det SS^T = (det S)^2 = 1
        assert summary.min_conjugate_det == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_matches_member_by_member_oracle(self, N, sigma):
        """Minima within 1e-12 relative of the oracle's (measured: 391 eps, at
        N = 1, sigma = 2: its single draws take scipy's expm, the ensemble's
        stack the batched Pade), and the oracle's witness member and plane,
        carrying the minimum."""
        seed = 10 * N + int(sigma)
        want = ensemble_oracle(N, 150, sigma, seed)
        got = nonsqueeze_ensemble(N, 150, sigma, seed)
        # plain Python numbers, as the CLI's JSON output needs
        assert type(got.min_conjugate_det) is float
        assert abs(got.min_conjugate_det - want[0]) <= 1e-12 * want[0]
        if N == 1:
            assert got.nonconjugate_witness is None and want[2] is None
            return
        witness = got.nonconjugate_witness
        assert type(witness["member"]) is int and type(witness["det"]) is float
        assert abs(witness["det"] - want[1]) <= 1e-12 * want[1]
        assert (witness["member"], witness["plane"]) == (want[2]["member"], want[2]["plane"])

    # N >= 2 or sigma <= 4. At N = 1, sigma = 5 the float S itself is
    # symplectic only to about eps |S|^2, so its lone determinant has no
    # 1e-9 bound, and that cell is left out.
    @pytest.mark.parametrize("N,sigma", [(N, sigma) for N in (1, 2, 3, 4)
                                         for sigma in (1.0, 2.0, 3.0, 4.0, 5.0)
                                         if N >= 2 or sigma <= 4.0])
    def test_cauchy_binet_against_exact(self, N, sigma):
        """Every plane determinant within 1e-9 relative of the exact Gram
        determinant of the same float S."""
        planes = [PlaneSelector.conjugate(j) for j in range(1, N + 1)]
        planes += [PlaneSelector("q", i, "p", j) for i in range(1, N + 1)
                   for j in range(1, N + 1) if i != j]
        stack = np.stack([random_symplectic(N, sigma, seed).matrix for seed in range(4)])
        got = _plane_dets(stack, planes)
        assert got.shape == (4, len(planes))
        for k, S in enumerate(stack):
            # one S or a stack, alike up to the order of the final sum
            assert np.allclose(_plane_dets(S, planes), got[k], rtol=1e-15, atol=0)
            for p, plane in enumerate(planes):
                exact = exact_plane_det(S, *plane.indices(N))
                assert abs(Fraction(float(got[k, p])) - exact) <= Fraction(1e-9) * exact

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 10])
    @pytest.mark.parametrize("sigma", [1e-20, 1e-7, 1.0, 3.0, 5.0])
    @pytest.mark.parametrize("count", [1, 2, 150])
    def test_gram_search_prints_the_all_minors_bits(self, N, sigma, count):
        """The minimum, witness and verdict of the Gram search equal, bit for
        bit, those of every plane's minors on the same stack: ties (sigma 1e-20
        rounds every member to the identity), near-ties, lone candidates of a
        larger stack, and single members, which sum their minors pairwise."""
        seed = 100 * N + count
        stack = _random_symplectic_stack(N, count, sigma, np.random.default_rng(seed))
        got = nonsqueeze_ensemble(N, count, sigma, seed)
        want = all_minors_oracle(stack)
        assert (got.min_conjugate_det, got.nonconjugate_witness, got.conjugate_bound_held) == want

    # two certified draws of N = 2, sigma = 1e-7 (members 2751 and 2497 of a stack
    # of 20 000, seed 7): on conjugate plane 1 the second's minors det is 1 ulp
    # below the first's, while its Gram det G_11 G_33 - G_13^2 is above it, and
    # plane 2 is above both in both forms
    NEAR_TIE = [
        "0x1.fffffffda4724p-1 0x1.d6a381beb23bcp-26 -0x1.1c488b0631a2bp-24 -0x1.a7c746a6c9755p-26",
        "-0x1.30b3e27de5cf8p-25 0x1.ffffffcaef0c7p-1 -0x1.a7c73e513e331p-26 -0x1.80cb8603df038p-23",
        "0x1.cf1979785f5cdp-24 0x1.b6c5e94fa567ep-26 0x1.000000012dc46p+0 0x1.30b3de8c0e3cap-25",
        "0x1.b6c5ea4a1785bp-26 -0x1.bc99b6439f157p-24 -0x1.d6a380f8e865ep-26 0x1.0000001a887e9p+0",
        "0x1.0000024a968abp+0 0x1.69f220a954847p-25 0x1.6aee2617c2bd9p-23 -0x1.1635335698fa4p-26",
        "-0x1.5975d8f4117b4p-25 0x1.ffffff70e32a5p-1 -0x1.163532b97d633p-26 -0x1.ef6ba5af30cd4p-24",
        "0x1.c78bac38ea33dp-25 0x1.5750406737830p-27 0x1.fffffb6ad2f91p-1 0x1.5975d51b3141ap-25",
        "0x1.57503c1786f84p-27 0x1.02ae9671946d7p-25 -0x1.69f21d2413620p-25 0x1.000000478e697p+0",
    ]

    def test_near_tie_is_settled_by_the_minors(self, monkeypatch):
        stack = np.array([[float.fromhex(x) for x in row.split()] for row in self.NEAR_TIE])
        stack = stack.reshape(2, 4, 4)
        gram = stack @ np.swapaxes(stack, 1, 2)
        by_gram = gram[:, 0, 0] * gram[:, 2, 2] - gram[:, 0, 2] * gram[:, 0, 2]
        by_minors = _plane_dets(stack, [PlaneSelector.conjugate(1)])[:, 0]
        assert by_minors[1] == np.nextafter(by_minors[0], 0) and by_gram[0] < by_gram[1]
        monkeypatch.setattr(shadows, "_random_symplectic_stack", lambda *args: stack.copy())
        got = nonsqueeze_ensemble(2, 2, 1e-7, 0)
        assert got.min_conjugate_det == by_minors[1]
        want = all_minors_oracle(stack)
        assert (got.min_conjugate_det, got.nonconjugate_witness, got.conjugate_bound_held) == want

    def test_witness_is_first_of_tied_minima(self):
        # at sigma 1e-20 every member rounds to the identity, so all dets tie at 1
        summary = nonsqueeze_ensemble(3, 4, sigma=1e-20, seed=2)
        assert summary.nonconjugate_witness == {"member": 0, "plane": "q1q2", "det": 1.0}
        assert ensemble_oracle(3, 4, 1e-20, 2)[2] == summary.nonconjugate_witness

    def test_first_failing_member_reported(self, monkeypatch):
        draw = shadows._random_symplectic_stack

        def faulty(*args):  # members 2 and 4 scaled off symplectic
            stack = draw(*args)
            # |S|^T |J| |S| reaches 2e9 here, so a scaling by c, which moves
            # S^T J S - J by c^2 - 1, must be large to exceed 1e-10 of it
            stack[2] *= 2.0
            stack[4] *= 1.001
            faulty.stack = stack
            return stack

        monkeypatch.setattr(shadows, "_random_symplectic_stack", faulty)
        with pytest.raises(ValueError, match=r"symplectic defect \S+ exceeds") as exc:
            nonsqueeze_ensemble(12, 5, sigma=4.0, seed=0)
        assert certify_oracle(faulty.stack, DEFAULT_SYMPLECTIC_TOL) == (2, str(exc.value))

    def test_large_sigma_ensemble_certifies(self):
        # refused by an absolute defect bound before the rule scaled with |S|
        summary = nonsqueeze_ensemble(12, 5, sigma=4.0, seed=0)
        assert summary.conjugate_bound_held

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be finite and positive, got nan"):
            nonsqueeze_ensemble(2, 5, sigma=float("nan"))

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_ensemble_rejected(self, count):
        with pytest.raises(ValueError, match="count >= 1"):
            nonsqueeze_ensemble(2, count)


class TestVerlet:
    def test_free_particle_drift_is_exact(self):
        q, p = np.array([1.0]), np.array([2.0])
        _advance(q, p, free_flow(0.25), 1, np.empty_like(p))
        assert np.concatenate([q, p]) == pytest.approx([1.5, 2.0], abs=0)

    def test_harmonic_period_returns_to_start(self):
        dt = 1e-3
        flow = harmonic_flow(dt)
        steps = round(2 * math.pi / dt)
        q, p = np.array([1.0]), np.array([0.0])
        for _ in range(steps):
            _advance(q, p, flow, 1, np.empty_like(p))
        # closed-form solution is a rotation; residual from dt and period rounding
        assert np.max(np.abs(np.concatenate([q, p]) - [1.0, 0.0])) <= 1e-3

    def test_energy_drift_bounded(self):
        # H of a summed V and of the CLI's elementwise one-mode V
        for flow in (harmonic_flow(1e-3), cli_flow(harmonic_potential(1.0), 1e-3)):
            q, p = np.array([[1.0]]), np.array([[0.0]])
            e0 = float(energy_oracle(flow.potential, np.concatenate([q, p], axis=1))[0])
            for _ in range(10_000):
                _advance(q, p, flow, 1, np.empty_like(p))
            e1 = float(energy_oracle(flow.potential, np.concatenate([q, p], axis=1))[0])
            assert abs(e1 - e0) / e0 <= 1e-6

    def test_liouville_jacobian_determinant(self):
        flow = quartic_flow(0.01)

        def step(z):
            q, p = z[:1].copy(), z[1:].copy()
            _advance(q, p, flow, 1, np.empty_like(p))
            return np.concatenate([q, p])

        rng = np.random.default_rng(5)
        for _ in range(5):
            z0 = rng.uniform(-1, 1, size=2)
            h = 1e-6
            Jm = np.empty((2, 2))
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                Jm[:, k] = (step(z0 + e) - step(z0 - e)) / (2 * h)
            assert np.linalg.det(Jm) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("make_flow", [harmonic_flow, quartic_flow])
    def test_fused_kernel_matches_single_steps(self, make_flow):
        flow = make_flow(0.01)
        z = np.random.default_rng(7).uniform(-1, 1, size=(50, 2))
        q, p = z[:, :1].copy(), z[:, 1:].copy()
        q1, p1 = q.copy(), p.copy()
        _advance(q, p, flow, 300, np.empty_like(p))
        for _ in range(300):
            _advance(q1, p1, flow, 1, np.empty_like(p1))
        assert np.max(np.abs(np.concatenate([q - q1, p - p1], axis=1))) <= 1e-12

    @pytest.mark.parametrize("mass", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("pot", CLI_POTENTIALS)
    def test_in_place_kernel_with_mass(self, pot, mass):
        # the kernel carries (dt / mass) p and rounds it back at the end of a call, the
        # oracle drifts by dt * (p / mass): rounding apart, which 250 steps amplify. From
        # the unit ball they were at most 1.3e-14 of the largest coordinate apart (Morse
        # at mass 0.5, where |z| reaches 1.7; quartic 8.7e-15, the others below 3e-15)
        got, want = _advance_both(cli_flow(pot, 0.02, mass), (0, 1, 2, 250))
        assert np.max(np.abs(got - want)) <= 3e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("V,grad,message", [
        (lambda q: 0.5 * np.sum(q * q, -1), lambda q, scale, out: q, "dV ignores its out"),
        (lambda q: 0.25 * np.sum(q**4, -1), _read_only_cube, "dV ignores its out"),
        (lambda q: 0.5 * np.sum(q * q, -1), lambda q, scale, out: np.multiply(q, 1.0, out=out),
         "dV ignores its scale"),
        (lambda q: 0.25 * np.sum(q**4, -1), lambda q: q**3, "gradient evaluation failed"),
    ], ids=["own-argument", "read-only", "unscaled", "one-argument"])
    def test_in_place_kernel_gradient_aliasing(self, V, grad, message):
        # the kernel subtracts what the force writes into its one scratch buffer at the
        # kernel's scale, so a force that returns another array (its own argument, a fresh
        # read-only one), drops its scale, or takes q alone is refused when the flow is built
        with pytest.raises(FlowError, match=message):
            FlowSpec(Potential(V=V, dV=grad), dt=0.01)

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_gradient_checked_at_the_same_points_each_time(self, n_modes):
        # the check points are drawn once per n_modes and shared, read-only
        seen = []

        def force(q, scale, out):
            seen.append(q)
            return np.multiply(q, scale, out=out)

        for _ in range(2):
            FlowSpec(Potential(V=lambda q: 0.5 * np.sum(q * q, -1), dV=force, n_modes=n_modes),
                     dt=0.1)
        want = np.random.default_rng(1234).uniform(-1.0, 1.0, size=(5, n_modes))
        assert len(seen) == 4 and all(q is seen[0] for q in seen)
        assert not seen[0].flags.writeable and np.array_equal(seen[0], want)

    def test_mass_step_is_kick_drift_kick(self):
        # one step on the scaled momentum P = h p, h = dt / m, with s = dt h
        m, dt = 2.0, 0.05
        flow = FlowSpec(Potential(V=lambda q: 0.25 * np.sum(q**4, -1), dV=_cube, mass=m), dt)
        z = np.random.default_rng(3).uniform(-1, 1, size=(20, 2))
        q, p = z[:, :1], z[:, 1:]
        got = [q.copy(), p.copy()]
        _advance(*got, flow, 1, np.empty_like(got[1]))
        h = dt / m
        s = dt * h
        P = p * h
        P = P - q * (0.5 * s) * q * q
        q = q + P
        P = P - q * (0.5 * s) * q * q
        p = P / h
        assert np.array_equal(np.concatenate(got, axis=1), np.concatenate([q, p], axis=1))

    @pytest.mark.parametrize("mass", [1.0, 3.0])
    @pytest.mark.parametrize("pot", CLI_POTENTIALS[1:3])
    def test_time_reversal(self, pot, mass):
        # Verlet is symmetric: 250 steps, p -> -p, 250 steps and p -> -p again return to
        # the start, here to at most 2.6e-15 from the unit ball. Each leg is two calls, as
        # between evolve's snapshots: with full kicks at both ends each call is still
        # symmetric, but the two no longer commute, and that kernel missed by 1.2e-2 to 4.6e-2
        flow = cli_flow(pot, 0.02, mass)
        z = ball_points(2000, 2, 1.0, seed=3)
        q, p = z[:, :1].copy(), z[:, 1:].copy()
        for _ in range(2):
            _advance(q, p, flow, 1, np.empty_like(p))
            _advance(q, p, flow, 249, np.empty_like(p))
            np.negative(p, out=p)
        assert np.max(np.abs(np.concatenate([q, p], axis=1) - z)) <= 1e-14

    @pytest.mark.parametrize("dt,mass", [(2.0**-961, 1.0), (1e-200, 1e100), (1.0, 1e300)])
    def test_step_ratio_floor(self, dt, mass):
        # the kernel carries (dt / mass) p; below 2^-960 it would be subnormal and lose bits
        with pytest.raises(ValueError, match=r"dt / mass = .* is below 2\^-960"):
            FlowSpec(Potential(V=lambda q: 0.5 * np.sum(q * q, -1), dV=_linear, mass=mass), dt)
        FlowSpec(Potential(V=lambda q: 0.5 * np.sum(q * q, -1), dV=_linear), 2.0**-960)

    @pytest.mark.parametrize("m", [0.5, 3.0])
    def test_harmonic_period_with_mass(self, m):
        # V = m w^2 q^2 / 2 with kinetic p^2 / 2m has period 2 pi / w whatever m is
        omega, steps = 2.0, 4000
        flow = FlowSpec(Potential(
            V=lambda q: 0.5 * m * omega**2 * np.sum(q * q, -1),
            dV=lambda q, scale, out: np.multiply(q, scale * m * omega**2, out=out), mass=m),
            dt=2 * math.pi / omega / steps)
        q, p = np.array([[1.0]]), np.array([[0.0]])
        _advance(q, p, flow, steps, np.empty_like(p))
        # Verlet's phase error over a period is 2 pi (w dt)^2 / 24, 6.5e-7 here
        assert abs(q[0, 0] - 1.0) <= 1e-6
        assert abs(p[0, 0]) <= 1e-6 * m * omega

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.inf, math.nan])
    def test_mass_must_be_finite_and_positive(self, mass):
        with pytest.raises(ValueError, match="mass must be finite and positive"):
            FlowSpec(Potential(V=lambda q: 0.5 * np.sum(q * q, -1), dV=_linear, mass=mass), 0.1)

    def test_non_finite_force_is_named(self):
        # V is finite, the force inf: once "disagrees with finite differences", from
        # inf / inf
        with pytest.raises(FlowError, match="^dV is not finite at the gradient check "
                                            "points$"):
            FlowSpec(Potential(V=lambda q: 0.5 * np.sum(q * q, -1),
                               dV=lambda q, scale, out: np.multiply(q, scale * math.inf,
                                                                    out=out)), dt=0.1)

    def test_non_finite_V_is_named_before_the_force(self):
        # a correct force where V is NaN or inf was once blamed as disagreeing
        with pytest.raises(FlowError, match="^V is not finite at the gradient check points$"):
            FlowSpec(Potential(V=lambda q: np.where(np.abs(q[..., 0]) < 2, np.nan, 0.0),
                               dV=_linear), dt=0.1)
        with pytest.raises(FlowError, match="^V is not finite"):
            FlowSpec(make_potential({"kind": "morse", "D": 1e300, "a": 1e10}), 0.1)

    def test_bad_gradient_rejected(self):
        with pytest.raises(FlowError, match="disagrees with finite differences"):
            FlowSpec(Potential(V=lambda q: 0.5 * np.sum(q * q, -1),
                               dV=lambda q, scale, out: np.multiply(q, 3 * scale, out=out)),
                     dt=0.1)


class TestVerletWorkspace:
    def test_evolve_passes_aligned_state_and_one_scratch(self, monkeypatch):
        calls = []

        def spy(q, p, flow, count, buf):
            calls.append((q, p, buf))
            real(q, p, flow, count, buf)

        real = shadows._advance
        monkeypatch.setattr(shadows, "_advance", spy)
        evolve_ball_shadow(1.0, free_flow(0.1, n_modes=2), PlaneSelector.conjugate(2), 1001,
                           0.1, [0.0, 0.5, 1.0])
        assert len(calls) == 3
        for q, p, buf in calls:
            for a in (q, p, buf):
                assert a.shape == (1001, 2) and a.flags.c_contiguous
                assert a.ctypes.data % 64 == 0
            assert not (np.shares_memory(q, p) or np.shares_memory(q, buf)
                        or np.shares_memory(p, buf))
            assert all(x is y for x, y in zip(calls[0], (q, p, buf)))

    @pytest.mark.parametrize("pot", CLI_POTENTIALS)
    def test_bits_do_not_depend_on_alignment(self, pot):
        # numpy may take another loop for an unaligned head, so each offset runs
        # the same data through the kernel and must land on the same bits
        flow = cli_flow(pot, 0.02)
        z = ball_points(1001, 2, 1.0, seed=4)
        got = []
        for offsets in ((0, 0, 0), (16, 16, 16), (32, 32, 32), (48, 48, 48), (0, 16, 48)):
            q, p, buf = (_at_offset(a, k) for a, k in zip((z[:, :1], z[:, 1:], z[:, 1:]),
                                                        offsets))
            _advance(q, p, flow, 250, buf)
            got.append(np.concatenate([q, p], axis=1).tobytes())
        assert got[1:] == got[:1] * 4

    def test_dumped_clouds_keep_their_bits(self, tmp_path, capsys):
        # sha256 of the --dump-points clouds of a quartic run, as the kernel wrote
        # them before its workspace was aligned
        assert cli.run(["evolve", "--potential", "quartic", "coeff=0.25", "--times", "1,2,5",
                        "--dt", "0.02", "--samples", "5000", "--grid-cell", "0.1",
                        "--dump-points", str(tmp_path / "cloud")]) == 0
        capsys.readouterr()
        digests = {t: hashlib.sha256(tmp_path.joinpath(f"cloud_t{t}.csv").read_bytes()).hexdigest()
                   for t in (1, 2, 5)}
        assert digests == {
            1: "d5cbbef61f937b28aa1570a1a8d2d8228c0cc7a14f6dab4e5d88f82c080a4a6b",
            2: "ccab5d2c2f4bb8fd977d691bd95746da27e7651fa22bd3bd153ab92c21573137",
            5: "7370ea553ba4d96803e5a79cdb7dd252e9002bb23556dc97bc71c9aad7f40db3",
        }


class TestEvolveShadow:
    @pytest.mark.parametrize("desc", [
        {"kind": "harmonic", "omega": 1.3, "mass": 2.0}, {"kind": "morse", "D": 10.0, "a": 0.5},
        {"kind": "quartic"}, {"kind": "polynomial", "coeffs": [0, 0.1, 0.5, 0.15, 0.12]},
    ], ids=lambda desc: desc["kind"])
    def test_cli_flow_is_the_library_flow(self, monkeypatch, capsys, desc):
        # `evolve` flows the descriptor's potential itself, with no glue around V or mass
        clouds = []

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            clouds.append(result[1])
            return result

        real = shadows.evolve_ball_shadow
        monkeypatch.setattr(shadows, "evolve_ball_shadow", spy)
        assert cli.run(["evolve", "--potential", json.dumps(desc), "--radius", "0.8",
                        "--times", "0.5,1", "--dt", "0.05", "--samples", "500",
                        "--grid-cell", "0.1", "--seed", "2"]) == 0
        capsys.readouterr()
        _, want = real(0.8, FlowSpec(make_potential(desc), 0.05), PlaneSelector.conjugate(1),
                       500, 0.1, [0.5, 1.0], seed=2)
        [got] = clouds
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]

    def test_initial_snapshot_all_planes(self):
        flow = free_flow(0.1, n_modes=2)
        for plane in (PlaneSelector.conjugate(1), PlaneSelector("q", 1, "q", 2),
                      PlaneSelector("p", 1, "p", 2), PlaneSelector("q", 1, "p", 2)):
            [rep], _ = evolve_ball_shadow(1.0, flow, plane, 30_000, 0.08, [0.0])
            assert rep.area == pytest.approx(math.pi, rel=0.05)

    def test_harmonic_rotation_preserves_disk(self):
        flow = harmonic_flow(1e-2)
        reports, _ = evolve_ball_shadow(1.0, flow, PlaneSelector.conjugate(1),
                                     30_000, 0.04, [0.0, 1.0, 2.0, 5.0])
        for rep in reports:
            assert rep.area == pytest.approx(math.pi, rel=0.05)
            assert rep.satisfied

    def test_quartic_conjugate_shadow_keeps_bound(self):
        flow = quartic_flow(1e-3)
        reports, _ = evolve_ball_shadow(1.0, flow, PlaneSelector.conjugate(1),
                                     30_000, 0.04, [1.0, 2.0])
        for rep in reports:
            assert rep.area >= 0.95 * math.pi

    def test_grid_estimate_converges(self):
        flow = harmonic_flow(1e-2)
        [coarse], _ = evolve_ball_shadow(1.0, flow, PlaneSelector.conjugate(1),
                                      30_000, 0.05, [1.0])
        [fine], _ = evolve_ball_shadow(1.0, flow, PlaneSelector.conjugate(1),
                                    60_000, 0.025, [1.0])
        assert abs(fine.area - coarse.area) / coarse.area < 0.02

    def test_divergence_detected(self):
        # inverted quartic: trajectories escape to infinity fast
        flow = FlowSpec(Potential(V=lambda q: -12.5 * np.sum(q**4, -1),
                                  dV=lambda q, scale, out: _cube(q, -50 * scale, out)), dt=0.5)
        with pytest.raises(FlowDiverged), np.errstate(all="ignore"):
            evolve_ball_shadow(2.0, flow, PlaneSelector.conjugate(1),
                               1000, 0.05, [50.0])

    def test_divergence_detected_off_the_plane(self):
        # mode 1 is a harmonic oscillator and mode 2 an inverted quartic: only
        # mode 2 escapes, so a check of the plotted plane (q1, p1) alone would
        # pass a cloud whose other coordinates are no longer finite
        def force(q, scale, out):
            np.multiply(q[:, :1], scale, out=out[:, :1])
            _cube(q[:, 1:], -50 * scale, out[:, 1:])
            return out

        flow = FlowSpec(Potential(V=lambda q: 0.5 * q[..., 0] ** 2 - 12.5 * q[..., 1] ** 4,
                                  dV=force, n_modes=2), dt=0.5)
        state = ball_points(1000, 4, 2.0, seed=0)
        q, p = state[:, :2].copy(), state[:, 2:].copy()
        with np.errstate(all="ignore"):
            _advance(q, p, flow, 100, np.empty_like(p))
        assert np.isfinite(q[:, 0]).all() and np.isfinite(p[:, 0]).all()
        assert not np.isfinite(q[:, 1]).all()
        with pytest.raises(FlowDiverged), np.errstate(all="ignore"):
            evolve_ball_shadow(2.0, flow, PlaneSelector.conjugate(1), 1000, 0.05, [50.0])

    def test_snapshot_must_align_with_dt(self):
        flow = harmonic_flow(1e-2)
        with pytest.raises(ValueError):
            evolve_ball_shadow(1.0, flow,
                               PlaneSelector.conjugate(1), 100, 0.05, [0.0153])

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1e-3])
    def test_dt_must_be_finite_and_positive(self, dt):
        # an infinite dt once gave round(t / dt) = 0 steps: a cloud that never moved
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            harmonic_flow(dt)

    @pytest.mark.parametrize("samples,t", [(10, 1e12), (2, 1e9 + 1), (MAX_PARTICLE_STEPS + 1, 0.0)])
    def test_particle_steps_bounded(self, samples, t, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("points drawn for a run over the bound")

        # refused before any point is drawn or moved
        monkeypatch.setattr(shadows, "ball_points", draw)
        with pytest.raises(ValueError, match="particle-steps"):
            evolve_ball_shadow(1.0, harmonic_flow(1.0),
                               PlaneSelector.conjugate(1), samples, 0.05, [0.0, t])

    def test_negative_time_refused(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("points drawn for a run with a negative time")

        # a negative step count was once skipped, so t = 0 reported a moved cloud
        monkeypatch.setattr(shadows, "ball_points", draw)
        with pytest.raises(ValueError, match="snapshot time -1.0 is negative"):
            evolve_ball_shadow(1.0, harmonic_flow(0.01),
                               PlaneSelector.conjugate(1), 100, 0.05, [-1.0, 0.0])

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
    def test_radius_must_be_finite_and_positive(self, radius, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("points drawn for an invalid radius")

        # a NaN or infinite radius once drew a non-finite cloud: FlowDiverged, not bad input
        monkeypatch.setattr(shadows, "ball_points", draw)
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            evolve_ball_shadow(radius, harmonic_flow(0.01), PlaneSelector.conjugate(1),
                               100, 0.05, [0.0])

    @pytest.mark.parametrize("cell", [math.inf, math.nan, 0.0, -0.05])
    def test_grid_cell_must_be_finite_and_positive(self, cell):
        # an infinite cell once put the whole cloud in one cell: an infinite area
        with pytest.raises(ValueError, match="grid_cell must be finite and positive"):
            evolve_ball_shadow(1.0, harmonic_flow(0.01), PlaneSelector.conjugate(1),
                               100, cell, [0.0])

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_time_must_be_finite(self, t):
        with pytest.raises(ValueError, match=f"snapshot time {t} is not finite"):
            evolve_ball_shadow(1.0, harmonic_flow(0.01), PlaneSelector.conjugate(1),
                               100, 0.05, [0.0, t])

    def test_particle_step_bound_admits_readme_example(self):
        # evolve --times 1,2,5 --dt 0.001 --samples 100000
        assert 5 * 10**8 < MAX_PARTICLE_STEPS


def _filament(n):
    x = np.linspace(-3.0, 3.0, n)
    return np.column_stack([x, np.full(n, 0.0123)])


def _annulus(n):
    """Gaussian points outside radius 0.8: the hole has a boundary too."""
    pts = np.random.default_rng(5).normal(size=(n, 2))
    return pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.8]


def _box_cloud(n, width, height, cell=0.5):
    """n points at cell centres of a box of width x height cells, with both
    corner cells occupied, so its box with a one-cell margin holds
    (width + 2) (height + 2) cells."""
    idx = np.random.default_rng(9).integers(0, [width, height], size=(n, 2))
    idx[0], idx[1] = [0, 0], [width - 1, height - 1]
    return (idx + 0.5) * cell


_COMPACT = np.random.default_rng(10).normal(size=(5000, 2))
# 192 x 256 = 32 * 1024 + 2^14 cells: at the bitmap limit with 1024 points,
# 32 cells over it with 1023
_AT_LIMIT = _box_cloud(1024, 190, 254)
_OVER_LIMIT = _box_cloud(1023, 190, 254)


@pytest.mark.parametrize("points,cell", [
    pytest.param(np.random.default_rng(3).normal(size=(5000, 2)) * 0.7 + [-7.3, -2.1], 0.05,
                 id="negative"),
    pytest.param(np.array([[-0.31, 4.2]]), 0.1, id="single-point"),
    pytest.param(_filament(4000), 0.05, id="filament"),
    pytest.param(np.array([[-1e9, 0.5], [1e9, 0.5], [1e9 + 0.07, 0.5]]), 0.05, id="far-apart"),
    pytest.param(_annulus(20000), 0.1, id="annulus"),
    pytest.param(np.random.default_rng(4).normal(size=(100_000, 2)), 0.05, id="gaussian-1e5"),
    pytest.param(np.random.default_rng(6).normal(size=(3000, 4))[::2, 1:3], 0.05,
                 id="strided-view"),
    pytest.param(np.asfortranarray(np.random.default_rng(7).normal(size=(5000, 2))), 0.05,
                 id="fortran-ordered"),
    pytest.param(np.repeat(np.random.default_rng(8).uniform(-1, 1, size=(50, 2)), 100, axis=0),
                 0.05, id="heavy-duplicates"),
    pytest.param(np.vstack([_COMPACT, [[1e4, 0.0]]]), 0.05, id="compact-plus-outlier"),
    pytest.param(_AT_LIMIT, 0.5, id="bitmap-at-limit"),
    pytest.param(_OVER_LIMIT, 0.5, id="bitmap-over-limit"),
])
@pytest.mark.parametrize("reverse", [True, False])
def test_grid_area_matches_cell_set_oracle(points, cell, reverse):
    # the area is a function of the cell set: the order of the points, here
    # reversed through a negative-stride view, must not change a bit of it
    if reverse:
        points = points[::-1]
    assert grid_shadow_area(points, cell) == grid_area_oracle(points, cell)


@pytest.mark.parametrize("points,cell,bitmap", [
    pytest.param(_COMPACT, 0.05, True, id="compact"),
    pytest.param(np.vstack([_COMPACT, [[1e4, 0.0]]]), 0.05, False, id="compact-plus-outlier"),
    pytest.param(_AT_LIMIT, 0.5, True, id="at-limit"),
    pytest.param(_OVER_LIMIT, 0.5, False, id="over-limit"),
])
def test_grid_area_takes_bitmap_within_box_limit(monkeypatch, points, cell, bitmap):
    # the wide-cloud path is the only one that sorts
    assert 192 * 256 == shadows._BITMAP_CELLS_PER_POINT * 1024 + shadows._BITMAP_MIN_CELLS

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted")

    monkeypatch.setattr(np, "sort", no_sort)
    if bitmap:
        # a Python float, as the sort path gives: a numpy scalar would warn
        # where the cell's square overflows
        assert type(grid_shadow_area(points, cell)) is float
    else:
        with pytest.raises(AssertionError, match="sorted"):
            grid_shadow_area(points, cell)


@pytest.mark.parametrize("points", [
    pytest.param([[1e20, 0], [2e20, 0]], id="indices-beyond-int64"),
    pytest.param([[0, 0], [2e8, 2e8]], id="code-range-beyond-int64"),
    pytest.param([[0, 0], [np.nan, 0]], id="nan"),
    pytest.param([[0, 0], [0, -np.inf]], id="inf"),
])
def test_grid_area_refuses_cloud_beyond_int64_codes(points):
    # at cell 0.05 the second case spans 4e9 cells on each axis, so its
    # codes would run to 1.6e19 > 2^63
    with pytest.raises(ValueError, match="int64 grid"):
        grid_shadow_area(points, 0.05)


class TestHaltonMemo:
    def test_callers_get_their_own_points(self):
        for draw in (lambda: ball_points(300, 4, 2.0, seed=3),
                     lambda: box_points(300, [0.0, -1.0], [1.0, 2.0], seed=3)):
            first = draw()
            want = first.copy()
            first[:] = 7.0
            assert np.array_equal(draw(), want)

    def test_base_is_memoized_and_read_only(self):
        u = _halton(300, 5, 3)
        assert _halton(300, 5, 3) is u
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.5

    def test_points_match_a_fresh_draw(self):
        want = ball_points_oracle(300, 2, 1.5, 8)
        for _ in range(2):
            assert np.array_equal(ball_points(300, 2, 1.5, seed=8), want)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_ball_points_match_the_oracle_bit_for_bit(self, dim):
        # one memo entry serves every radius
        for radius in (1.0, 0.3, 2.5, 1e-3):
            want = ball_points_oracle(2000, dim, radius, 4)
            assert np.array_equal(ball_points(2000, dim, radius, seed=4), want)

    def test_unit_ball_entries_are_read_only(self):
        entry = _unit_ball(300, 4, 3)
        assert _unit_ball(300, 4, 3) is entry
        for a in entry:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5

    @pytest.mark.parametrize("seed", [np.random.default_rng(1), None, 1.5])
    def test_seed_must_be_an_integer(self, seed):
        # a memo would repeat a stream's points; refused on every call
        for _ in range(2):
            with pytest.raises(TypeError):
                box_points(50, [0.0], [1.0], seed=seed)
            with pytest.raises(TypeError):
                ball_points(50, 2, seed=seed)

    def test_float_seed_refused_after_its_integer_is_memoized(self):
        # 1.0 == 1 and hashes alike, so a memo keyed on the raw seed would
        # hand out the seed-1 points
        ball_points(50, 2, seed=1)
        box_points(50, [0.0], [1.0], seed=1)
        with pytest.raises(TypeError):
            ball_points(50, 2, seed=1.0)
        with pytest.raises(TypeError):
            box_points(50, [0.0], [1.0], seed=1.0)


class TestHaltonOracle:
    @pytest.mark.parametrize("dim, count, seed", [
        (2, 1000, 0), (3, 10_000, 5), (5, 100_000, 1), (7, 1234, 3), (4, 10_000, 1), (5, 10_000, 0),
    ])
    def test_bit_identical_to_scipy(self, dim, count, seed):
        u = _halton(count, dim, seed)
        assert np.array_equal(u, halton_oracle(count, dim, seed))
        assert u.flags.f_contiguous
        assert not u.flags.writeable

    @pytest.mark.parametrize("count, dim", [(5, 0), (0, 3), (1, 2)])
    def test_empty_and_single_point_shapes(self, count, dim):
        u = _halton(count, dim, 2)
        assert u.shape == (count, dim)
        assert np.array_equal(u, halton_oracle(count, dim, 2))

    @pytest.mark.parametrize("count, dim, seed", [(-1, 2, 0), (10, -1, 0), (10, 2, -1)])
    def test_negative_arguments_raise_value_error(self, count, dim, seed):
        with pytest.raises(ValueError):
            halton_oracle(count, dim, seed)
        with pytest.raises(ValueError):
            _halton(count, dim, seed)
