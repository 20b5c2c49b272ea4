import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympcap import ebk
from sympcap.capacity import CapacityValue, capacity_ball, capacity_ellipsoid, EnergyShellRegion
from sympcap.core import QuadraticHamiltonian
from sympcap.ebk import (
    PlanckConfig,
    Potential1D,
    action_integral,
    basis_loops,
    blob_check,
    density_of_states,
    harmonic_potential,
    level_1d,
    loop_action,
    make_potential,
    morse_potential,
    quantize_quadratic,
    quartic_potential,
    spectrum_1d,
    spectrum_separable,
    turning_points,
)
from sympcap.errors import (
    MultiWell,
    NoClassicalRegion,
    NoConvergence,
    NotABlob,
    UnsupportedForClosedForm,
)
from sympcap.ebk import _crossings, _monotone_runs, _scan

from oracles import action_by_quad, morse_levels, quartic_levels, turning_points_oracle

CFG = PlanckConfig(1.0)


def _spoil_dV(pot, spoil):
    """A copy of `pot` whose dV returns spoil(dV(q))."""
    dV = pot.dV
    return dataclasses.replace(pot, dV=lambda q: spoil(dV(q)))


# (potential, energy, exact turning points)
CLOSED_FORMS = [
    (harmonic_potential(2.0, 1.5), 0.9, (-math.sqrt(0.3), math.sqrt(0.3))),
    (harmonic_potential(0.7), 3.1, (-math.sqrt(6.2) / 0.7, math.sqrt(6.2) / 0.7)),
    (morse_potential(10.0, 1.0), 4.0,
     (-math.log(1 + math.sqrt(0.4)), -math.log(1 - math.sqrt(0.4)))),
    (morse_potential(10.0, 1.0), 9.9,
     (-math.log(1 + math.sqrt(0.99)), -math.log(1 - math.sqrt(0.99)))),
    (quartic_potential(0.25), 1.0, (-math.sqrt(2.0), math.sqrt(2.0))),
    (quartic_potential(0.25), 7.0, (-28.0 ** 0.25, 28.0 ** 0.25)),
]
# A wrong dV sends Newton out of its cell or leaves it unsettled, so these roots
# must come from bisection on V alone. Morse at E = 9.9 is left out: there the
# rounded V equals E over 25 ulp, and bisection stops 12 ulp (1.1e-14) off.
SPOILED_DV = [
    pytest.param(_spoil_dV(pot, spoil), E, exact, id=f"{name}-{i}")
    for name, spoil in [("dV*1e-3", lambda d: 1e-3 * d), ("-dV", lambda d: -d),
                        ("nan-dV", lambda d: np.full(np.shape(d), np.nan))]
    for i, (pot, E, exact) in enumerate(CLOSED_FORMS) if i != 3
]

BENCH_POLY = {"kind": "polynomial", "coeffs": [0.0, 0.1, 0.5, 0.15, 0.12]}
# single wells of every kind, then a double well and a Morse tail that rounds flat to D
SCANNED = [
    harmonic_potential(0.7),
    morse_potential(10.0, 1.0),
    quartic_potential(0.25),
    make_potential(BENCH_POLY),
    Potential1D(V=lambda q: (np.square(q) - 1.0) ** 2, bracket=(-3, 3),
                dV=lambda q: 4.0 * q * (np.square(q) - 1.0)),
    morse_potential(10.0, 1.0, bracket=(5.0, 60.0)),
]


def _sign_changes(v, E):
    return np.nonzero(np.diff(np.signbit(v - E)))[0].tolist()


class TestBlobCheck:
    def test_ground_state_ball(self):
        # B(sqrt((2n+1) hbar)) has area pi (2n+1) hbar = (n + 1/2) h
        cap = capacity_ball(math.sqrt(1.0), 3)
        assert blob_check(cap, CFG) == 0

    def test_level_two_from_energy(self):
        cap = CapacityValue(2 * math.pi * 2.5)  # 2 pi E / w with E = 2.5 hbar w
        assert blob_check(cap, CFG) == 2

    def test_between_levels(self):
        assert blob_check(CapacityValue(0.9 * CFG.h), CFG, tol=0.05) is None

    def test_infinite_rejected(self):
        with pytest.raises(NotABlob):
            blob_check(CapacityValue.infinity(), CFG)


class TestQuantizeQuadratic:
    def test_single_mode_ground_state(self):
        for omega in (0.5, 1.0, 3.0):
            H = QuadraticHamiltonian.isotropic(1, omega)
            entry = quantize_quadratic(H, (0,), CFG)
            assert entry.energy == pytest.approx(0.5 * omega, rel=1e-12)

    def test_two_mode_example(self):
        H = QuadraticHamiltonian.from_frequencies([1.0, 3.0])
        entry = quantize_quadratic(H, (2, 0), CFG)
        # cross-check: exact two-mode oscillator formula (2.5)(1) + (0.5)(3)
        assert entry.energy == pytest.approx(4.0, rel=1e-12)
        assert entry.actions == pytest.approx((2.5 * CFG.h, 0.5 * CFG.h))
        assert entry.maslov_per_loop == (2, 2)

    def test_zero_point_sum(self):
        rng = np.random.default_rng(8)
        from oracles import random_pd_matrix
        from sympcap.core import williamson
        M = random_pd_matrix(rng, 3)
        H = QuadraticHamiltonian(M)
        entry = quantize_quadratic(H, (0, 0, 0), CFG)
        assert entry.energy == pytest.approx(0.5 * np.sum(williamson(H).omegas), rel=1e-10)


class TestTurningPoints:
    def test_harmonic_analytic(self):
        m, omega, E = 1.5, 2.0, 0.9
        pot = harmonic_potential(omega, m)
        qm, qp = turning_points(pot, E)
        q_star = math.sqrt(2 * E / (m * omega**2))
        assert qm == pytest.approx(-q_star, abs=1e-10)
        assert qp == pytest.approx(q_star, abs=1e-10)

    def test_morse_closed_form(self):
        D, a = 10.0, 1.0
        pot = morse_potential(D, a)
        E = 4.0
        qm, qp = turning_points(pot, E)
        s = math.sqrt(E / D)
        assert qm == pytest.approx(-math.log(1 + s) / a, abs=1e-10)
        assert qp == pytest.approx(-math.log(1 - s) / a, abs=1e-10)

    def test_quartic_analytic(self):
        pot = quartic_potential(0.25)
        qm, qp = turning_points(pot, 1.0)
        assert qp == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert qm == pytest.approx(-math.sqrt(2.0), abs=1e-10)

    def test_below_minimum(self):
        with pytest.raises(NoClassicalRegion):
            turning_points(harmonic_potential(1.0), -0.5)

    def test_double_well_refused_with_dV(self):
        pot = Potential1D(V=lambda q: (np.square(q) - 1.0) ** 2, bracket=(-3, 3),
                          dV=lambda q: 4.0 * q * (np.square(q) - 1.0))
        with pytest.raises(MultiWell):
            turning_points(pot, 0.5)

    @pytest.mark.parametrize("pot,E,exact", CLOSED_FORMS + SPOILED_DV)
    def test_closed_forms_to_rounding(self, pot, E, exact):
        qm, qp = turning_points(pot, E)
        assert qm == pytest.approx(exact[0], abs=1e-14)
        assert qp == pytest.approx(exact[1], abs=1e-14)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), k=st.integers(0, len(SCANNED) - 1), j=st.integers(0, 4095),
           at=st.sampled_from(["sample", "below", "above", "random"]))
    def test_run_lookup_matches_sign_scan(self, data, k, j, at):
        q, v, vmin, runs = _scan(SCANNED[k])
        E = {"sample": float(v[j]), "below": np.nextafter(v[j], -np.inf),
             "above": np.nextafter(v[j], np.inf)}.get(at)
        if E is None:
            E = data.draw(st.floats(vmin - 1.0, float(v.max()) + 1.0))
        assert _crossings(runs, float(E)).tolist() == _sign_changes(v, E)

    @settings(max_examples=400, deadline=None)
    @given(v=st.lists(st.integers(-3, 3), min_size=2, max_size=40),
           E=st.integers(-8, 8).map(lambda i: i / 2))
    def test_run_lookup_on_plateaus_and_wiggles(self, v, E):
        v = np.array(v, dtype=float)
        assert _crossings(_monotone_runs(v), E).tolist() == _sign_changes(v, E)

    @pytest.mark.parametrize("pot", SCANNED[:4], ids=["harmonic", "morse", "quartic", "poly"])
    def test_polish_matches_mask_oracle(self, pot, monkeypatch):
        # the scalar convergence and in-cell tests decide as the mask arrays do, so
        # roots and warm state are bit for bit the same: cold, along a warm chain of
        # 50 energies (1e-8 to 0.99 of the confinement energy, so some zoom), and at
        # every call of a spectrum solve
        u = np.random.default_rng(7).uniform(size=50)
        energies = (pot.confinement_energy() * 0.99 * 10.0 ** (-8 * u)).tolist()

        def both(p, E):
            warm = p._warm
            want = turning_points_oracle(p, E)
            want_warm, p._warm = p._warm, warm
            got = turning_points(p, E)
            assert got == want, E
            if warm is not None:
                assert [p._warm[0], *p._warm[1], *p._warm[2]] == \
                    [want_warm[0], *want_warm[1].tolist(), *want_warm[2].tolist()], E
            return got

        for E in energies:
            both(pot, E)
        pot._warm = ()
        try:
            for E in sorted(energies):
                both(pot, E)
        finally:
            pot._warm = None
        monkeypatch.setattr(ebk, "turning_points", both)
        assert spectrum_1d(pot, 10, CFG).entries

    @pytest.mark.parametrize("pot", SCANNED[:4], ids=["harmonic", "morse", "quartic", "poly"])
    def test_warm_start_agrees_with_cold(self, pot):
        # the polish starts from the last root moved by (E - E_prev) / dV, or from
        # the cell midpoint when that leaves the cell; both settle on one root
        for E0 in (0.3, 2.5, 9.0):
            for rel in (1e-1, 1e-4, 1e-8, 1e-12, 1e-15):
                E = E0 * (1 + rel)
                pot._warm = ()
                turning_points(pot, E0)
                warm = turning_points(pot, E)
                pot._warm = None
                cold = turning_points(pot, E)
                for w, c in zip(warm, cold):
                    assert abs(w - c) <= 4 * math.ulp(c), (E0, rel)


class TestActionIntegral:
    def test_harmonic_closed_form(self):
        for m, omega, E in [(1.0, 1.0, 1.0), (2.0, 0.7, 0.3), (0.5, 3.0, 4.0)]:
            pot = harmonic_potential(omega, m)
            assert action_integral(pot, E) == pytest.approx(2 * math.pi * E / omega, rel=1e-12)

    def test_linear_scaling_in_energy(self):
        pot = harmonic_potential(1.3)
        lam2 = 2.7
        assert action_integral(pot, lam2 * 0.9) == pytest.approx(
            lam2 * action_integral(pot, 0.9), rel=1e-12)

    def test_quartic_against_adaptive_quadrature(self):
        pot = quartic_potential(0.25)
        E = 1.0
        qm, qp = turning_points(pot, E)
        oracle = action_by_quad(lambda q: 0.25 * q**4, 1.0, E, qm, qp)
        assert action_integral(pot, E) == pytest.approx(oracle, rel=1e-8)

    def test_morse_against_adaptive_quadrature(self):
        D, a = 10.0, 1.0
        pot = morse_potential(D, a)
        E = 6.0
        qm, qp = turning_points(pot, E)
        oracle = action_by_quad(lambda q: D * (1 - math.exp(-a * q)) ** 2, 1.0, E, qm, qp)
        assert action_integral(pot, E) == pytest.approx(oracle, rel=1e-8)

    def test_invariant_under_canonical_rescaling(self):
        # (q, p) -> ((m w)^{-1/2} q, (m w)^{1/2} p) removes the mass, so the
        # harmonic loop action can depend on (E, w) only
        E = 1.7
        for m in (0.3, 1.0, 4.0):
            assert action_integral(harmonic_potential(2.0, m), E) == pytest.approx(
                2 * math.pi * E / 2.0, rel=1e-12)

    @pytest.mark.parametrize("E", [0.3, 5.0, 9.5])
    def test_period_is_dA_dE(self, E):
        # Morse, closed form: A = (2 pi / a) sqrt(2 m D) (1 - sqrt(1 - E/D))
        from sympcap.ebk import _action_period
        D, a, m = 10.0, 1.3, 0.8
        A, T = _action_period(morse_potential(D, a, m), E)
        u = math.sqrt(1.0 - E / D)
        assert A == pytest.approx(2 * math.pi / a * math.sqrt(2 * m * D) * (1 - u), rel=1e-12)
        assert T == pytest.approx(math.pi / a * math.sqrt(2 * m / D) / u, rel=1e-10)

    def test_monotone_in_energy(self):
        # the allowed region and the integrand both grow with E, so the solver
        # runs no monotonicity scan of its own
        for desc, e_lo, e_hi in [
            ({"kind": "quartic", "coeff": 0.25}, 0.05, 8.0),
            ({"kind": "morse", "D": 10.0, "a": 1.0}, 0.05, 9.999),
            # the benchmark's convex form b q + q^2/2 + c3 q^3 + c4 q^4
            ({"kind": "polynomial", "coeffs": [0.0, 0.1, 0.5, 0.15, 0.12]}, 0.0, 8.0),
        ]:
            pot = make_potential(desc)
            vals = [action_integral(pot, E) for E in np.linspace(e_lo, e_hi, 30)]
            assert np.all(np.diff(vals) > 0), desc


class TestSpectrum1D:
    def test_harmonic_levels_exact(self):
        for omega in (0.5, 1.0, 3.0):
            res = spectrum_1d(harmonic_potential(omega), 5, CFG)
            for n, entry in enumerate(res.entries):
                assert entry.energy == pytest.approx((n + 0.5) * omega, rel=1e-10)
                assert entry.maslov_per_loop == (2,)

    def test_morse_all_bound_levels(self):
        D, a, m = 10.0, 1.0, 1.0
        exact = morse_levels(D, a, m, CFG.hbar)
        res = spectrum_1d(morse_potential(D, a, m), 10, CFG)
        assert len(res.entries) == len(exact)
        for entry, E_exact in zip(res.entries, exact):
            assert entry.energy == pytest.approx(E_exact, abs=1e-8)
        # levels past dissociation reported as skipped, not mis-quantized
        assert [s["n"] for s in res.skipped] == list(range(len(exact), 11))

    def test_quartic_against_diagonalization(self):
        res = spectrum_1d(quartic_potential(0.25), 10, CFG)
        oracle = quartic_levels(0.25, 1.0, 1.0, nbasis=200)
        for n in range(3, 11):
            ebk_E = res.entries[n].energy
            assert abs(ebk_E - oracle[n]) / oracle[n] < 0.01

    def test_actions_are_quantized(self):
        res = spectrum_1d(quartic_potential(0.25), 6, CFG)
        for entry in res.entries:
            x = entry.actions[0] / CFG.h - 0.5
            assert abs(x - round(x)) < 1e-8

    def test_V_reassigned_after_solve(self):
        # the well scan is cached on the potential and must follow V
        pot = harmonic_potential(1.0)
        assert level_1d(pot, 0, CFG)[0] == pytest.approx(0.5, rel=1e-12)
        pot.V = lambda q: 2.0 * np.square(q)
        pot.dV = lambda q: 4.0 * np.asarray(q)
        assert level_1d(pot, 0, CFG)[0] == pytest.approx(1.0, rel=1e-12)
        assert spectrum_1d(pot, 1, CFG).entries[1].energy == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("desc", [
        {"kind": "quartic", "coeff": 0.25},
        {"kind": "morse", "D": 10.0, "a": 1.0},
        # the benchmark's convex form b q + q^2/2 + c3 q^3 + c4 q^4
        {"kind": "polynomial", "coeffs": [0.0, 0.1, 0.5, 0.15, 0.12]},
    ])
    def test_V_points_per_level(self, desc):
        # one well scan per potential, then a few Newton steps per level: a
        # solver that rescans V on every action evaluation needs ~150 000 a level
        pot = make_potential(desc)
        V, points = pot.V, []

        def counted(q):
            points.append(np.size(q))
            return V(q)

        pot.V = counted
        res = spectrum_1d(pot, 10, CFG)
        assert res.entries
        assert sum(points) <= 20_000 * len(res.entries)

    @pytest.mark.parametrize("desc,bound", [
        ({"kind": "quartic", "coeff": 0.25}, 12),
        ({"kind": "morse", "D": 10.0, "a": 1.0}, 16),
        (BENCH_POLY, 12),
    ])
    def test_newton_dV_calls_per_level(self, desc, bound):
        # each Newton step calls dV once on both roots (the well bottom's bisection
        # calls it on scalars). From cell midpoints the polish takes about 4 steps an
        # action evaluation, 17, 27 and 16 calls a level here; warm-started, 2 to 3
        pot = make_potential(desc)
        dV, calls = pot.dV, []
        pot.dV = lambda q: calls.append(np.ndim(q)) or dV(q)
        res = spectrum_1d(pot, 10, CFG)
        assert sum(calls) <= bound * len(res.entries)

    @pytest.mark.parametrize("desc,bound", [
        ({"kind": "harmonic", "omega": 1.0}, 2.0),
        ({"kind": "morse", "D": 10.0, "a": 1.0}, 3.2),
        ({"kind": "quartic", "coeff": 0.25}, 3.8),
        (BENCH_POLY, 3.5),
    ])
    def test_action_evaluations_per_level(self, desc, bound, monkeypatch):
        # levels n >= 1 start from a Hermite extrapolation of E(A), which lands at
        # rounding level for the harmonic (E linear in A) and Morse (quadratic) wells.
        # A Newton step from the level below takes 1.91, 5.0, 4.27 and 4.0 here
        action_period, calls = ebk._action_period, []

        def counted(p, E, *args):
            calls.append(E)
            return action_period(p, E, *args)

        monkeypatch.setattr(ebk, "_action_period", counted)
        res = spectrum_1d(make_potential(desc), 10, CFG)
        assert len(calls) <= bound * len(res.entries)

    def test_hermite_start_keeps_levels(self, monkeypatch):
        # with the Hermite start refused (NaN guess), every level is the one a plain
        # Newton start finds, to within the rounding plateau of A(E)
        for desc in ({"kind": "morse", "D": 10.0, "a": 1.0}, {"kind": "quartic"}, BENCH_POLY):
            with_start = spectrum_1d(make_potential(desc), 10, CFG).entries
            monkeypatch.setattr(ebk, "_hermite_start", lambda *args: math.nan)
            plain = spectrum_1d(make_potential(desc), 10, CFG).entries
            monkeypatch.undo()
            assert [e.quantum_numbers for e in with_start] == [e.quantum_numbers for e in plain]
            for a, b in zip(with_start, plain):
                assert a.energy == pytest.approx(b.energy, rel=16 * 2.2e-16)

    def test_evaluation_cap(self, monkeypatch):
        # the quartic ground state takes 6 evaluations from the well bottom
        monkeypatch.setattr(ebk, "_MAX_EVALUATIONS", 3)
        with pytest.raises(NoConvergence, match="not converged in 3 action evaluations"):
            level_1d(quartic_potential(0.25), 0, CFG)
        monkeypatch.setattr(ebk, "_MAX_EVALUATIONS", 6)
        assert level_1d(quartic_potential(0.25), 0, CFG)[1] == pytest.approx(0.5 * CFG.h)

    def test_bracket_top_evaluated_once(self, monkeypatch):
        # levels 4..10 lie past dissociation: each is refused at the top of the
        # bracket, whose action is computed for the first of them only
        pot = morse_potential(10.0, 1.0)
        e_cap = pot.confinement_energy()
        action_period, tops = ebk._action_period, []

        def counted(p, E, *args):
            tops.extend([E] if E > e_cap * (1 - 1e-11) else [])
            return action_period(p, E, *args)

        monkeypatch.setattr(ebk, "_action_period", counted)
        res = spectrum_1d(pot, 10, CFG)
        assert len(tops) == 1
        assert res.skipped == [
            {"n": n, "reason": f"action {(n + 0.5) * CFG.h} not reached below dissociation "
                               f"at E={e_cap}"} for n in range(4, 11)]


class TestSpectrumSeparable:
    def test_two_harmonic_zero_point(self):
        pots = [harmonic_potential(1.0), harmonic_potential(1.0)]
        entry = spectrum_separable(pots, (0, 0), CFG)
        assert entry.energy == pytest.approx(1.0, rel=1e-10)

    def test_harmonic_times_morse(self):
        D, a = 10.0, 1.0
        entry = spectrum_separable([harmonic_potential(2.0), morse_potential(D, a)], (1, 2), CFG)
        expected = 1.5 * 2.0 + morse_levels(D, a, 1.0, 1.0)[2]
        assert entry.energy == pytest.approx(expected, abs=1e-8)

    def test_matches_quantize_quadratic_on_block_diagonal(self):
        omegas = (0.7, 2.2)
        pots = [harmonic_potential(w) for w in omegas]
        n = (1, 3)
        sep = spectrum_separable(pots, n, CFG)
        quad = quantize_quadratic(QuadraticHamiltonian.from_frequencies(omegas), n, CFG)
        assert sep.energy == pytest.approx(quad.energy, rel=1e-10)

    def test_basis_loops(self):
        entry = spectrum_separable([harmonic_potential(1.0), harmonic_potential(2.0)], (1, 0), CFG)
        loops = basis_loops(entry)
        assert [l.nu for l in loops] == [(1, 0), (0, 1)]
        assert all(l.maslov == 2 for l in loops)


class TestLoopAction:
    def test_single_basis_loop(self):
        rec = loop_action([(3 + 0.5) * CFG.h], (1,), CFG)
        assert rec.ebk_integer == 3
        assert rec.maslov == 2

    def test_zero_winding(self):
        rec = loop_action([1.5 * CFG.h, 2.5 * CFG.h], (0, 0), CFG)
        assert rec.action == 0.0 and rec.maslov == 0 and rec.ebk_integer == 0

    def test_diagonal_loop(self):
        # nu = (1,1) on the (n1, n2) = (1, 2) torus: action 4h, maslov 4
        rec = loop_action([1.5 * CFG.h, 2.5 * CFG.h], (1, 1), CFG)
        assert rec.action == pytest.approx(4 * CFG.h, rel=1e-12)
        assert rec.maslov == 4
        assert rec.ebk_integer == 3

    def test_random_nonnegative_windings_give_integers(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            ns = rng.integers(0, 6, size=k)
            nus = rng.integers(0, 5, size=k)
            rec = loop_action([(n + 0.5) * CFG.h for n in ns], nus, CFG)
            assert rec.ebk_integer is not None and rec.ebk_integer >= 0

    def test_unquantized_actions_rejected(self):
        with pytest.raises(ValueError):
            loop_action([0.77 * CFG.h], (1,), CFG)


class TestDensityOfStates:
    def test_one_mode_constant(self):
        H = QuadraticHamiltonian.isotropic(1, 2.0)
        for E in (0.3, 1.0, 4.0):
            assert density_of_states(H, E, CFG) == pytest.approx(0.5, rel=1e-12)

    def test_three_mode_value(self):
        H = QuadraticHamiltonian.isotropic(3, 1.0)
        assert density_of_states(H, 2.0, CFG) == pytest.approx(2.0, rel=1e-12)

    def test_numeric_matches_analytic(self):
        H = QuadraticHamiltonian.isotropic(2, 1.0)
        g_num = density_of_states(H, 1.0, CFG, numerical=True)
        g_ana = density_of_states(H, 1.0, CFG)
        assert abs(g_num - g_ana) / g_ana <= 1e-6

    def test_anisotropic_closed_form_refused(self):
        H = QuadraticHamiltonian.from_frequencies([1.0, 2.0])
        with pytest.raises(UnsupportedForClosedForm):
            density_of_states(H, 1.0, CFG)
        # numerical route still works
        assert density_of_states(H, 1.0, CFG, numerical=True) > 0


class TestCrossModule:
    def test_capacity_matches_blob_area_at_quantized_energies(self):
        omega = 1.3
        H = QuadraticHamiltonian.isotropic(2, omega)
        for n in range(6):
            E_n = (n + 0.5) * CFG.hbar * omega
            cap = capacity_ellipsoid(EnergyShellRegion(H, E_n))
            assert cap.value == pytest.approx((n + 0.5) * CFG.h, rel=1e-10)
            assert blob_check(cap, CFG) == n


class TestPotentialFactory:
    def test_descriptors(self):
        for desc in ({"kind": "harmonic", "omega": 2.0},
                     {"kind": "morse", "D": 5.0, "a": 0.8},
                     {"kind": "quartic", "coeff": 0.1},
                     {"kind": "polynomial", "coeffs": [0.0, 0.0, 0.5]}):
            pot = make_potential(desc)
            E, action = level_1d(pot, 0, CFG)
            assert E > 0 and action == pytest.approx(0.5 * CFG.h, rel=1e-8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_potential({"kind": "coulomb"})

    @pytest.mark.parametrize("desc", [
        {"kind": "harmonic", "omega": 1.3, "mass": 2.5},
        {"kind": "morse", "D": 8.0, "a": 1.4, "mass": 0.7},
        {"kind": "quartic", "coeff": 0.3, "mass": 2.0},
        # the benchmark's convex form b q + q^2/2 + c3 q^3 + c4 q^4
        {"kind": "polynomial", "coeffs": [0.0, 0.1, 0.5, 0.15, 0.12], "mass": 1.5},
    ])
    def test_dV_matches_central_difference(self, desc):
        pot = make_potential(desc)
        q = np.random.default_rng(3).uniform(-1.5, 2.5, size=64)
        h = 1e-6
        fd = (pot.V(q + h) - pot.V(q - h)) / (2 * h)
        dV = pot.dV(q)
        assert np.max(np.abs(dV - fd)) <= 1e-7 * np.max(np.abs(dV))

    @pytest.mark.parametrize("coeffs", [BENCH_POLY["coeffs"], [0.0, 0.0, 0.5],
                                        [3.0], [1.5, -2.0, 0.25, 1e-3, -7.0, 0.5]])
    def test_polynomial_is_polyval_bitwise(self, coeffs):
        pot = make_potential({"kind": "polynomial", "coeffs": coeffs})
        polyval, polyder = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
        q = np.random.default_rng(5).uniform(-40.0, 40.0, size=257)
        for x in (q, q[:2], q[3], float(q[4]), -q):
            assert np.array_equal(pot.V(x), polyval(x, coeffs))
            assert np.array_equal(pot.dV(x), polyval(x, polyder(coeffs)))

    @pytest.mark.parametrize("coeff", [0.0, -1.0])
    def test_nonconfining_quartic_rejected(self, coeff):
        with pytest.raises(ValueError, match="not confining"):
            quartic_potential(coeff)

    def test_hbar_scaling(self):
        # harmonic levels scale linearly with hbar. At hbar = 1e-9 they sit
        # ~1e-4 below the scan's lowest sample, so the well bottom must come
        # from the sign change of dV, not from the scan
        pot = harmonic_potential(1.0)
        for hbar, rel in [(0.5, 1e-10), (1e-9, 1e-15)]:
            res = spectrum_1d(pot, 2, PlanckConfig(hbar=hbar))
            assert len(res.entries) == 3
            for n, entry in enumerate(res.entries):
                assert entry.energy == pytest.approx((n + 0.5) * hbar, rel=rel)
