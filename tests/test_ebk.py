import dataclasses
import math
import re
import struct
import sys
import warnings

import numpy as np
import pytest

from sympcap import ebk
from sympcap.capacity import capacity_ball, capacity_ellipsoid
from sympcap.core import QuadraticHamiltonian
from sympcap.ebk import (
    Potential1D,
    blob_check,
    density_of_states,
    harmonic_potential,
    level_1d,
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
)
from sympcap.ebk import _action_period

from oracles import (
    action_by_quad,
    horner_oracle,
    morse_levels,
    polynomial_root_oracle,
    quartic_dV_oracle,
    quartic_levels,
    second_starts_oracle,
    turning_points_oracle,
)

HBAR = 1.0
PLANCK_H = 2 * math.pi * HBAR


@pytest.fixture
def solver_errstate():
    """The np.errstate under which the solver runs turning_points and _action_period."""
    with np.errstate(all="ignore"):
        yield


def _spoil_dV(pot, spoil):
    """A copy of `pot` whose dV returns spoil(dV(q))."""
    dV = pot.dV
    return dataclasses.replace(pot, dV=lambda q: spoil(dV(q)))


def _spoil_start(monkeypatch, factor):
    """Put every Taylor start at factor times its distance to the well bottom."""
    start = ebk._bottom_start
    monkeypatch.setattr(ebk, "_bottom_start",
                        lambda p, A: p.bottom[0] + factor * (start(p, A) - p.bottom[0]))


@pytest.fixture
def evaluations(monkeypatch):
    """The number of energies of each `_action_period` call, in order: a call is one
    round of a solve, or the top of the well."""
    action_period, sizes = ebk._action_period, []

    def counted(pot, E):
        sizes.append(np.size(E))
        return action_period(pot, E)

    monkeypatch.setattr(ebk, "_action_period", counted)
    return sizes


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
# The closed forms read no dV, so a wrong one leaves their turning points as they are
# (Morse at E = 9.9 is left out, as when these came from bisection on V)
SPOILED_DV = [
    pytest.param(_spoil_dV(pot, spoil), E, exact, id=f"{name}-{i}")
    for name, spoil in [("dV*1e-3", lambda d: 1e-3 * d), ("-dV", lambda d: -d),
                        ("nan-dV", lambda d: np.full(np.shape(d), np.nan))]
    for i, (pot, E, exact) in enumerate(CLOSED_FORMS) if i != 3
]

BENCH_POLY = {"kind": "polynomial", "coeffs": [0.0, 0.1, 0.5, 0.15, 0.12]}
DOUBLE_WELL = {"kind": "polynomial", "coeffs": [1.0, 0.0, -2.0, 0.0, 1.0]}  # (q^2 - 1)^2
# the single wells the solver-state tests run on
WELL_DESCS = [{"kind": "harmonic", "omega": 1.0}, {"kind": "morse", "D": 10.0, "a": 1.0},
              {"kind": "quartic", "coeff": 0.25}, BENCH_POLY]
WELL_IDS = ["harmonic", "morse", "quartic", "poly"]


class TestHbarArgument:
    @pytest.mark.parametrize("hbar,message", [
        (math.nan, "hbar must be finite and positive, got nan"),
        (0.0, "hbar must be finite and positive, got 0.0"),
        (-1.0, "hbar must be finite and positive, got -1.0"),
        (math.inf, "hbar must be finite and positive, got inf"),
    ])
    def test_hbar_finite_and_positive(self, hbar, message):
        # hbar is a plain float: each function that takes it refuses a bad one by name
        H, pot = QuadraticHamiltonian.isotropic(1, 1.0), harmonic_potential(1.0)
        for call in (lambda: blob_check(1.0, hbar), lambda: quantize_quadratic(H, (0,), hbar),
                     lambda: density_of_states(H, 1.0, hbar), lambda: level_1d(pot, 0, hbar),
                     lambda: spectrum_1d(pot, 0, hbar),
                     lambda: spectrum_separable([pot], (0,), hbar)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()


class TestBlobCheck:
    def test_ground_state_ball(self):
        # B(sqrt((2n+1) hbar)) has area pi (2n+1) hbar = (n + 1/2) h
        cap = capacity_ball(math.sqrt(1.0), 3)
        assert blob_check(cap, HBAR) == 0

    def test_level_two_from_energy(self):
        cap = 2 * math.pi * 2.5  # 2 pi E / w with E = 2.5 hbar w
        assert blob_check(cap, HBAR) == 2

    def test_between_levels(self):
        assert blob_check(0.9 * PLANCK_H, HBAR, tol=0.05) is None

    def test_infinite_rejected(self):
        with pytest.raises(NotABlob):
            blob_check(math.inf, HBAR)

    @pytest.mark.parametrize("value", [-1.0, math.nan, -math.inf])
    def test_capacity_nonnegative(self, value):
        # NaN once passed `value < 0` and reached round(); refused before tol is read
        with pytest.raises(ValueError, match=f"capacity must be nonnegative, got {value}"):
            blob_check(value, HBAR, tol=math.nan)

    @pytest.mark.parametrize("value,tol", [(1e308, 0.05), (1e20, 0.001), (1e17, 0.05),
                                           (40.0, 0.0)])
    def test_unresolvable_value_refused(self, value, tol):
        # |cap - (n + 1/2) h| once rounded to 0 here: 1e308 read as a blob
        # with a 308-digit index
        with pytest.raises(ValueError, match=r"double spacing .* coarser than the tolerance"):
            blob_check(value, HBAR, tol=tol)

    def test_resolution_edge(self):
        # ulp(2^40) = 2^-12 = 2.4e-4 is within 0.001 h = 6.3e-3; ulp(2^46) = 2^-6 is not
        assert blob_check(2.0**40, HBAR, tol=0.001) is None
        with pytest.raises(ValueError, match="double spacing"):
            blob_check(2.0**46, HBAR, tol=0.001)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_zero_tol_places_exact_rungs(self, n):
        assert blob_check((n + 0.5) * PLANCK_H, HBAR, tol=0.0) == n
        assert blob_check((n + 0.6) * PLANCK_H, HBAR, tol=0.0) is None

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
    def test_tol_nonnegative(self, tol):
        # a NaN or negative tol once matched no index and answered "no blob"
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            blob_check(PLANCK_H / 2, HBAR, tol=tol)


class TestQuantizeQuadratic:
    def test_single_mode_ground_state(self):
        for omega in (0.5, 1.0, 3.0):
            H = QuadraticHamiltonian.isotropic(1, omega)
            entry = quantize_quadratic(H, (0,), HBAR)
            assert entry.energy == pytest.approx(0.5 * omega, rel=1e-12)

    def test_two_mode_example(self):
        H = QuadraticHamiltonian(np.diag([1.0, 3.0, 1.0, 3.0]))
        entry = quantize_quadratic(H, (2, 0), HBAR)
        # cross-check: exact two-mode oscillator formula (2.5)(1) + (0.5)(3)
        assert entry.energy == pytest.approx(4.0, rel=1e-12)
        assert entry.actions == pytest.approx((2.5 * PLANCK_H, 0.5 * PLANCK_H))
        assert entry.maslov_per_loop == (2, 2)

    def test_zero_point_sum(self):
        rng = np.random.default_rng(8)
        from oracles import random_pd_matrix
        from sympcap.core import williamson
        M = random_pd_matrix(rng, 3)
        H = QuadraticHamiltonian(M)
        entry = quantize_quadratic(H, (0, 0, 0), HBAR)
        assert entry.energy == pytest.approx(0.5 * np.sum(williamson(H).omegas), rel=1e-10)


@pytest.mark.usefixtures("solver_errstate")
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
        with pytest.raises(MultiWell, match="4 turning points at E=0.5"):
            turning_points(make_potential(DOUBLE_WELL), 0.5)

    @pytest.mark.parametrize("pot,E,exact", CLOSED_FORMS + SPOILED_DV)
    def test_closed_forms_to_rounding(self, pot, E, exact):
        qm, qp = turning_points(pot, E)
        assert qm == pytest.approx(exact[0], abs=1e-14)
        assert qp == pytest.approx(exact[1], abs=1e-14)

    @pytest.mark.parametrize("desc,inside,gaps", [
        ({"kind": "harmonic", "omega": 0.7, "mass": 1.3}, 0.0, [1e-12, 1e-6, 0.01, 1.0, 1e3]),
        ({"kind": "morse", "D": 10.0, "a": 1.0}, 0.0, [1e-12, 1e-6, 0.01, 1.0, 5.0]),
        ({"kind": "quartic", "coeff": 0.25}, 0.0, [1e-12, 1e-6, 0.01, 1.0, 1e3]),
        # the bottom of BENCH_POLY lies near q = -0.1, at V = -0.005
        (BENCH_POLY, -0.1, [0.01, 0.1, 1.0, 10.0, 100.0]),
    ], ids=WELL_IDS)
    def test_matches_bracketing_oracle(self, desc, inside, gaps):
        # each kind's own inverse lands within 4 ulp of the sign change of the rounded
        # V - E that brentq finds outward from a point inside the well
        pot = make_potential(desc)
        for gap in gaps:
            E = pot.bottom[0] + gap
            got, want = turning_points(pot, E), turning_points_oracle(pot.V, E, inside)
            for g, w in zip(got, want):
                assert abs(g - w) <= 4 * math.ulp(w), (gap, got, want)


def _bits(values):
    """The IEEE bit patterns of a list of floats."""
    return [struct.pack("<d", v) for v in values]


def _numbers(values):
    """The values that are not NaN."""
    return [v for v in values if not math.isnan(v)]


def _convex_quartic(seed):
    """b q + q^2/2 + c3 q^3 + c4 q^4 with c3^2 < 4 c4 / 3, drawn as the benchmark's
    ebk-spectra workload draws its polynomial wells."""
    rng = np.random.default_rng(seed)
    c4, s3, b = rng.uniform(0.05, 0.2), rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)
    return [0.0, b, 0.5, s3 * math.sqrt(c4), c4]


CONVEX_QUARTICS = [_convex_quartic(seed) for seed in range(20)]
POLYVAL_COEFFS = [BENCH_POLY["coeffs"], [0.0, 0.0, 0.5], [3.0], [1.5, -2.0, 0.25, 1e-3, -7.0, 0.5]]
EPS = float(np.finfo(float).eps)


def _numpy_turning_points(coeffs, bracket, E):
    """The two real roots of V - E inside the bracket, by np.roots."""
    c = np.array(coeffs, dtype=float)
    c[0] -= E
    r = np.roots(c[::-1])
    r = np.sort(r[np.abs(r.imag) < 1e-12].real)
    return r[(bracket[0] < r) & (r < bracket[1])].tolist()


@pytest.mark.usefixtures("solver_errstate")
class TestPolynomialCrossing:
    """The safeguards of a polynomial's turning-point Newton, on inputs found by fuzzing."""

    @pytest.fixture
    def splits(self, monkeypatch):
        """'start' for each `_split` that replaced a start outside its piece, 'bisect'
        for each that replaced a failed Newton step (the loop's locals are bound)."""
        split, kinds = ebk._split, []

        def spy(a, b):
            kinds.append("bisect" if "older" in sys._getframe(1).f_locals else "start")
            return split(a, b)

        monkeypatch.setattr(ebk, "_split", spy)
        return kinds

    @pytest.mark.parametrize("coeffs,bracket,E,branch", [
        ([0.277, 1.209, -1.748, 0.245, 0.763], (-2.64, 1.96), 9.036530017270962, "start"),
        ([1.746, -0.312, 1.32, 0.681, -0.787, 0.35, 1.766], (-0.77, 2.58),
         2.4546510720697197, "bisect"),
    ], ids=["start-outside-piece", "bisection"])
    def test_safeguard_runs_and_finds_the_roots(self, splits, coeffs, bracket, E, branch):
        pot = ebk.polynomial_potential(coeffs, bracket=bracket)
        got = turning_points(pot, E)
        assert branch in splits
        want = _numpy_turning_points(coeffs, bracket, E)
        assert len(want) == 2
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))

    @pytest.mark.parametrize("coeffs,bracket,energies", [
        *[(coeffs, (-30.0, 30.0), None) for coeffs in CONVEX_QUARTICS],
        ([0.277, 1.209, -1.748, 0.245, 0.763], (-2.64, 1.96), [9.036530017270962]),
        ([1.746, -0.312, 1.32, 0.681, -0.787, 0.35, 1.766], (-0.77, 2.58),
         [2.4546510720697197]),
    ])
    def test_within_forward_error_bound(self, coeffs, bracket, energies):
        # each turning point within its forward error bound of the 50-digit root: the
        # rounding of V - E, 4 eps (sum |c_k q^k| + |E|), over |V'(q)|, plus 4 ULP of q.
        # They lie within 2.4 ULP here. Returning the last iterate q rather than its
        # Halley-corrected point misses by up to 2e8 ULP, a stop at 1e-9 |q| by 110
        pytest.importorskip("mpmath")
        pot = ebk.polynomial_potential(coeffs, bracket=bracket)
        if energies is None:  # from just above the bottom to past the benchmark's levels
            energies = (pot.bottom[0] + np.geomspace(1e-3, 12.0, 8)).tolist()
        lows, highs = turning_points(pot, np.array(energies))
        for E, low, high in zip(energies, np.atleast_1d(lows).tolist(),
                                np.atleast_1d(highs).tolist()):
            for q in (low, high):
                size = sum(abs(ck * q ** k) for k, ck in enumerate(coeffs)) + abs(E)
                slope = abs(sum(k * ck * q ** (k - 1) for k, ck in enumerate(coeffs) if k))
                bound = 4 * EPS * size / slope + 4 * math.ulp(q)
                assert float(abs(polynomial_root_oracle(coeffs, E, q) - q)) <= bound

    def test_newton_cap(self, monkeypatch):
        monkeypatch.setattr(ebk, "_MAX_NEWTON", 1)
        with pytest.raises(NoConvergence, match=r"^turning point at E=0.5 not converged in 1 "
                                                r"steps$"):
            turning_points(make_potential(BENCH_POLY), 0.5)


@pytest.mark.usefixtures("solver_errstate")
class TestActionIntegral:
    def test_harmonic_closed_form(self):
        for m, omega, E in [(1.0, 1.0, 1.0), (2.0, 0.7, 0.3), (0.5, 3.0, 4.0)]:
            pot = harmonic_potential(omega, m)
            assert _action_period(pot, E)[0] == pytest.approx(2 * math.pi * E / omega, rel=1e-12)

    def test_linear_scaling_in_energy(self):
        pot = harmonic_potential(1.3)
        lam2 = 2.7
        assert _action_period(pot, lam2 * 0.9)[0] == pytest.approx(
            lam2 * _action_period(pot, 0.9)[0], rel=1e-12)

    def test_quartic_against_adaptive_quadrature(self):
        pot = quartic_potential(0.25)
        E = 1.0
        qm, qp = turning_points(pot, E)
        oracle = action_by_quad(lambda q: 0.25 * q**4, 1.0, E, qm, qp)
        assert _action_period(pot, E)[0] == pytest.approx(oracle, rel=1e-8)

    def test_morse_against_adaptive_quadrature(self):
        D, a = 10.0, 1.0
        pot = morse_potential(D, a)
        E = 6.0
        qm, qp = turning_points(pot, E)
        oracle = action_by_quad(lambda q: D * (1 - math.exp(-a * q)) ** 2, 1.0, E, qm, qp)
        assert _action_period(pot, E)[0] == pytest.approx(oracle, rel=1e-8)

    def test_invariant_under_canonical_rescaling(self):
        # (q, p) -> ((m w)^{-1/2} q, (m w)^{1/2} p) removes the mass, so the
        # harmonic loop action can depend on (E, w) only
        E = 1.7
        for m in (0.3, 1.0, 4.0):
            assert _action_period(harmonic_potential(2.0, m), E)[0] == pytest.approx(
                2 * math.pi * E / 2.0, rel=1e-12)

    @pytest.mark.parametrize("E", [0.3, 5.0, 9.5])
    def test_period_is_dA_dE(self, E):
        # Morse, closed form: A = (2 pi / a) sqrt(2 m D) (1 - sqrt(1 - E/D))
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
            vals = [_action_period(pot, E)[0] for E in np.linspace(e_lo, e_hi, 30)]
            assert np.all(np.diff(vals) > 0), desc


class TestSpectrum1D:
    def test_harmonic_levels_exact(self):
        for omega in (0.5, 1.0, 3.0):
            res = spectrum_1d(harmonic_potential(omega), 5, HBAR)
            for n, entry in enumerate(res.entries):
                assert entry.energy == pytest.approx((n + 0.5) * omega, rel=1e-10)
                assert entry.maslov_per_loop == (2,)

    def test_morse_all_bound_levels(self):
        D, a, m = 10.0, 1.0, 1.0
        exact = morse_levels(D, a, m, HBAR)
        res = spectrum_1d(morse_potential(D, a, m), 10, HBAR)
        assert len(res.entries) == len(exact)
        for entry, E_exact in zip(res.entries, exact):
            assert entry.energy == pytest.approx(E_exact, abs=1e-8)
        # levels past dissociation reported as skipped, not mis-quantized
        assert [s["n"] for s in res.skipped] == list(range(len(exact), 11))

    def test_quartic_against_diagonalization(self):
        res = spectrum_1d(quartic_potential(0.25), 10, HBAR)
        oracle = quartic_levels(0.25, 1.0, 1.0, nbasis=200)
        for n in range(3, 11):
            ebk_E = res.entries[n].energy
            assert abs(ebk_E - oracle[n]) / oracle[n] < 0.01

    def test_actions_are_quantized(self):
        res = spectrum_1d(quartic_potential(0.25), 6, HBAR)
        for entry in res.entries:
            x = entry.actions[0] / PLANCK_H - 0.5
            assert abs(x - round(x)) < 1e-8

    def test_V_reassigned_after_solve(self):
        # each call reads the V, inverse and bottom it is given: nothing of an earlier
        # solve is kept
        pot = harmonic_potential(1.0)
        assert level_1d(pot, 0, HBAR)[0] == pytest.approx(0.5, rel=1e-12)
        other = harmonic_potential(2.0)
        pot.V, pot.inverse, pot.bottom = other.V, other.inverse, other.bottom
        assert level_1d(pot, 0, HBAR)[0] == pytest.approx(1.0, rel=1e-12)
        assert spectrum_1d(pot, 1, HBAR).entries[1].energy == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("desc", [
        {"kind": "quartic", "coeff": 0.25},
        {"kind": "morse", "D": 10.0, "a": 1.0},
        # the benchmark's convex form b q + q^2/2 + c3 q^3 + c4 q^4
        {"kind": "polynomial", "coeffs": [0.0, 0.1, 0.5, 0.15, 0.12]},
    ])
    def test_V_points_per_level(self, desc):
        # a few action evaluations of 256 nodes per level: a solver that
        # scanned V on every action evaluation needed ~150 000 a level
        pot = make_potential(desc)
        V, points = pot.V, []

        def counted(q):
            points.append(np.size(q))
            return V(q)

        pot.V = counted
        res = spectrum_1d(pot, 10, HBAR)
        assert res.entries
        assert sum(points) <= 20_000 * len(res.entries)

    @pytest.mark.parametrize("desc,bound", [
        ({"kind": "quartic", "coeff": 0.25}, 12),
        ({"kind": "morse", "D": 10.0, "a": 1.0}, 16),
        (BENCH_POLY, 12),
    ])
    def test_newton_dV_calls_per_level(self, desc, bound):
        # the solver calls no dV: the closed forms need none, and the polynomial's Newton
        # step takes V and V' from one Horner pass of its own. A polish from cells of a
        # well scan took 17, 27 and 16 calls a level here
        pot = make_potential(desc)
        dV, calls = pot.dV, []
        pot.dV = lambda q: calls.append(np.ndim(q)) or dV(q)
        res = spectrum_1d(pot, 10, HBAR)
        assert sum(calls) <= bound * len(res.entries)

    @pytest.mark.parametrize("desc,levels", [
        ({"kind": "morse", "D": 10.0, "a": math.sqrt(20.0) / 4.0}, 4),
        ({"kind": "quartic", "coeff": 0.25}, 7),
    ], ids=["morse", "quartic"])
    def test_dV_call_budgets(self, desc, levels, monkeypatch):
        # the turning points and the bottom are closed forms, so the solver calls no dV.
        # A bottom from regula falsi on dV took up to 10 scalar calls, and a Newton polish
        # 2.75 (Morse) and 2.64 (quartic) calls an action evaluation here
        pot = make_potential(desc)
        dV, calls = pot.dV, []
        pot.dV = lambda q: calls.append(np.ndim(q)) or dV(q)
        action_period, evaluations = ebk._action_period, []
        monkeypatch.setattr(ebk, "_action_period",
                            lambda pot, E: evaluations.append(E) or action_period(pot, E))
        res = spectrum_1d(pot, 6, HBAR)
        assert [e.quantum_numbers for e in res.entries] == [(n,) for n in range(levels)]
        assert evaluations and calls == []

    @pytest.mark.parametrize("omega", [1e6, 1e20, 1e100])
    def test_narrow_harmonic_makes_no_scalar_V_call(self, omega):
        # the well of any width is inverted in closed form: V is called on the quadrature
        # nodes only. Locating the bottom in the cells of a well scan once took 115, 635
        # and 2 331 scalar calls here
        pot = harmonic_potential(omega)
        V, scalar = pot.V, []
        pot.V = lambda q: scalar.append(np.ndim(q) == 0) or V(q)
        res = spectrum_1d(pot, 3, HBAR)
        assert scalar and not any(scalar)
        assert [e.energy for e in res.entries] == \
            [pytest.approx((n + 0.5) * omega, rel=1e-12) for n in range(4)]

    @pytest.mark.parametrize("desc,bound", [
        ({"kind": "harmonic", "omega": 1.0}, 1.0),
        ({"kind": "morse", "D": 10.0, "a": 1.0}, 1.25),
        ({"kind": "quartic", "coeff": 0.25}, 1.0),
        (BENCH_POLY, 3.0),
    ], ids=["desc0-2.0", "desc1-3.2", "desc2-3.8", "desc3-3.5"])  # ids of the old bounds, kept
    def test_action_evaluations_per_level(self, desc, bound, evaluations):
        # the energies evaluated per level, summed over a spectrum's rounds and the top of
        # its well: 1.0, 1.25, 1.0 and 2.91 here. The harmonic and quartic levels lie on
        # their Taylor start and the Morse levels on the quadratic through the bottom and
        # the top, and a polynomial level goes on from a second start after its first
        # evaluation. The scalar solver, one level at a time with Hermite starts from the
        # levels below, took 1.0, 2.75, 1.0 and 2.27
        res = spectrum_1d(make_potential(desc), 10, HBAR)
        assert sum(evaluations) <= bound * len(res.entries)

    @pytest.mark.parametrize("desc,calls", [
        ({"kind": "harmonic", "omega": 1.0}, 1),
        ({"kind": "morse", "D": 10.0, "a": 1.0}, 2),
        ({"kind": "quartic", "coeff": 0.25}, 1),
        (BENCH_POLY, 5),
    ], ids=WELL_IDS)
    def test_evaluations_per_level_tight(self, desc, calls, evaluations):
        # one action evaluation of the whole vector a round, and one for the top of a well
        # that has one: the harmonic and quartic spectra to nmax 10 take 1 round, the
        # Morse one the top and 1 round, and BENCH_POLY the top and 4 rounds
        spectrum_1d(make_potential(desc), 10, HBAR)
        assert len(evaluations) <= calls

    @pytest.mark.parametrize("desc,spoil,bound", [
        ({"kind": "morse", "D": 10.0, "a": 1.0}, 1.1, 9),
        (BENCH_POLY, 1.0, 32),
    ], ids=["morse", "poly"])
    def test_no_confirming_evaluation(self, desc, spoil, bound, evaluations, monkeypatch):
        # a Newton step whose predicted error is within the 4-ulp stop is taken without
        # evaluating the action again there: the spectrum to nmax 10 (Morse from starts
        # 10% high, which its exact start would not need) evaluates `bound` energies,
        # fewer than a solver that evaluates once more at a point whose step was already
        # under 4 ulp (13 and 42 here)
        _spoil_start(monkeypatch, spoil)
        pot, counts = make_potential(desc), []
        for settles in (ebk._newton_settles, lambda *args: False):
            monkeypatch.setattr(ebk, "_newton_settles", settles)
            evaluations.clear()
            for n, entry in enumerate(spectrum_1d(pot, 10, HBAR).entries):
                assert entry.actions[0] == pytest.approx((n + 0.5) * PLANCK_H, rel=1e-12)
            counts.append(sum(evaluations))
        assert counts[0] <= bound < counts[1]

    @staticmethod
    def _morse_error(D, a, m):
        """The largest relative distance of the Morse spectrum's levels to their closed
        form."""
        exact = morse_levels(D, a, m, HBAR)
        res = spectrum_1d(morse_potential(D, a, m), 10, HBAR)
        assert len(res.entries) == len(exact)
        return max(abs(e.energy - x) / x for e, x in zip(res.entries, exact))

    @pytest.mark.parametrize("D,a,m", [(10.0, 1.0, 1.0), (10.0, math.sqrt(20.0) / 3.7, 1.0),
                                       (8.0, 1.4, 0.7)])
    def test_morse_levels_to_rounding(self, D, a, m):
        # every bound Morse level within 1e-13 of the closed form, where the period
        # grows fastest too: at sqrt(2 m D) / (a hbar) = 3.7 level 3 lies 0.3% below
        # dissociation. The 1e-8 of the test above cannot tell a solver that stops short
        # of the level
        assert self._morse_error(D, a, m) < 1e-13

    def test_curvature_bound_is_needed(self, monkeypatch):
        # from starts 10% high, and by Newton steps alone (no second starts), the levels
        # still lie within 1e-13 of the closed form. Negative control: a stop that takes
        # every Newton step under 1e-3 relative, ignoring the curvature bound, misses it
        # (by 2.4e-6 here)
        _spoil_start(monkeypatch, 1.1)
        monkeypatch.setattr(ebk, "_second_starts", lambda E, A, T, t: [math.nan] * len(E))
        assert self._morse_error(10.0, 1.0, 1.0) < 1e-13
        monkeypatch.setattr(ebk, "_newton_settles",
                            lambda E, step, T, curvature, stop: abs(step) < 1e-3 * abs(E))
        assert self._morse_error(10.0, 1.0, 1.0) > 1e-10

    def test_companion_matrix_once_per_potential(self, monkeypatch):
        # the roots of V' cut the bracket into monotone pieces once; each turning point
        # is then a safeguarded Newton solve inside its piece, with no eigenproblem
        eigvals, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
        pot = make_potential(BENCH_POLY)
        assert spectrum_1d(pot, 10, HBAR).entries
        assert len(calls) == 1

    def test_second_start_keeps_levels(self, monkeypatch):
        # with the second starts refused (NaN), every level is the one Newton from its
        # first evaluation finds, to within the rounding plateau of A(E)
        for desc in ({"kind": "morse", "D": 10.0, "a": 1.0}, {"kind": "quartic"}, BENCH_POLY):
            with_start = spectrum_1d(make_potential(desc), 10, HBAR).entries
            monkeypatch.setattr(ebk, "_second_starts", lambda E, A, T, t: [math.nan] * len(E))
            plain = spectrum_1d(make_potential(desc), 10, HBAR).entries
            monkeypatch.undo()
            assert [e.quantum_numbers for e in with_start] == [e.quantum_numbers for e in plain]
            for a, b in zip(with_start, plain):
                assert a.energy == pytest.approx(b.energy, rel=16 * 2.2e-16)

    @pytest.mark.parametrize("desc", [{"kind": "quartic", "coeff": 0.25}, BENCH_POLY],
                             ids=["quartic", "poly"])
    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_start_decades_off(self, desc, factor, evaluations, monkeypatch):
        # a start 200 decades off the level is bisected in log(E - vmin), down from the
        # bottom 52 octaves below the start: linear bisection from the bottom took more
        # than 100 evaluations to come down 200 decades
        _spoil_start(monkeypatch, factor)
        level = level_1d(make_potential(desc), 0, HBAR)
        assert level[1] == pytest.approx(0.5 * PLANCK_H, rel=1e-12)
        assert len(evaluations) <= 40

    @pytest.mark.parametrize("coeffs,scale,k", [
        # 1e150 q^4 holds the well: the roots of V - E span 150 decades, and a zero
        # period here once raised ZeroDivisionError
        ([0.5, -0.25, 3e-8, 3e-8, 1e150], 1e150, 4),
        # q^2 + 1e-320 q^4: dividing by 1e-320 overflows the companion matrix unless its
        # q^4 term, whose roots lie near 1e160, is dropped
        ([0.0, 0.0, 1.0, 0.0, 1e-320], 1.0, 2),
    ], ids=["quartic-1e150", "harmonic-1e-320"])
    def test_coefficients_spanning_decades(self, coeffs, scale, k):
        # the levels of the term C q^k that holds the well, from its closed-form action
        b = math.gamma(1 + 1 / k) * math.gamma(1.5) / math.gamma(1.5 + 1 / k)
        res = spectrum_1d(make_potential({"kind": "polynomial", "coeffs": coeffs}), 2, HBAR)
        assert [e.energy for e in res.entries] == [
            pytest.approx(((n + 0.5) * PLANCK_H * scale ** (1 / k) / (4 * math.sqrt(2) * b))
                          ** (1 / (0.5 + 1 / k)), rel=1e-10) for n in range(3)]

    def test_well_with_no_top_grows(self, monkeypatch):
        # with no period to step by, a harmonic level started 8 decades low grows
        # E - vmin by 4 per evaluation until it passes the level, then bisects
        start = ebk._bottom_start
        monkeypatch.setattr(ebk, "_bottom_start", lambda p, A: 1e-8 * start(p, A))
        action_period, calls = ebk._action_period, []

        def no_period(p, E):  # a level alone is evaluated at a float
            calls.append(E)
            return action_period(p, E)[0], np.float64(math.inf)

        monkeypatch.setattr(ebk, "_action_period", no_period)
        assert level_1d(harmonic_potential(1.0), 0, HBAR)[0] == pytest.approx(0.5, rel=1e-12)
        assert calls[1:3] == [4.0 * calls[0], 16.0 * calls[0]]
        assert calls[0] == pytest.approx(5e-9)
        assert len(calls) < ebk._MAX_ROUNDS

    def test_evaluation_cap(self, monkeypatch):
        # the BENCH_POLY ground state alone takes 3 rounds after the top of its well
        # (a level alone has no second start)
        monkeypatch.setattr(ebk, "_MAX_ROUNDS", 2)
        with pytest.raises(NoConvergence, match=r"^action 3\.14159\S* not converged in 2 rounds"):
            level_1d(make_potential(BENCH_POLY), 0, HBAR)
        monkeypatch.setattr(ebk, "_MAX_ROUNDS", 3)
        assert level_1d(make_potential(BENCH_POLY), 0, HBAR)[1] == pytest.approx(0.5 * PLANCK_H)

    @pytest.mark.parametrize("lam", [3.7, 4.0, 4.3])
    def test_morse_start_above_dissociation(self, lam, monkeypatch):
        # at sqrt(2 m D) / (a hbar) = lam the harmonic start of levels 2 and 3 lies above
        # dissociation. The lower quadratic E(A) through the bottom, with the harmonic
        # slope, and the top is exact for Morse: the top and 1 round a level. Bisecting
        # down from 2^-52 of the top took 9 to 15 evaluations
        D = 10.0
        a = math.sqrt(2.0 * D) / (lam * HBAR)
        exact = morse_levels(D, a, 1.0, HBAR)
        action_period, calls = ebk._action_period, []
        monkeypatch.setattr(ebk, "_action_period",
                            lambda p, E: calls.append(E) or action_period(p, E))
        for n in (2, 3):
            calls.clear()
            assert level_1d(morse_potential(D, a), n, HBAR)[0] == pytest.approx(exact[n],
                                                                              rel=1e-13)
            assert len(calls) <= 3, n

    def test_bracket_top_evaluated_once(self, monkeypatch):
        # levels 4..10 lie past dissociation: each is refused at the top of the
        # well, whose action is computed once, before the solve
        pot = morse_potential(10.0, 1.0)
        e_cap = pot.top
        action_period, tops = ebk._action_period, []

        def counted(p, E, *args):
            tops.extend(e for e in np.ravel(E) if e > e_cap * (1 - 1e-11))
            return action_period(p, E, *args)

        monkeypatch.setattr(ebk, "_action_period", counted)
        res = spectrum_1d(pot, 10, HBAR)
        assert len(tops) == 1
        assert res.skipped == [
            {"n": n, "reason": f"action {(n + 0.5) * PLANCK_H} not reached below dissociation "
                               f"at E={e_cap}"} for n in range(4, 11)]

    @pytest.mark.parametrize("desc", WELL_DESCS, ids=WELL_IDS)
    def test_reentrant(self, desc, monkeypatch):
        # a solve and a turning-point lookup on the same potential, run from inside
        # each action evaluation of another solve, leave its levels bit for bit. The
        # starts are put 10% high, so that the spectrum takes several rounds in every
        # well (the harmonic and quartic spectra take 1 from the exact start): the inner
        # solves then interleave with unfinished levels
        _spoil_start(monkeypatch, 1.1)
        pot = make_potential(desc)
        plain = spectrum_1d(pot, 8, HBAR)
        action_period, state = ebk._action_period, {"nested": False, "outer": 0}

        def interrupting(p, E, *args):
            if not state["nested"]:
                state["nested"], state["outer"] = True, state["outer"] + 1
                spectrum_1d(pot, 1, HBAR)
                turning_points(pot, 0.5 * E)
                state["nested"] = False
            return action_period(p, E, *args)

        monkeypatch.setattr(ebk, "_action_period", interrupting)
        got = spectrum_1d(pot, 8, HBAR)
        assert state["outer"] > 1
        assert got.entries == plain.entries
        assert got.skipped == plain.skipped

    @staticmethod
    def _independence_gap(desc):
        """The largest distance, in ULP, of a level of the spectrum to nmax 10 to the same
        level solved alone."""
        pot = make_potential(desc)
        return max(abs(e.energy - level_1d(pot, e.quantum_numbers[0], HBAR)[0])
                   / math.ulp(e.energy) for e in spectrum_1d(pot, 10, HBAR).entries)

    @pytest.mark.parametrize("desc", WELL_DESCS, ids=WELL_IDS)
    def test_level_independent_of_others(self, desc):
        # each level keeps its own bracket and stops, so the levels solved with it move
        # it by rounding only: 0, 0, 0 and 2 ULP here (BENCH_POLY's levels alone take no
        # second start)
        assert self._independence_gap(desc) <= 4

    def test_frozen_level_breaks_independence(self, monkeypatch):
        # negative control: a solver that stops updating one level of a spectrum after
        # its first round reports that level's start, far off the level solved alone
        newton, made = ebk._newton, []

        def frozen(vmin, e_top, target, start):
            made.append(target)
            level = newton(vmin, e_top, target, start)
            if len(made) != 4:  # the fourth level of the spectrum, not a level alone
                return (yield from level)
            E = next(level)
            A, _, _ = yield E
            return E, A

        monkeypatch.setattr(ebk, "_newton", frozen)
        assert self._independence_gap(BENCH_POLY) > 1e6

    @pytest.mark.parametrize("desc", WELL_DESCS, ids=WELL_IDS)
    def test_turning_points_by_module_name(self, desc, monkeypatch):
        # the benchmark's tracer and these tests count turning-point lookups by
        # replacing ebk.turning_points, so every action evaluation must go through it
        counts = {"turning_points": 0, "_action_period": 0}
        for name in counts:
            def counted(*args, _fn=getattr(ebk, name), _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(ebk, name, counted)
        assert spectrum_1d(make_potential(desc), 10, HBAR).entries
        assert counts["turning_points"] == counts["_action_period"] > 0


class TestSecondStarts:
    @pytest.mark.parametrize("seed", range(48))
    def test_matches_numpy_bitwise(self, seed):
        # the plain-Python Hermite second starts against their numpy form, bit for bit, on
        # 2 to 12 levels: energies and actions rising, targets up to 30% off their actions
        # or on them; in turn an action repeated (with its level's energy and period, or
        # with another's), a period 0 and a period inf
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 13))
        E = np.sort(rng.uniform(0.1, 20.0, K)).tolist()
        A = np.sort(rng.uniform(0.5, 60.0, K)).tolist()
        T = rng.uniform(0.5, 8.0, K).tolist()
        targets = [a * (1.0 + rng.uniform(-0.3, 0.3)) if rng.random() < 0.8 else a for a in A]
        i, j = rng.choice(K, 2, replace=False).tolist()
        if seed % 4 == 1:
            A[j] = A[i]
            if seed % 8 == 1:
                E[j], T[j] = E[i], T[i]
        elif seed % 4 == 2:
            T[i] = 0.0
        elif seed % 4 == 3:
            T[i] = math.inf
        got, want = ebk._second_starts(E, A, T, targets), second_starts_oracle(E, A, T, targets)
        assert [math.isnan(g) for g in got] == [math.isnan(w) for w in want]
        assert _bits(_numbers(got)) == _bits(_numbers(want))

    @pytest.mark.parametrize("A,T", [
        ([2.0, 2.0, 3.0], [1.0, 1.0, 1.0]),  # equal actions below the target, h = 0
        ([1.0, 2.0, 2.0], [1.0, 1.0, 1.0]),  # and above it
        ([1.0, 2.0, 3.0], [0.0, 1.0, -0.0]),  # periods of 0, of either sign
        ([1.0, 2.0, 3.0], [math.inf, 1.0, 1.0]),
    ])
    @pytest.mark.parametrize("targets", [[0.5, 1.7, 3.5], [1.0, 2.0, 3.0], [0.5, 2.0, 3.0]])
    def test_degenerate_points_give_numpy_guesses(self, A, T, targets):
        # where two actions coincide or a period is 0, the guess is numpy's non-finite
        # one (or its finite one, where the interval does not touch them), not a
        # ZeroDivisionError
        got = ebk._second_starts([1.0, 1.5, 2.5], A, T, targets)
        want = second_starts_oracle([1.0, 1.5, 2.5], A, T, targets)
        assert [math.isnan(g) for g in got] == [math.isnan(w) for w in want]
        assert _bits(_numbers(got)) == _bits(_numbers(want))


def _closed_form(kind, params, hbar, n, mpmath):
    """The EBK level n of a harmonic, quartic or Morse well to the working precision of
    mpmath, from the double parameters taken exactly."""
    p = {key: mpmath.mpf(value) for key, value in params.items()}
    hbar, half = mpmath.mpf(hbar), n + mpmath.mpf(1) / 2
    if kind == "harmonic":
        return half * hbar * p["omega"]
    if kind == "quartic":  # (n + 1/2) h = 4 sqrt(2m) B c^(-1/4) E^(3/4)
        b = (mpmath.gamma(mpmath.mpf(5) / 4) * mpmath.gamma(mpmath.mpf(3) / 2)
             / mpmath.gamma(mpmath.mpf(7) / 4))
        return (half * 2 * mpmath.pi * hbar * p["coeff"] ** (mpmath.mpf(1) / 4)
                / (4 * mpmath.sqrt(2 * p["mass"]) * b)) ** (mpmath.mpf(4) / 3)
    x = hbar * p["a"] * mpmath.sqrt(2 * p["D"] / p["mass"]) * half
    return x - x * x / (4 * p["D"])


class TestClosedFormDigits:
    @pytest.mark.parametrize("kind,configs,bound", [
        ("harmonic", [({"omega": 1.0, "mass": 1.0}, 1.0), ({"omega": 1.3, "mass": 2.5}, 1.0),
                      ({"omega": 0.7, "mass": 1.0}, 0.9)], 3),
        ("quartic", [({"coeff": 0.25, "mass": 1.0}, 1.0), ({"coeff": 0.3, "mass": 2.0}, 1.0),
                     ({"coeff": 1.0, "mass": 1.0}, 0.8)], 6),
        ("morse", [({"D": 10.0, "a": 1.0, "mass": 1.0}, 1.0),
                   ({"D": 50.0, "a": 0.5, "mass": 1.0}, 1.0),
                   ({"D": 8.0, "a": 1.4, "mass": 0.7}, 1.0),
                   ({"D": 30.0, "a": 0.3, "mass": 1.0}, 0.8)], 3),
    ], ids=["harmonic", "quartic", "morse"])
    def test_levels_round_to_closed_form(self, kind, configs, bound):
        # every printed level n <= 12 within `bound` ULP of the double nearest its
        # 50-digit closed form. The scalar solver was off by up to 3 ULP (harmonic, at
        # omega 1.3 and mass 2.5), 5 (quartic) and 3 (Morse) here; these bounds keep it
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(50):
            for params, hbar in configs:
                res = spectrum_1d(make_potential({"kind": kind, **params}), 12, hbar)
                assert res.entries
                for e in res.entries:
                    exact = float(_closed_form(kind, params, hbar, e.quantum_numbers[0], mpmath))
                    worst = max(worst, abs(e.energy - exact) / math.ulp(exact))
        assert worst <= bound


class TestWarningHygiene:
    @pytest.mark.parametrize("desc,energies", [
        ({"kind": "harmonic", "omega": 1.0}, [1e-8, 0.5, 1000.0]),
        # p rounds to 0 at a quadrature node at 9.999999999, so T is infinite
        ({"kind": "morse", "D": 10.0, "a": 1.0}, [1e-8, 4.0, 9.999999999]),
        ({"kind": "quartic", "coeff": 0.25}, [1e-8, 1.0, 1e5]),
        (BENCH_POLY, [1e-8, 1.0, 1e4]),
    ], ids=WELL_IDS)
    def test_no_runtime_warning(self, desc, energies):
        # the solver holds one np.errstate for each level, under which its turning
        # points and actions run (finite at these extreme energies): no warning leaks
        pot = make_potential(desc)
        with np.errstate(all="ignore"):
            for E in energies:
                assert math.isfinite(_action_period(pot, E)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            level_1d(pot, 3, HBAR)
            assert spectrum_1d(pot, 12, HBAR).entries
        if desc["kind"] == "morse":
            with np.errstate(divide="ignore"):
                assert _action_period(pot, energies[-1])[1] == math.inf


class TestSpectrumSeparable:
    def test_two_harmonic_zero_point(self):
        pots = [harmonic_potential(1.0), harmonic_potential(1.0)]
        entry = spectrum_separable(pots, (0, 0), HBAR)
        assert entry.energy == pytest.approx(1.0, rel=1e-10)

    def test_harmonic_times_morse(self):
        D, a = 10.0, 1.0
        entry = spectrum_separable([harmonic_potential(2.0), morse_potential(D, a)], (1, 2), HBAR)
        expected = 1.5 * 2.0 + morse_levels(D, a, 1.0, 1.0)[2]
        assert entry.energy == pytest.approx(expected, abs=1e-8)

    def test_matches_quantize_quadratic_on_block_diagonal(self):
        omegas = (0.7, 2.2)
        pots = [harmonic_potential(w) for w in omegas]
        n = (1, 3)
        sep = spectrum_separable(pots, n, HBAR)
        quad = quantize_quadratic(QuadraticHamiltonian(np.diag(omegas + omegas)), n, HBAR)
        assert sep.energy == pytest.approx(quad.energy, rel=1e-10)


class TestDensityOfStates:
    def test_one_mode_constant(self):
        H = QuadraticHamiltonian.isotropic(1, 2.0)
        for E in (0.3, 1.0, 4.0):
            assert density_of_states(H, E, HBAR) == pytest.approx(0.5, rel=1e-12)

    def test_three_mode_value(self):
        H = QuadraticHamiltonian.isotropic(3, 1.0)
        assert density_of_states(H, 2.0, HBAR) == pytest.approx(2.0, rel=1e-12)

    def test_anisotropic_value(self):
        # E^(N-1) / ((N-1)! prod_j hbar w_j) at w = (1, 2), hbar = 1 and 0.5
        H = QuadraticHamiltonian(np.diag([1.0, 2.0, 1.0, 2.0]))
        assert density_of_states(H, 1.0, HBAR) == pytest.approx(0.5, rel=1e-12)
        assert density_of_states(H, 3.0, 0.5) == pytest.approx(6.0, rel=1e-12)

    def test_three_mode_anisotropic_matches_volume_derivative(self):
        # d/dE of the phase-space volume (2 pi E)^3 / (3! prod w_j) in cells h^3,
        # by a central difference of relative step 1e-4, which is off by step^2 / 3
        omegas = (0.7, 1.0, 1.3)
        H = QuadraticHamiltonian(np.diag(omegas * 2))
        hbar = 0.8

        def states(e):
            return (2 * math.pi * e) ** 3 / (6 * math.prod(omegas)) / (2 * math.pi * hbar) ** 3

        E, step = 2.0, 2e-4
        want = (states(E + step) - states(E - step)) / (2 * step)
        assert density_of_states(H, E, hbar) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("N,E,hbar,omega", [
        (172, 1.0, 1.0, 1.0), (172, 50.0, 0.7, 1.3), (200, 100.0, 1.0, 1.0),
        (200, 1e-3, 1e-5, 1.0), (50, 100.0, 1e-5, 1.0)])
    def test_beyond_the_double_range_of_its_factors(self, N, E, hbar, omega):
        # E^(N-1), (N-1)! (from N = 172) or (1 / hbar w)^N leaves the double range, so g
        # comes from logs, within the rounding of its log terms of the 30-digit value
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = float(mpmath.mpf(E) ** (N - 1) / mpmath.factorial(N - 1)
                         / (mpmath.mpf(hbar) * mpmath.mpf(omega)) ** N)
        logs = (N - 1) * abs(math.log(E)) + math.lgamma(N) + N * abs(math.log(hbar * omega))
        got = density_of_states(QuadraticHamiltonian.isotropic(N, omega), E, hbar)
        assert got == pytest.approx(want, rel=4 * EPS * logs + 2 * N * EPS)

    @pytest.mark.parametrize("E,hbar,omegas", [
        (1e300, 1e200, (1.0, 1.0)), (1e-200, 1e-101, (1.0,) * 3), (1e100, 1e100, (1e2,) * 4),
        (1e-160, 1.0, (1e-100,) * 3), (1e-100, 1.0, (1e150, 1.0))])
    def test_underflowing_factor_takes_logs(self, E, hbar, omegas):
        # (1 / hbar w_1)^N, E^(N-1) or their product falls below the normal doubles,
        # where the closed form gave 0 or a g short of its bits; the logs of the
        # mantissas, with the powers of 2 summed exactly, keep g within a few ulp
        mpmath = pytest.importorskip("mpmath")
        N = len(omegas)
        with mpmath.workdps(30):
            want = float(mpmath.mpf(E) ** (N - 1) / mpmath.factorial(N - 1)
                         / mpmath.fprod(mpmath.mpf(hbar) * w for w in omegas))
        got = density_of_states(QuadraticHamiltonian(np.diag(omegas * 2)), E, hbar)
        assert abs(got - want) <= 8 * math.ulp(want)

    def test_closed_form_kept_where_finite(self):
        # the last N whose (N - 1)! is a double keeps the closed form's bits
        H = QuadraticHamiltonian.isotropic(171, 1.0)
        assert density_of_states(H, 1.0, 1.0) == 1.0 / math.factorial(170)

    @pytest.mark.parametrize("N,E,hbar,omega", [(200, 1e4, 1.0, 1.0), (2, 1.0, 1e-320, 1e-10)])
    def test_beyond_the_double_range_refused(self, N, E, hbar, omega):
        # g = e^975, and 1 / (hbar w)^2 with hbar w rounding to 0 (once a ZeroDivisionError)
        with pytest.raises(OverflowError):
            density_of_states(QuadraticHamiltonian.isotropic(N, omega), E, hbar)


class TestCrossModule:
    def test_capacity_matches_blob_area_at_quantized_energies(self):
        omega = 1.3
        H = QuadraticHamiltonian.isotropic(2, omega)
        for n in range(6):
            E_n = (n + 0.5) * HBAR * omega
            cap = capacity_ellipsoid(H, E_n)
            assert cap == pytest.approx((n + 0.5) * PLANCK_H, rel=1e-10)
            assert blob_check(cap, HBAR) == n


class TestPotentialValue:
    def test_fields(self):
        names = [f.name for f in dataclasses.fields(Potential1D)]
        assert names == ["V", "dV", "inverse", "bottom", "top", "mass"]

    def test_solve_leaves_no_state(self, monkeypatch):
        pot = quartic_potential(0.25)
        before = dict(vars(pot))
        assert spectrum_1d(pot, 3, HBAR).entries
        assert vars(pot) == before
        pot = morse_potential(10.0, 1.0)
        before = dict(vars(pot))
        monkeypatch.setattr(ebk, "_MAX_ROUNDS", 0)  # the energy search runs out
        with pytest.raises(NoConvergence):
            spectrum_1d(pot, 1, HBAR)
        assert vars(pot) == before

    def test_value_equality(self):
        pot = harmonic_potential(1.0)
        fields = {"V": pot.V, "dV": pot.dV, "inverse": pot.inverse, "bottom": pot.bottom}
        assert Potential1D(**fields) == Potential1D(**fields) == pot
        assert Potential1D(**fields, mass=2.0) != Potential1D(**fields)


class TestPotentialFactory:
    def test_descriptors(self):
        for desc in ({"kind": "harmonic", "omega": 2.0},
                     {"kind": "morse", "D": 5.0, "a": 0.8},
                     {"kind": "quartic", "coeff": 0.1},
                     {"kind": "polynomial", "coeffs": [0.0, 0.0, 0.5]}):
            pot = make_potential(desc)
            E, action = level_1d(pot, 0, HBAR)
            assert E > 0 and action == pytest.approx(0.5 * PLANCK_H, rel=1e-8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_potential({"kind": "coulomb"})
        # the kind is checked before any key is read
        with pytest.raises(ValueError, match="unknown potential kind 'coulomb'"):
            make_potential({"kind": "coulomb", "mass": "1"})

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

    @pytest.mark.parametrize("coeffs", POLYVAL_COEFFS)
    def test_polynomial_is_polyval_bitwise(self, coeffs):
        pot = make_potential({"kind": "polynomial", "coeffs": coeffs})
        polyval, polyder = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
        q = np.random.default_rng(5).uniform(-40.0, 40.0, size=257)
        for x in (q, q[:2], q[3], float(q[4]), -q):
            assert np.array_equal(pot.V(x), polyval(x, coeffs))
            assert np.array_equal(pot.dV(x), polyval(x, polyder(coeffs)))

    @pytest.mark.parametrize("coeffs,bracket", [
        *[(coeffs, (-30.0, 30.0)) for coeffs in POLYVAL_COEFFS],
        *[(coeffs, (-30.0, 30.0)) for coeffs in CONVEX_QUARTICS[:5]],
        ([-3.0], (-1.0, 2.0)), ([1.0, -0.0, 2.0, -0.0], (-2.0, 1.0)),
        *[(np.random.default_rng(seed).uniform(-2.0, 2.0, seed % 7 + 2).tolist(),
           (-3.0 - seed, 1.5 + seed)) for seed in range(12)],
    ])
    def test_polynomial_setup_is_numpy_bitwise(self, coeffs, bracket):
        # the scalar set-up: V' as polyder's coefficients and V at the cuts as polyval's,
        # zero signs included
        polyval, polyder = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
        dc, cuts, v_cut = ebk._cuts([float(ck) for ck in coeffs], *bracket)
        assert _bits(dc) == _bits(polyder(coeffs).tolist())
        assert cuts[0] == bracket[0] and cuts[-1] == bracket[1] and cuts == sorted(cuts)
        assert _bits(v_cut) == _bits(polyval(np.array(cuts), coeffs).tolist())

    @pytest.mark.parametrize("pot,V,dV", [
        (quartic_potential(0.25), lambda q: 0.25 * np.square(np.square(q)),
         quartic_dV_oracle(0.25)),
        (quartic_potential(1.7), lambda q: 1.7 * np.square(np.square(q)), quartic_dV_oracle(1.7)),
        (make_potential(BENCH_POLY), horner_oracle(BENCH_POLY["coeffs"]),
         horner_oracle(np.polynomial.polynomial.polyder(BENCH_POLY["coeffs"]).tolist())),
    ], ids=["quartic", "quartic-1.7", "polynomial"])
    def test_forces_match_allocating_forms(self, pot, V, dV):
        # the in-place forms: same bits and result type, input untouched
        q = np.random.default_rng(6).uniform(-3.0, 3.0, size=(300, 1))
        for x in (q, q[:, 0], q[::3, 0], np.array(q[5, 0]), float(q[7, 0]), 2.5, -1e-3):
            before = np.array(x, copy=True)
            for got, want in ((pot.V(x), V(x)), (pot.dV(x), dV(x))):
                assert type(got) is type(want)
                assert np.array_equal(got, want)
            assert np.array_equal(x, before)

    @pytest.mark.parametrize("desc", [
        {"kind": "harmonic", "omega": 0.7, "mass": 1.3},
        {"kind": "morse", "D": 8.0, "a": 1.4},
        {"kind": "quartic", "coeff": 0.3},
        BENCH_POLY,
    ], ids=WELL_IDS)
    def test_complex_step_derivative(self, desc):
        # V keeps a complex argument complex, so V(x + ih).imag / h is dV(x) with no
        # cancellation; a cast to float once dropped the imaginary part. dV does too, at
        # any scale: its complex step is scale V''(x)
        pot = make_potential(desc)
        for x in (-0.7, 0.3, 1.1, 2.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = complex(pot.V(x + 1e-30j)).imag / 1e-30
                d2V = complex(pot.dV(x + 1e-30j, 0.5)).imag / 1e-30
            assert got == pytest.approx(float(pot.dV(x)), rel=1e-13)
            fd = (float(pot.dV(x + 1e-6)) - float(pot.dV(x - 1e-6))) / 2e-6
            assert d2V == pytest.approx(0.5 * fd, rel=1e-6)

    @pytest.mark.parametrize("coeff", [0.0, -1.0])
    def test_nonconfining_quartic_rejected(self, coeff):
        with pytest.raises(ValueError, match="not confining"):
            quartic_potential(coeff)

    def test_hbar_scaling(self):
        # harmonic levels scale linearly with hbar, to 1e-9 of the well's scale
        pot = harmonic_potential(1.0)
        for hbar, rel in [(0.5, 1e-10), (1e-9, 1e-15)]:
            res = spectrum_1d(pot, 2, hbar)
            assert len(res.entries) == 3
            for n, entry in enumerate(res.entries):
                assert entry.energy == pytest.approx((n + 0.5) * hbar, rel=rel)
