"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from sympcap.capacity import (
    bordeaux_bottle_fixture,
    capacity_ball,
    capacity_ellipsoid,
)
from sympcap.core import QuadraticHamiltonian, random_symplectic, symplectic_eigenvalues, williamson
from sympcap.ebk import (
    Potential,
    density_of_states,
    harmonic_potential,
    morse_potential,
    quantize_quadratic,
    quartic_potential,
    spectrum_1d,
    spectrum_separable,
)
from sympcap.shadows import FlowSpec, PlaneSelector, evolve_ball_shadow, nonsqueeze_ensemble

from oracles import (
    ball_volume,
    isotropic_hamiltonian,
    morse_levels,
    quartic_levels,
    random_pd_matrix,
)

HBAR = 1.0
PLANCK_H = 2 * math.pi * HBAR


def report(num, name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {name}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_oscillator_levels():
    t0 = time.perf_counter()
    ok = True
    for omega in (0.5, 1.0, 3.0):
        res = spectrum_1d(harmonic_potential(omega), 20, HBAR)
        for n, entry in enumerate(res.entries):
            exact = (n + 0.5) * omega
            ok &= abs(entry.energy - exact) / exact <= 1e-10
        for n in range(21):
            e_quad = quantize_quadratic(isotropic_hamiltonian(1, omega), (n,), HBAR)
            ok &= abs(e_quad.energy - (n + 0.5) * omega) / ((n + 0.5) * omega) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, f"oscillator levels E_n = (n+1/2) hbar w ({elapsed:.2f}s)", ok)


def test_criterion_2_capacity_volume_identity():
    ok = True
    R = 1.234
    for N in range(1, 9):
        cap = capacity_ball(R, N)
        ok &= abs(ball_volume(R, N) * math.factorial(N) - cap**N) <= 1e-12 * cap**N
        ok &= cap == capacity_ball(R, 1)  # independent of N exactly
    report(2, "volume * N! = capacity^N for N = 1..8", ok)


LOOP_NODES = 64  # trapezoid nodes of a loop integral, exact on the ellipses below


def _normal_mode_actions(M, E, check_flow):
    """(ok, actions): the loop action of each normal-mode orbit of H = z^T M z / 2
    at energy E, from williamson's S alone (S^T D S = M).

    In the coordinates S z, mode j runs the circle (r cos theta, -r sin theta)
    of its conjugate plane, r = sqrt(2E / w_j), so the loop is z = S^-1 w(theta).
    `ok` says that every loop node lies on H = E and, with `check_flow`, that
    exp(T J M / LOOP_NODES), T = 2 pi / w_j, takes each node to the next one.
    """
    H = QuadraticHamiltonian(M)
    N = H.n
    decomposition = williamson(H)
    columns = np.linalg.inv(decomposition.S.matrix)
    J = np.block([[np.zeros((N, N)), np.eye(N)], [-np.eye(N), np.zeros((N, N))]])
    theta = 2 * math.pi * np.arange(LOOP_NODES) / LOOP_NODES
    ok, actions = True, []
    for j, w in enumerate(decomposition.omegas):
        r = math.sqrt(2 * E / w)
        a, b = columns[:, j], columns[:, N + j]
        z = r * (np.outer(np.cos(theta), a) - np.outer(np.sin(theta), b))
        dz = -r * (np.outer(np.sin(theta), a) + np.outer(np.cos(theta), b))  # dz / dtheta
        ok &= np.max(np.abs(0.5 * np.einsum("ki,ij,kj->k", z, M, z) - E)) <= 1e-10 * E
        if check_flow:
            step = expm(2 * math.pi / (w * LOOP_NODES) * J @ M)
            ok &= np.max(np.abs(z @ step.T - np.roll(z, -1, axis=0))) <= 1e-10 * np.abs(z).max()
        actions.append(2 * math.pi / LOOP_NODES * float(np.sum(z[:, N:] * dz[:, :N])))
    return ok, actions


def test_criterion_3_ellipsoid_capacity_minimal_action():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        N = int(rng.integers(1, 5))
        M = random_pd_matrix(rng, N)
        E = float(rng.uniform(0.2, 4.0))
        cap = capacity_ellipsoid(QuadraticHamiltonian(M), E)
        on_orbit, actions = _normal_mode_actions(M, E, check_flow=True)
        ok &= on_orbit and abs(cap - min(actions)) <= 1e-12 * cap
        for _ in range(20):
            S = random_symplectic(N, 0.6, rng)
            Mc = S.matrix.T @ M @ S.matrix
            cap_c = capacity_ellipsoid(QuadraticHamiltonian(Mc), E)
            on_shell, actions_c = _normal_mode_actions(Mc, E, check_flow=False)
            ok &= abs(cap_c - cap) <= 1e-8 * cap
            ok &= on_shell and abs(cap_c - min(actions_c)) <= 1e-12 * cap_c
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(3, f"ellipsoid capacity = least normal-mode orbit action, invariant ({elapsed:.1f}s)",
           ok)


def test_criterion_4_isotropic_capacity_value():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(50):
        m = float(rng.uniform(0.2, 5.0))
        w = float(rng.uniform(0.2, 5.0))
        E = float(rng.uniform(0.1, 10.0))
        N = int(rng.integers(1, 4))
        cap = capacity_ellipsoid(isotropic_hamiltonian(N, w, m), E)
        ok &= abs(cap - 2 * math.pi * E / w) <= 1e-12 * cap
    report(4, "isotropic shell capacity 2 pi E / w over 50 random triples", ok)


def test_criterion_5_linear_nonsqueezing():
    t0 = time.perf_counter()
    ok = True
    witnesses = []
    for N in (2, 3):
        summary = nonsqueeze_ensemble(N, 1000, sigma=1.0, seed=N)
        ok &= summary.min_conjugate_det >= 1 - 1e-9
        witnesses.append(summary.nonconjugate_witness)
    ok &= any(w is not None and w["det"] < 0.9 for w in witnesses)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(5, f"linear nonsqueezing over 2x1000 random maps ({elapsed:.1f}s), "
              f"witness {witnesses[0]}", ok)


def test_criterion_6_nonlinear_shadow():
    t0 = time.perf_counter()
    ok = True
    quartic_flow = FlowSpec(Potential(
        V=lambda q: 0.25 * np.sum(q**4, -1),
        dV=lambda q, s, out: np.multiply(q * q * q, s, out=out)), dt=1e-3)
    reports, _ = evolve_ball_shadow(1.0, quartic_flow,
                                 PlaneSelector.conjugate(1), 100_000, 0.025,
                                 [1.0, 2.0, 5.0], seed=0)
    for rep in reports:
        ok &= rep.area >= 0.95 * math.pi

    harmonic_flow = FlowSpec(Potential(V=lambda q: 0.5 * np.sum(q * q, -1),
                                       dV=lambda q, s, out: np.multiply(q, s, out=out)), dt=1e-3)
    controls, _ = evolve_ball_shadow(1.0, harmonic_flow,
                                  PlaneSelector.conjugate(1), 100_000, 0.025,
                                  [0.0, 1.0, 2.0, 5.0], seed=0)
    for rep in controls:
        ok &= abs(rep.area - math.pi) / math.pi <= 0.05
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(6, f"quartic-flow conjugate shadow >= 0.95 pi ({elapsed:.1f}s)", ok)


def test_criterion_7_morse_and_quartic_spectra():
    ok = True
    D, a, m = 10.0, 1.0, 1.0
    exact = morse_levels(D, a, m, HBAR)
    res = spectrum_1d(morse_potential(D, a, m), len(exact) + 2, HBAR)
    ok &= len(res.entries) == len(exact)
    for entry, E_exact in zip(res.entries, exact):
        ok &= abs(entry.energy - E_exact) <= 1e-8

    oracle = quartic_levels(0.25, 1.0, 1.0, nbasis=200)
    qres = spectrum_1d(quartic_potential(0.25), 10, HBAR)
    for n in range(3, 11):
        ok &= abs(qres.entries[n].energy - oracle[n]) / oracle[n] <= 0.01
    report(7, "Morse EBK exact to 1e-8; quartic within 1% of 200-basis oracle", ok)


def _quantum_numbers(a, budget):
    """Every n >= 0 with sum_j a_j n_j <= budget."""
    if not a:
        yield ()
        return
    for k in range(int(budget / a[0]) + 1):
        for rest in _quantum_numbers(a[1:], budget - k * a[0]):
            yield (k,) + rest


def test_criterion_8_density_of_states():
    # Weyl's law: the quantize_quadratic levels at or below E number about the
    # phase-space volume in cells h^N, W = E g(E) / N. Level n owns the unit cell
    # n + [0, 1)^N; with a_j = hbar w_j and A = sum_j a_j those cells cover
    # {x >= 0: a.x <= E - A/2} and lie in {x >= 0: a.x < E + A/2}, so
    # W (1 - A/2E)^N <= count <= W (1 + A/2E)^N, a window of order E^(N-1)
    ok = True
    for hbar, omegas, E in ((1.0, (1.0,), 10.3), (1.0, (1.0, 1.0), 20.3),
                            (0.5, (1.0, 2.0), 15.2), (1.0, (0.7, 1.0, 1.3), 12.1),
                            (0.6, (1.0, 1.0, 1.0), 7.1), (1.0, (0.9, 1.1, 1.3, 1.7), 12.0)):
        N = len(omegas)
        S = random_symplectic(N, 0.5, seed=N).matrix
        H = QuadraticHamiltonian(S.T @ np.diag(omegas + omegas) @ S)
        a = [hbar * w for w in omegas]
        count = sum(quantize_quadratic(H, n, hbar).energy <= E for n in _quantum_numbers(a, E))
        weyl = E * density_of_states(symplectic_eigenvalues(H), E, hbar) / N
        half_cell = sum(a) / (2 * E)
        ok &= weyl * (1 - half_cell) ** N <= count <= weyl * (1 + half_cell) ** N
    report(8, "level count within O(E^(N-1)) of Weyl's E g(E) / N, (hbar, spectrum) grid", ok)


def _ebk_integers_hold(entry):
    """Each basis loop of `entry` has action/h - maslov/4 equal to its own quantum
    number, within 1e-8."""
    return all(abs(action / PLANCK_H - mu / 4.0 - n) <= 1e-8 for n, action, mu
               in zip(entry.quantum_numbers, entry.actions, entry.maslov_per_loop))


def test_criterion_9_ebk_integer_property():
    ok = True
    for pot in (harmonic_potential(1.0), morse_potential(10.0, 1.0), quartic_potential(0.25)):
        for entry in spectrum_1d(pot, 3, HBAR).entries:
            ok &= _ebk_integers_hold(entry)
    # two-mode tori of the separable solver at mixed quantum numbers: each
    # basis loop carries its own mode's integer, not another mode's
    for pots in ((harmonic_potential(1.0), morse_potential(10.0, 1.0)),
                 (morse_potential(10.0, 1.0), quartic_potential(0.25))):
        for n in ((0, 2), (2, 1), (3, 0), (1, 2)):
            ok &= _ebk_integers_hold(spectrum_separable(pots, n, HBAR))
    report(9, "action/h - maslov/4 is each loop's quantum number", ok)


def test_criterion_10_bordeaux_bottle():
    ok = True
    for R, r in ((1.0, 0.5), (2.0, 1.0)):
        b = bordeaux_bottle_fixture(R, r)
        ok &= b.capacity == math.pi * R * R  # exact arithmetic
        ok &= b.neck_loop_action == math.pi * r * r
        ok &= b.neck_loop_action < b.capacity  # strict
    report(10, "bottle capacity pi R^2, neck action pi r^2, strict gap", ok)
