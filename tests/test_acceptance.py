"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines.
"""

import math
import time

import numpy as np
import pytest

from sympcap.capacity import (
    EnergyShellRegion,
    bordeaux_bottle_fixture,
    capacity_ball,
    capacity_ellipsoid,
    minimal_action_quadratic,
    volume_ball,
)
from sympcap.core import QuadraticHamiltonian, random_symplectic, williamson
from sympcap.ebk import (
    PlanckConfig,
    density_of_states,
    harmonic_potential,
    loop_action,
    morse_potential,
    quantize_quadratic,
    quartic_potential,
    spectrum_1d,
)
from sympcap.shadows import FlowSpec, PlaneSelector, evolve_ball_shadow, nonsqueeze_ensemble

from oracles import morse_levels, quartic_levels, random_pd_matrix

CFG = PlanckConfig(1.0)


def report(num, name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {name}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_oscillator_levels():
    t0 = time.perf_counter()
    ok = True
    for omega in (0.5, 1.0, 3.0):
        res = spectrum_1d(harmonic_potential(omega), 20, CFG)
        for n, entry in enumerate(res.entries):
            exact = (n + 0.5) * omega
            ok &= abs(entry.energy - exact) / exact <= 1e-10
        for n in range(21):
            e_quad = quantize_quadratic(QuadraticHamiltonian.isotropic(1, omega), (n,), CFG)
            ok &= abs(e_quad.energy - (n + 0.5) * omega) / ((n + 0.5) * omega) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, f"oscillator levels E_n = (n+1/2) hbar w ({elapsed:.2f}s)", ok)


def test_criterion_2_capacity_volume_identity():
    ok = True
    R = 1.234
    for N in range(1, 9):
        cap = capacity_ball(R, N).value
        ok &= abs(volume_ball(R, N) * math.factorial(N) - cap**N) <= 1e-12 * cap**N
        ok &= cap == capacity_ball(R, 1).value  # independent of N exactly
    report(2, "volume * N! = capacity^N for N = 1..8", ok)


def test_criterion_3_ellipsoid_capacity_minimal_action():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        N = int(rng.integers(1, 5))
        M = random_pd_matrix(rng, N)
        E = float(rng.uniform(0.2, 4.0))
        region = EnergyShellRegion(QuadraticHamiltonian(M), E)
        cap = capacity_ellipsoid(region).value
        action, _ = minimal_action_quadratic(region)
        ok &= abs(cap - action) <= 1e-12 * cap
        for _ in range(20):
            S = random_symplectic(N, 0.6, rng)
            Mc = S.matrix.T @ M @ S.matrix
            region_c = EnergyShellRegion(QuadraticHamiltonian(Mc), E)
            cap_c = capacity_ellipsoid(region_c).value
            act_c, _ = minimal_action_quadratic(region_c)
            ok &= abs(cap_c - cap) <= 1e-8 * cap
            ok &= abs(act_c - action) <= 1e-8 * action
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(3, f"ellipsoid capacity = minimal orbit action, invariant ({elapsed:.1f}s)", ok)


def test_criterion_4_isotropic_capacity_value():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(50):
        m = float(rng.uniform(0.2, 5.0))
        w = float(rng.uniform(0.2, 5.0))
        E = float(rng.uniform(0.1, 10.0))
        N = int(rng.integers(1, 4))
        region = EnergyShellRegion(QuadraticHamiltonian.isotropic(N, w, m), E)
        cap = capacity_ellipsoid(region).value
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
    quartic_flow = FlowSpec(V=lambda q: 0.25 * np.sum(q**4, -1), grad_V=lambda q: q * q * q,
                            dt=1e-3)
    reports = evolve_ball_shadow(1.0, quartic_flow,
                                 PlaneSelector.conjugate(1), 100_000, 0.025,
                                 [1.0, 2.0, 5.0], seed=0)
    for rep in reports:
        ok &= rep.area >= 0.95 * math.pi

    harmonic_flow = FlowSpec(V=lambda q: 0.5 * np.sum(q * q, -1), grad_V=lambda q: q, dt=1e-3)
    controls = evolve_ball_shadow(1.0, harmonic_flow,
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
    exact = morse_levels(D, a, m, CFG.hbar)
    res = spectrum_1d(morse_potential(D, a, m), len(exact) + 2, CFG)
    ok &= len(res.entries) == len(exact)
    for entry, E_exact in zip(res.entries, exact):
        ok &= abs(entry.energy - E_exact) <= 1e-8

    oracle = quartic_levels(0.25, 1.0, 1.0, nbasis=200)
    qres = spectrum_1d(quartic_potential(0.25), 10, CFG)
    for n in range(3, 11):
        ok &= abs(qres.entries[n].energy - oracle[n]) / oracle[n] <= 0.01
    report(7, "Morse EBK exact to 1e-8; quartic within 1% of 200-basis oracle", ok)


def test_criterion_8_density_of_states():
    ok = True
    for N in range(1, 5):
        H = QuadraticHamiltonian.isotropic(N, 1.0)
        for E in (0.5, 1.0, 2.0):
            g_ana = density_of_states(H, E, CFG)
            g_num = density_of_states(H, E, CFG, numerical=True)
            ok &= abs(g_num - g_ana) <= 1e-6 * abs(g_ana)
    report(8, "analytic g(E) vs finite-difference volume, (N, E) grid", ok)


def test_criterion_9_ebk_integer_property():
    ok = True
    # every emitted spectrum entry
    for pot in (harmonic_potential(1.0), morse_potential(10.0, 1.0), quartic_potential(0.25)):
        res = spectrum_1d(pot, 3, CFG)
        for entry in res.entries:
            for action, mu in zip(entry.actions, entry.maslov_per_loop):
                x = action / CFG.h - mu / 4.0
                ok &= abs(x - round(x)) <= 1e-8 and round(x) >= 0
    # loop_action with random nonnegative windings
    rng = np.random.default_rng(99)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        ns = rng.integers(0, 8, size=k)
        nus = rng.integers(0, 6, size=k)
        rec = loop_action([(n + 0.5) * CFG.h for n in ns], nus, CFG)
        x = rec.action / CFG.h - rec.maslov / 4.0
        ok &= abs(x - round(x)) <= 1e-8 and rec.ebk_integer == round(x) >= 0
    report(9, "action/h - maslov/4 is a nonnegative integer", ok)


def test_criterion_10_bordeaux_bottle():
    ok = True
    for R, r in ((1.0, 0.5), (2.0, 1.0)):
        b = bordeaux_bottle_fixture(R, r)
        ok &= b.capacity.value == math.pi * R * R  # exact arithmetic
        ok &= b.neck_loop_action == math.pi * r * r
        ok &= b.neck_loop_action < b.capacity.value  # strict
    report(10, "bottle capacity pi R^2, neck action pi r^2, strict gap", ok)
