"""Quantum-blob and EBK quantization.

Oscillator spectra via symplectic (Williamson) frequencies, 1-D and
separable action-integral spectra with the Maslov half-integer shift, blob
index checks, and the isotropic-oscillator density of states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .capacity import CapacityValue
from .core import QuadraticHamiltonian, williamson
from .errors import (
    LevelNotBound,
    MultiWell,
    NoClassicalRegion,
    NonMonotoneAction,
    NotABlob,
    UnsupportedForClosedForm,
)


@dataclass(frozen=True)
class PlanckConfig:
    """Single source for the action quantum; h = 2 pi hbar."""

    hbar: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


@dataclass(eq=False)
class Potential1D:
    """Confining 1-D potential V(q) with mass m on a search bracket.

    The callables must accept numpy arrays. The bracket must confine every
    energy that will be requested: V at both edges above E. `dV` is the
    analytic derivative dV/dq (minus the force); the descriptor
    factories below set it.
    """

    V: Callable[[np.ndarray], np.ndarray]
    mass: float = 1.0
    bracket: tuple = (-50.0, 50.0)
    dV: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        lo, hi = self.bracket
        if not lo < hi:
            raise ValueError(f"bad bracket {self.bracket}")

    def confinement_energy(self) -> float:
        """Largest energy the bracket can confine."""
        lo, hi = self.bracket
        return float(min(self.V(lo), self.V(hi)))


@dataclass(frozen=True)
class LoopRecord:
    """A loop on a quantized torus: winding numbers, action, Maslov index."""

    nu: tuple
    action: float
    maslov: int
    ebk_integer: Optional[int] = None


@dataclass(frozen=True)
class SpectrumEntry:
    quantum_numbers: tuple
    energy: float
    actions: tuple
    maslov_per_loop: tuple


@dataclass
class SpectrumResult:
    entries: list
    hbar: float
    skipped: list = field(default_factory=list)  # levels above dissociation, with notices


def blob_check(cap: CapacityValue, cfg: PlanckConfig, tol: float = 0.05) -> Optional[int]:
    """Blob index n with |cap - (n + 1/2) h| <= tol * h, if one exists."""
    if cap.infinite:
        raise NotABlob("infinite capacity has no blob index")
    x = cap.value / cfg.h - 0.5
    n = round(x)
    if n >= 0 and abs(cap.value - (n + 0.5) * cfg.h) <= tol * cfg.h:
        return n
    return None


def quantize_quadratic(H: QuadraticHamiltonian, n, cfg: PlanckConfig) -> SpectrumEntry:
    """E = sum_j (n_j + 1/2) hbar w_j from the symplectic spectrum of M.

    Quantum numbers pair with the frequencies in ascending order (mode 1 is
    the slowest); each basis loop carries action (n_j + 1/2) h and Maslov
    index 2.
    """
    n = tuple(int(k) for k in np.atleast_1d(n))
    if any(k < 0 for k in n):
        raise ValueError(f"quantum numbers must be nonnegative, got {n}")
    dec = williamson(H)
    if len(n) != dec.omegas.size:
        raise ValueError(f"expected {dec.omegas.size} quantum numbers, got {len(n)}")
    omegas = dec.omegas[::-1]  # ascending
    energy = float(sum((k + 0.5) * cfg.hbar * w for k, w in zip(n, omegas)))
    actions = tuple((k + 0.5) * cfg.h for k in n)
    return SpectrumEntry(
        quantum_numbers=n,
        energy=energy,
        actions=actions,
        maslov_per_loop=(2,) * len(n),
    )


def turning_points(pot: Potential1D, E: float) -> tuple[float, float]:
    """Classical turning points V(q) = E bracketing a single well.

    Scans the bracket for sign changes of V - E, zooming toward the
    minimum when the classically allowed region is narrower than the grid,
    refuses multi-well energies, and polishes each crossing by bisection.
    """
    lo, hi = pot.bracket
    points = 4096
    for _ in range(60):
        q = np.linspace(lo, hi, points)
        f = np.asarray(pot.V(q), dtype=float) - E
        if (f < 0).any():
            break
        # allowed region (if any) is narrower than the grid spacing: zoom
        # toward the smallest sampled value
        center = q[int(np.argmin(f))]
        width = (hi - lo) / 16.0
        if width < 1e-13 * max(abs(center), 1.0) + 1e-300:
            raise NoClassicalRegion(f"E={E} is below the potential minimum")
        lo, hi = center - width / 2, center + width / 2
    else:
        raise NoClassicalRegion(f"E={E} is below the potential minimum")

    sign_changes = np.nonzero(np.diff(np.signbit(f)))[0]
    if sign_changes.size > 2:
        raise MultiWell(f"{sign_changes.size} turning points at E={E}; single well required")
    if sign_changes.size < 2:
        raise NoClassicalRegion(f"bracket does not confine E={E} (V(edges) must exceed E)")

    def g(x):
        return float(pot.V(x)) - E

    roots = []
    for k in sign_changes:
        roots.append(brentq(g, q[k], q[k + 1], xtol=1e-15, rtol=8.9e-16, maxiter=200))
    q_minus, q_plus = sorted(roots)
    return float(q_minus), float(q_plus)


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def action_integral(pot: Potential1D, E: float, nodes: int = 256) -> float:
    """Loop action 2 * int sqrt(2m (E - V)) dq between the turning points.

    Uses the substitution q = mid + half * sin(theta) with Gauss-Legendre
    in theta, which absorbs the square-root endpoint singularity and is
    spectrally accurate for smooth potentials.
    """
    q_minus, q_plus = turning_points(pot, E)
    mid = 0.5 * (q_plus + q_minus)
    half = 0.5 * (q_plus - q_minus)
    x, w = _gauss_legendre(nodes)
    theta = 0.5 * math.pi * x
    q = mid + half * np.sin(theta)
    integrand = np.sqrt(np.maximum(2.0 * pot.mass * (E - np.asarray(pot.V(q))), 0.0))
    return float(2.0 * (0.5 * math.pi) * half * np.sum(w * integrand * np.cos(theta)))


def _potential_minimum(pot: Potential1D) -> tuple[float, float]:
    lo, hi = pot.bracket
    q = np.linspace(lo, hi, 4096)
    v = np.asarray(pot.V(q), dtype=float)
    k = int(np.argmin(v))
    a = q[max(k - 1, 0)]
    b = q[min(k + 1, q.size - 1)]
    res = minimize_scalar(lambda x: float(pot.V(x)), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-13})
    return float(res.x), float(res.fun)


def _solve_level(pot: Potential1D, target_action: float, vmin: float, e_cap: float) -> float:
    """Energy with action_integral(E) = target_action, by bracketed root-finding."""
    scale = max(abs(vmin), 1.0)
    e_lo = vmin + 1e-12 * scale
    gap = 1e-6 * scale
    e_hi = vmin + gap
    while e_hi < e_cap:
        try:
            if action_integral(pot, e_hi) >= target_action:
                break
        except NoClassicalRegion:
            raise LevelNotBound("bracket stopped confining before the target action")
        e_lo = e_hi
        gap *= 2.0
        e_hi = vmin + gap
    else:
        e_hi = e_cap * (1 - 1e-12) if e_cap > 0 else e_cap + abs(e_cap) * 1e-12
        try:
            reachable = action_integral(pot, e_hi) >= target_action
        except (NoClassicalRegion, MultiWell):
            reachable = False
        if not reachable:
            raise LevelNotBound(
                f"action {target_action} not reached below dissociation at E={e_cap}"
            )

    def f(E):
        return action_integral(pot, E) - target_action

    E_n = brentq(f, e_lo, e_hi, xtol=1e-14 * max(abs(e_hi), 1.0), rtol=8.9e-16, maxiter=200)
    return float(E_n)


def _check_monotone(pot: Potential1D, vmin: float, e_top: float):
    scale = max(abs(vmin), 1.0)
    energies = vmin + (e_top - vmin) * np.linspace(1e-6, 1.0, 9)
    vals = []
    for E in energies:
        try:
            vals.append(action_integral(pot, E))
        except (NoClassicalRegion, MultiWell):
            break
    if len(vals) >= 2 and np.any(np.diff(vals) <= 0):
        raise NonMonotoneAction("action integral not strictly increasing in energy")


def level_1d(pot: Potential1D, n: int, cfg: PlanckConfig) -> tuple[float, float]:
    """(energy, action) for the single level with action (n + 1/2) h."""
    if n < 0:
        raise ValueError(f"quantum number must be nonnegative, got {n}")
    _, vmin = _potential_minimum(pot)
    e_cap = pot.confinement_energy()
    E = _solve_level(pot, (n + 0.5) * cfg.h, vmin, e_cap)
    return E, action_integral(pot, E)


def spectrum_1d(pot: Potential1D, n_max: int, cfg: PlanckConfig) -> SpectrumResult:
    """Librational EBK levels n = 0..n_max: solve loop action = (n + 1/2) h.

    Each level carries Maslov index 2 (two caustic touches per loop).
    Levels above dissociation are skipped with a notice.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    _, vmin = _potential_minimum(pot)
    e_cap = pot.confinement_energy()
    _check_monotone(pot, vmin, min(e_cap, vmin + max(abs(vmin), 1.0) * 100))

    result = SpectrumResult(entries=[], hbar=cfg.hbar)
    for n in range(n_max + 1):
        target = (n + 0.5) * cfg.h
        try:
            E = _solve_level(pot, target, vmin, e_cap)
        except LevelNotBound as exc:
            result.skipped.append({"n": n, "reason": str(exc)})
            continue
        action = action_integral(pot, E)
        result.entries.append(
            SpectrumEntry(
                quantum_numbers=(n,), energy=E, actions=(action,), maslov_per_loop=(2,)
            )
        )
    return result


def spectrum_separable(pots: Sequence[Potential1D], n, cfg: PlanckConfig) -> SpectrumEntry:
    """One torus of a separable system: per-mode 1-D levels summed.

    The basis loops are unit-winding circles, one per mode, each with
    Maslov index 2.
    """
    n = tuple(int(k) for k in np.atleast_1d(n))
    if len(n) != len(pots):
        raise ValueError(f"expected {len(pots)} quantum numbers, got {len(n)}")
    energies, actions = [], []
    for pot, k in zip(pots, n):
        E, action = level_1d(pot, k, cfg)
        energies.append(E)
        actions.append(action)
    return SpectrumEntry(
        quantum_numbers=n,
        energy=float(sum(energies)),
        actions=tuple(actions),
        maslov_per_loop=(2,) * len(n),
    )


def basis_loops(entry: SpectrumEntry) -> list[LoopRecord]:
    """Unit-winding loop records for each mode of a spectrum entry."""
    N = len(entry.quantum_numbers)
    loops = []
    for j in range(N):
        nu = tuple(1 if k == j else 0 for k in range(N))
        loops.append(LoopRecord(nu=nu, action=entry.actions[j], maslov=2,
                                ebk_integer=entry.quantum_numbers[j]))
    return loops


def loop_action(basis_actions, nu, cfg: PlanckConfig, tol: float = 1e-8) -> LoopRecord:
    """Action and Maslov index of a torus loop with winding numbers nu.

    action = sum_j nu_j A_j and maslov = 2 sum_j nu_j; when every nu_j >= 0
    the combination action/h - maslov/4 is verified to be a nonnegative
    integer (the basis actions must come from a quantized torus).
    """
    basis_actions = np.asarray(basis_actions, dtype=float)
    nu = tuple(int(k) for k in np.atleast_1d(nu))
    if len(nu) != basis_actions.size:
        raise ValueError(f"expected {basis_actions.size} winding numbers, got {len(nu)}")
    action = float(np.dot(nu, basis_actions))
    maslov = 2 * sum(nu)
    ebk = None
    if all(k >= 0 for k in nu):
        x = action / cfg.h - maslov / 4.0
        k = round(x)
        if abs(x - k) > tol or k < 0:
            raise ValueError(
                f"basis actions are not quantized: action/h - maslov/4 = {x}"
            )
        ebk = int(k)
    return LoopRecord(nu=nu, action=action, maslov=maslov, ebk_integer=ebk)


def density_of_states(
    H: QuadraticHamiltonian,
    E: float,
    cfg: PlanckConfig,
    numerical: bool = False,
    rel_step: float = 1e-4,
) -> float:
    """States per unit energy of the isotropic N-mode oscillator.

    Analytic: (1 / (hbar w))^N E^(N-1) / (N-1)!. The numerical mode
    differentiates the enclosed phase-space volume in units of h^N by
    central differences and also covers anisotropic spectra.
    """
    if E <= 0:
        raise ValueError(f"energy must be positive, got {E}")
    dec = williamson(H)
    omegas = dec.omegas
    N = omegas.size

    if numerical:
        # Vol{H <= E} = (2 pi E)^N / (N! prod w_j); counted in cells h^N.
        def states(e):
            return (2.0 * math.pi * e) ** N / (math.factorial(N) * np.prod(omegas)) / cfg.h**N

        step = rel_step * E
        return float((states(E + step) - states(E - step)) / (2.0 * step))

    spread = (omegas[0] - omegas[-1]) / omegas[0]
    if spread > 1e-10:
        raise UnsupportedForClosedForm(
            "closed form needs an isotropic spectrum; use numerical=True"
        )
    omega = float(omegas[0])
    return (1.0 / (cfg.hbar * omega)) ** N * E ** (N - 1) / math.factorial(N - 1)


# ---------------------------------------------------------------------------
# Potential factory used by the CLI and tests


def harmonic_potential(omega: float = 1.0, mass: float = 1.0, bracket=None) -> Potential1D:
    if bracket is None:
        bracket = (-60.0 / math.sqrt(mass) / omega, 60.0 / math.sqrt(mass) / omega)
    return Potential1D(V=lambda q: 0.5 * mass * omega**2 * np.square(q), mass=mass,
                       bracket=bracket, dV=lambda q: mass * omega**2 * np.asarray(q))


def morse_potential(D: float = 10.0, a: float = 1.0, mass: float = 1.0, bracket=None) -> Potential1D:
    if bracket is None:
        bracket = (-3.0 / a, 60.0 / a)

    def dV(q):
        x = np.exp(-a * np.asarray(q, dtype=float))
        return 2.0 * D * a * x * (1.0 - x)

    return Potential1D(V=lambda q: D * np.square(1.0 - np.exp(-a * np.asarray(q, dtype=float))),
                       mass=mass, bracket=bracket, dV=dV)


def quartic_potential(coeff: float = 0.25, mass: float = 1.0, bracket=(-30.0, 30.0)) -> Potential1D:
    if coeff <= 0:
        raise ValueError(f"quartic coeff must be positive, got {coeff}: the potential is "
                         "not confining")
    return Potential1D(V=lambda q: coeff * np.power(q, 4), mass=mass, bracket=bracket,
                       dV=lambda q: 4.0 * coeff * q * q * q)


def polynomial_potential(coeffs, mass: float = 1.0, bracket=(-30.0, 30.0)) -> Potential1D:
    c = list(coeffs)
    dc = np.polynomial.polynomial.polyder(c)
    return Potential1D(V=lambda q: np.polynomial.polynomial.polyval(np.asarray(q, dtype=float), c),
                       mass=mass, bracket=bracket,
                       dV=lambda q: np.polynomial.polynomial.polyval(np.asarray(q, dtype=float), dc))


def make_potential(desc: dict) -> Potential1D:
    """Build a Potential1D from a JSON descriptor {"kind": ..., params...}."""
    desc = dict(desc)
    kind = desc.pop("kind", None)
    bracket = tuple(desc.pop("bracket")) if "bracket" in desc else None
    mass = float(desc.pop("mass", 1.0))
    if kind == "harmonic":
        return harmonic_potential(omega=float(desc.pop("omega", 1.0)), mass=mass,
                                  bracket=bracket, **desc)
    if kind == "morse":
        return morse_potential(D=float(desc.pop("D", 10.0)), a=float(desc.pop("a", 1.0)),
                               mass=mass, bracket=bracket, **desc)
    if kind == "quartic":
        kwargs = {"bracket": bracket} if bracket else {}
        return quartic_potential(coeff=float(desc.pop("coeff", 0.25)), mass=mass, **kwargs, **desc)
    if kind == "polynomial":
        kwargs = {"bracket": bracket} if bracket else {}
        return polynomial_potential(desc.pop("coeffs"), mass=mass, **kwargs, **desc)
    raise ValueError(f"unknown potential kind {kind!r}")
