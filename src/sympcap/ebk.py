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
    factories below set it, and turning_points polishes roots with it.
    """

    V: Callable[[np.ndarray], np.ndarray]
    mass: float = 1.0
    bracket: tuple = (-50.0, 50.0)
    dV: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _scan: Optional[tuple] = field(default=None, init=False, repr=False)  # see _scan()

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


_SCAN_POINTS = 4096
_EPS = np.finfo(float).eps


def _scan(pot: Potential1D) -> tuple[np.ndarray, np.ndarray]:
    """(grid, V on it): _SCAN_POINTS over the bracket, sampled once per (V, bracket)."""
    if pot._scan is None or pot._scan[0] is not pot.V or pot._scan[1] != pot.bracket:
        q = np.linspace(*pot.bracket, _SCAN_POINTS)
        pot._scan = (pot.V, pot.bracket, q, np.asarray(pot.V(q), dtype=float))
    return pot._scan[2:]


def turning_points(pot: Potential1D, E: float) -> tuple[float, float]:
    """Classical turning points V(q) = E bracketing a single well.

    Finds the sign changes of V - E on the well scan, zooming toward the
    minimum when the classically allowed region is narrower than the grid,
    refuses multi-well energies, and polishes both crossings at once.
    """
    q, v = _scan(pot)
    f = v - E
    lo, hi = pot.bracket
    for _ in range(60):
        if (f < 0).any():
            break
        # allowed region (if any) is narrower than the grid spacing: zoom
        # toward the smallest sampled value
        center = q[int(np.argmin(f))]
        width = (hi - lo) / 16.0
        if width < 1e-13 * max(abs(center), 1.0) + 1e-300:
            raise NoClassicalRegion(f"E={E} is below the potential minimum")
        lo, hi = center - width / 2, center + width / 2
        q = np.linspace(lo, hi, _SCAN_POINTS)
        f = np.asarray(pot.V(q), dtype=float) - E
    else:
        raise NoClassicalRegion(f"E={E} is below the potential minimum")

    sign_changes = np.nonzero(np.diff(np.signbit(f)))[0]
    if sign_changes.size > 2:
        raise MultiWell(f"{sign_changes.size} turning points at E={E}; single well required")
    if sign_changes.size < 2:
        raise NoClassicalRegion(f"bracket does not confine E={E} (V(edges) must exceed E)")
    # Newton on dV from the cell midpoints, both roots at once; brentq on its
    # cell for a root that leaves it or has not settled in 8 steps, or lacks dV
    a, b = q[sign_changes], q[sign_changes + 1]
    x = 0.5 * (a + b)
    settled = np.zeros(2, dtype=bool)
    if pot.dV is not None:
        with np.errstate(all="ignore"):
            for _ in range(8):
                f = np.asarray(pot.V(x), dtype=float) - E
                step = f / np.asarray(pot.dV(x), dtype=float)
                x = x - step
                # a step within 4 ulp of x, or a residual at the rounding level of E
                settled = ((np.abs(step) <= 4 * _EPS * np.abs(x))
                           | (np.abs(f) <= 4 * _EPS * abs(E)))
                if settled.all():
                    break
    for i in np.flatnonzero(~(settled & (a <= x) & (x <= b))):
        x[i] = brentq(lambda s: float(pot.V(s)) - E, a[i], b[i],
                      xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return float(x[0]), float(x[1])


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int):
    """sin(theta), weights and cos(theta) at the Gauss-Legendre nodes x, theta = pi x / 2."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return np.sin(0.5 * math.pi * x), w, np.cos(0.5 * math.pi * x)


def _action_period(pot: Potential1D, E: float, nodes: int = 256) -> tuple[float, float]:
    """Loop action A(E) and period T(E) = dA/dE = 2 int m/p dq on the same
    nodes: under the substitution of action_integral both integrands are smooth."""
    q_minus, q_plus = turning_points(pot, E)
    mid = 0.5 * (q_plus + q_minus)
    half = 0.5 * (q_plus - q_minus)
    sin, w, cos = _gauss_legendre(nodes)
    q = mid + half * sin
    integrand = np.sqrt(np.maximum(2.0 * pot.mass * (E - np.asarray(pot.V(q))), 0.0))
    action = float(2.0 * (0.5 * math.pi) * half * np.sum(w * integrand * cos))
    with np.errstate(divide="ignore"):  # p rounded to 0 at a node: T = inf, Newton bisects
        period = float(2.0 * (0.5 * math.pi) * half * pot.mass * np.sum(w * cos / integrand))
    return action, period


def action_integral(pot: Potential1D, E: float, nodes: int = 256) -> float:
    """Loop action 2 * int sqrt(2m (E - V)) dq between the turning points.

    Uses the substitution q = mid + half * sin(theta) with Gauss-Legendre
    in theta, which absorbs the square-root endpoint singularity and is
    spectrally accurate for smooth potentials.
    """
    return _action_period(pot, E, nodes)[0]


def _well_bottom(pot: Potential1D) -> tuple[float, float, float]:
    """The well bottom as a point (vmin, 0, T0) of the action curve: T0 = 2 pi sqrt(m / V''),
    the harmonic period, with V'' the second difference of the scan (inf if not positive)."""
    q, v = _scan(pot)
    k = min(max(int(np.argmin(v)), 1), q.size - 2)
    res = minimize_scalar(lambda x: float(pot.V(x)), bounds=(q[k - 1], q[k + 1]),
                          method="bounded", options={"xatol": 1e-13})
    curvature = (v[k - 1] - 2.0 * v[k] + v[k + 1]) / (q[1] - q[0]) ** 2
    period = 2.0 * math.pi * math.sqrt(pot.mass / curvature) if curvature > 0 else math.inf
    return float(res.fun), 0.0, period


def _solve_level(pot: Potential1D, target_action: float, below: tuple,
                 e_cap: float) -> tuple[float, float, float]:
    """(E, A, T) where A(E) = target_action, by Newton with slope dA/dE = T.

    Starts from `below`, a point (E, A, T) with A < target_action. The bracket's top, just
    under e_cap, is evaluated only when a step reaches it or fails before that. A step fails
    if it leaves the bracket, has no finite T, or does not halve the last step once the top
    is `reached` (known to reach the target); it then bisects. Stops at a step of 4 ulp.
    """
    E, A, T = below
    e_top = e_cap * (1 - 1e-12) if e_cap > 0 else e_cap + abs(e_cap) * 1e-12
    e_lo, e_hi, reached, last = E, e_top, False, math.inf
    while True:
        step = (target_action - A) / T
        if (not (T < math.inf and e_lo <= E + step <= e_hi)
                or (reached and abs(step) > 0.5 * abs(last))):
            step = (0.5 * (e_lo + e_hi) if reached else e_top) - E
        # never return the unevaluated start point, nor stop short of an unevaluated top
        if (E != below[0] and abs(step) <= 4 * _EPS * max(abs(E), abs(below[0]))
                and (reached or E + step < e_top)):
            return E, A, T
        E, last = E + step, step
        top = E == e_top and not reached
        try:
            A, T = _action_period(pot, E)
        except (NoClassicalRegion, MultiWell) as exc:
            if not top:
                if isinstance(exc, MultiWell):
                    raise
                raise LevelNotBound("bracket stopped confining before the target action")
            A = -math.inf
        if A < target_action:
            if top:
                raise LevelNotBound(
                    f"action {target_action} not reached below dissociation at E={e_cap}"
                )
            e_lo = E
        else:
            e_hi, reached = E, True
        if top:
            T = math.inf  # the period diverges at dissociation: bisect next


def _check_monotone(pot: Potential1D, vmin: float, e_top: float):
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
    return _solve_level(pot, (n + 0.5) * cfg.h, _well_bottom(pot), pot.confinement_energy())[:2]


def spectrum_1d(pot: Potential1D, n_max: int, cfg: PlanckConfig) -> SpectrumResult:
    """Librational EBK levels n = 0..n_max: solve loop action = (n + 1/2) h.

    Each level carries Maslov index 2 (two caustic touches per loop).
    Levels above dissociation are skipped with a notice.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    below = _well_bottom(pot)
    vmin = below[0]
    e_cap = pot.confinement_energy()
    _check_monotone(pot, vmin, min(e_cap, vmin + max(abs(vmin), 1.0) * 100))

    result = SpectrumResult(entries=[], hbar=cfg.hbar)
    for n in range(n_max + 1):
        try:
            below = _solve_level(pot, (n + 0.5) * cfg.h, below, e_cap)
        except LevelNotBound as exc:
            result.skipped.append({"n": n, "reason": str(exc)})
            continue
        E, action, _ = below
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
    kwargs = {"mass": float(desc.pop("mass", 1.0))}
    if "bracket" in desc:
        kwargs["bracket"] = tuple(desc.pop("bracket"))
    if kind == "harmonic":
        factory = harmonic_potential
        kwargs["omega"] = float(desc.pop("omega", 1.0))
    elif kind == "morse":
        factory = morse_potential
        kwargs.update(D=float(desc.pop("D", 10.0)), a=float(desc.pop("a", 1.0)))
    elif kind == "quartic":
        factory = quartic_potential
        kwargs["coeff"] = float(desc.pop("coeff", 0.25))
    elif kind == "polynomial":
        if "coeffs" not in desc:
            raise ValueError("polynomial potential is missing key 'coeffs'")
        factory = polynomial_potential
        kwargs["coeffs"] = desc.pop("coeffs")
    else:
        raise ValueError(f"unknown potential kind {kind!r}")
    if desc:
        raise ValueError(f"{kind} potential has unknown key {next(iter(desc))!r}")
    return factory(**kwargs)
