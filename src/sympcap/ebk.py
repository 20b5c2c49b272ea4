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

from .capacity import CapacityValue
from .core import QuadraticHamiltonian, symplectic_eigenvalues
from .errors import (
    LevelNotBound,
    MultiWell,
    NoClassicalRegion,
    NoConvergence,
    NotABlob,
    UnsupportedForClosedForm,
)


@dataclass(frozen=True)
class PlanckConfig:
    """Single source for the action quantum; h = 2 pi hbar."""

    hbar: float = 1.0

    def __post_init__(self):
        if not self.hbar > 0:  # NaN too
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _positive(name: str, value: float):
    if not 0 < value < math.inf:  # NaN too
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(eq=False)
class Potential1D:
    """Confining 1-D potential V(q) with mass m on a search bracket.

    The callables must accept numpy arrays. The bracket must confine every
    energy that will be requested: V at both edges above E. `dV` is the
    analytic derivative dV/dq (minus the force): turning_points polishes
    roots with it, and its sign change locates the well bottom.
    """

    V: Callable[[np.ndarray], np.ndarray]
    dV: Callable[[np.ndarray], np.ndarray]
    mass: float = 1.0
    bracket: tuple = (-50.0, 50.0)
    _scan: Optional[tuple] = field(default=None, init=False, repr=False)  # see _scan()
    # (E, roots, dV at them) of the last turning-point polish of a level solve, which
    # the next one starts from; () before the first, None outside a solve
    _warm: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _positive("mass", self.mass)
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
    omegas = symplectic_eigenvalues(H)[::-1]  # ascending
    if len(n) != omegas.size:
        raise ValueError(f"expected {omegas.size} quantum numbers, got {len(n)}")
    energy = float(sum((k + 0.5) * cfg.hbar * w for k, w in zip(n, omegas)))
    actions = tuple((k + 0.5) * cfg.h for k in n)
    return SpectrumEntry(
        quantum_numbers=n,
        energy=energy,
        actions=actions,
        maslov_per_loop=(2,) * len(n),
    )


_SCAN_POINTS = 4096
_ULP4 = 4 * float(np.finfo(float).eps)  # 4 ulp of 1


def _monotone_runs(v: np.ndarray) -> list:
    """The monotone runs of the samples v, as (start, first, last, key, descending):
    key is v[start:start + key.size], negated if descending so that it ascends, and
    first and last are the run's end values. Neighbouring runs share an end point;
    a flat cell joins the run before it."""
    d = np.sign(np.diff(v))
    d = d[np.maximum.accumulate(np.where(d != 0, np.arange(d.size), 0))]
    cuts = [0, *(np.flatnonzero(d[1:] != d[:-1]) + 1).tolist(), d.size]
    runs = []
    for start, end in zip(cuts[:-1], cuts[1:]):
        key, descending = v[start:end + 1], bool(d[start] < 0)
        runs.append((start, float(key[0]), float(key[-1]), -key if descending else key,
                     descending))
    return runs


def _sampled(q: np.ndarray, V) -> tuple:
    """(q, V(q), its minimum, its monotone runs): a grid ready for crossing lookups."""
    v = np.asarray(V(q), dtype=float)
    return q, v, float(v.min()), _monotone_runs(v)


def _crossings(runs: list, E: float) -> np.ndarray:
    """Cells k of the sampled grid with (v[k] < E) != (v[k+1] < E), the sign changes
    of v - E, by one binary search in each monotone run whose end values straddle E."""
    cells = [start - 1 + int(key.searchsorted(-E, "right") if descending
                             else key.searchsorted(E, "left"))
             for start, first, last, key, descending in runs if (first < E) != (last < E)]
    return np.array(cells, dtype=np.intp)


def _scan(pot: Potential1D) -> tuple:
    """The well scan, _sampled on _SCAN_POINTS over the bracket once per (V, bracket)."""
    if pot._scan is None or pot._scan[0] is not pot.V or pot._scan[1] != pot.bracket:
        pot._scan = (pot.V, pot.bracket, *_sampled(np.linspace(*pot.bracket, _SCAN_POINTS),
                                                   pot.V))
    return pot._scan[2:]


def _bisect(f, a: float, b: float, xtol: float = 0.0) -> float:
    """A sign change of f on [a, b], by bisection on floats: the cell is halved
    until it is no wider than xtol or its midpoint rounds to an end."""
    neg = math.copysign(1.0, f(a)) < 0
    while True:
        m = 0.5 * (a + b)
        if not (b - a > xtol and a < m < b):
            return m
        if (math.copysign(1.0, f(m)) < 0) == neg:  # the change is in [m, b]
            a = m
        else:
            b = m


def turning_points(pot: Potential1D, E: float) -> tuple[float, float]:
    """Classical turning points V(q) = E bracketing a single well.

    Looks the crossings of E up in the monotone runs of the well scan, zooming
    toward the minimum when the classically allowed region is narrower than the
    grid, refuses multi-well energies, and polishes both crossings at once.
    Inside a level solve, the polish starts from the previous call's roots.
    """
    q, v, vmin, runs = _scan(pot)
    lo, hi = pot.bracket
    for _ in range(60):
        if vmin < E:
            break
        # allowed region (if any) is narrower than the grid spacing: zoom
        # toward the smallest sampled value
        center = q[int(np.argmin(v - E))]
        width = (hi - lo) / 16.0
        if width < 1e-13 * max(abs(center), 1.0) + 1e-300:
            raise NoClassicalRegion(f"E={E} is below the potential minimum")
        lo, hi = center - width / 2, center + width / 2
        q, v, vmin, runs = _sampled(np.linspace(lo, hi, _SCAN_POINTS), pot.V)
    else:
        raise NoClassicalRegion(f"E={E} is below the potential minimum")

    cells = _crossings(runs, E)
    if cells.size > 2:
        raise MultiWell(f"{cells.size} turning points at E={E}; single well required")
    if cells.size < 2:
        raise NoClassicalRegion(f"bracket does not confine E={E} (V(edges) must exceed E)")
    # Newton on dV, both roots at once, from the first-order prediction off the
    # previous call's roots where it falls in the cell, else from the cell midpoint;
    # bisection on its cell for a root that leaves it or has not settled in 8 steps.
    # The steps run on the two-root array, the tests on its Python floats.
    a, b = q[cells].tolist(), q[cells + 1].tolist()
    x = [0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])]
    warm = pot._warm
    if warm:
        E0, x0, d0 = warm
        for i in range(2):
            guess = x0[i] + (E - E0) / d0[i] if d0[i] else math.nan
            if a[i] <= guess <= b[i]:
                x[i] = guess
    x, f_tol = np.array(x), _ULP4 * abs(E)
    with np.errstate(all="ignore"):
        for _ in range(8):
            f = np.asarray(pot.V(x), dtype=float) - E
            d = np.asarray(pot.dV(x), dtype=float)
            step = f / d
            x = x - step
            # a step within 4 ulp of x, or a residual at the rounding level of E;
            # a NaN step or residual is not settled
            settled = [abs(dx) <= _ULP4 * abs(xi) or abs(fi) <= f_tol
                       for dx, xi, fi in zip(step.tolist(), x.tolist(), f.tolist())]
            if settled[0] and settled[1]:
                break
    x = x.tolist()
    for i in range(2):
        if not (settled[i] and a[i] <= x[i] <= b[i]):
            x[i] = _bisect(lambda s: pot.V(s) - E, a[i], b[i])
    if warm is not None:
        pot._warm = (E, x, d.tolist())
    return x[0], x[1]


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
    """The well bottom as a point (vmin, 0, T0) of the action curve: vmin is V where dV
    changes sign in the scan's argmin cell, located to 1e-13 of the cell, T0 = 2 pi
    sqrt(m / V'') the harmonic period, with V'' the second difference of the scan (inf if
    not positive)."""
    q, v = _scan(pot)[:2]
    k = min(max(int(np.argmin(v)), 1), q.size - 2)
    a, b = float(q[k - 1]), float(q[k + 1])
    x = _bisect(pot.dV, a, b, xtol=1e-13 * (b - a))
    curvature = (v[k - 1] - 2.0 * v[k] + v[k + 1]) / (q[1] - q[0]) ** 2
    period = 2.0 * math.pi * math.sqrt(pot.mass / curvature) if curvature > 0 else math.inf
    return float(pot.V(x)), 0.0, period


# Action evaluations allowed per level. Levels take at most 13 in the ebk-spectra
# benchmark pass and 7 in the test suite; pure bisection from a bracket 2^90 times
# wider than its 4-ulp stop would take 90.
_MAX_EVALUATIONS = 100


def _solve_level(pot: Potential1D, target_action: float, below: tuple, e_cap: float,
                 tops: dict, guess: float = math.nan) -> tuple[float, float, float]:
    """(E, A, T) where A(E) = target_action, by Newton with slope dA/dE = T.

    Starts from `below`, a point (E, A, T) with A < target_action, and takes its first
    step to `guess` if that lies strictly between E and the bracket's top. The top, just
    under e_cap, is evaluated only when a step reaches it or fails before that, and at
    most once per `tops`, which maps it to its action. A step fails if it leaves the
    bracket, has no finite T, or does not halve the last step once the top is `reached`
    (known to reach the target); it then bisects. Stops at a step of 4 ulp; raises
    NoConvergence where that takes more than _MAX_EVALUATIONS steps. Each evaluation's
    turning points start from the previous one's.
    """
    E, A, T = below
    e_top = e_cap * (1 - 1e-12) if e_cap > 0 else e_cap + abs(e_cap) * 1e-12
    e_lo, e_hi, reached, last = E, e_top, False, math.inf
    step = guess - E if e_lo < guess < e_hi else None
    pot._warm = ()
    try:
        for steps in range(_MAX_EVALUATIONS + 1):
            if step is None:
                step = (target_action - A) / T
                if (not (T < math.inf and e_lo <= E + step <= e_hi)
                        or (reached and abs(step) > 0.5 * abs(last))):
                    step = (0.5 * (e_lo + e_hi) if reached else e_top) - E
                # never return the unevaluated start point, nor stop short of an
                # unevaluated top
                if (E != below[0] and abs(step) <= _ULP4 * max(abs(E), abs(below[0]))
                        and (reached or E + step < e_top)):
                    return E, A, T
            if steps == _MAX_EVALUATIONS:
                break
            E, last, step = E + step, step, None
            top = E == e_top and not reached
            if top and E in tops:
                A = tops[E]
            else:
                try:
                    A, T = _action_period(pot, E)
                except (NoClassicalRegion, MultiWell) as exc:
                    if not top:
                        if isinstance(exc, MultiWell):
                            raise
                        raise LevelNotBound("bracket stopped confining before the target action")
                    A = -math.inf
                if top:
                    tops[E] = A
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
    finally:
        pot._warm = None
    raise NoConvergence(f"action {target_action} not converged in {_MAX_EVALUATIONS} "
                        f"action evaluations, last E={E} in [{e_lo}, {e_hi}]")


def _hermite_start(prev: tuple, last: tuple, target_action: float) -> float:
    """E at target_action on the Hermite interpolant of E(A) through two points (E, A, T)
    of the action curve, with slopes dE/dA = 1/T: cubic, or quadratic when `prev` is the
    well bottom (A = 0), whose scan-based period is not used. NaN on a division by 0."""
    (E0, A0, T0), (E1, A1, T1) = prev, last
    h, d = A1 - A0, target_action - A1
    try:
        s, m1 = (E1 - E0) / h, 1.0 / T1
        c = (m1 - s) / h
        if A0 > 0:
            c += (d + h) * (1.0 / T0 + m1 - 2.0 * s) / (h * h)
    except ZeroDivisionError:
        return math.nan
    return E1 + d * (m1 + d * c)


def level_1d(pot: Potential1D, n: int, cfg: PlanckConfig) -> tuple[float, float]:
    """(energy, action) for the single level with action (n + 1/2) h."""
    if n < 0:
        raise ValueError(f"quantum number must be nonnegative, got {n}")
    return _solve_level(pot, (n + 0.5) * cfg.h, _well_bottom(pot), pot.confinement_energy(),
                        {})[:2]


def spectrum_1d(pot: Potential1D, n_max: int, cfg: PlanckConfig) -> SpectrumResult:
    """Librational EBK levels n = 0..n_max: solve loop action = (n + 1/2) h.

    Each level carries Maslov index 2 (two caustic touches per loop). Level 0 starts
    from the well bottom, each later one from a Hermite extrapolation of E(A) through the
    last two points solved (the bottom among them for level 1). Levels above
    dissociation are skipped with a notice.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    below = _well_bottom(pot)
    prev = None
    e_cap = pot.confinement_energy()
    tops = {}
    result = SpectrumResult(entries=[], hbar=cfg.hbar)
    for n in range(n_max + 1):
        target = (n + 0.5) * cfg.h
        guess = math.nan if prev is None else _hermite_start(prev, below, target)
        try:
            prev, below = below, _solve_level(pot, target, below, e_cap, tops, guess)
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
    omegas = symplectic_eigenvalues(H)
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
    _positive("harmonic omega", omega)
    _positive("mass", mass)
    if bracket is None:
        bracket = (-60.0 / math.sqrt(mass) / omega, 60.0 / math.sqrt(mass) / omega)
    return Potential1D(V=lambda q: 0.5 * mass * omega**2 * np.square(q), mass=mass,
                       bracket=bracket, dV=lambda q: mass * omega**2 * np.asarray(q))


def morse_potential(D: float = 10.0, a: float = 1.0, mass: float = 1.0, bracket=None) -> Potential1D:
    _finite("morse D", D)
    _positive("morse a", a)
    if bracket is None:
        bracket = (-3.0 / a, 60.0 / a)

    def dV(q):
        x = np.exp(-a * np.asarray(q, dtype=float))
        return 2.0 * D * a * x * (1.0 - x)

    return Potential1D(V=lambda q: D * np.square(1.0 - np.exp(-a * np.asarray(q, dtype=float))),
                       mass=mass, bracket=bracket, dV=dV)


def quartic_potential(coeff: float = 0.25, mass: float = 1.0, bracket=(-30.0, 30.0)) -> Potential1D:
    _finite("quartic coeff", coeff)
    if coeff <= 0:
        raise ValueError(f"quartic coeff must be positive, got {coeff}: the potential is "
                         "not confining")
    return Potential1D(V=lambda q: coeff * np.square(np.square(q)), mass=mass, bracket=bracket,
                       dV=lambda q: 4.0 * coeff * q * q * q)


def _horner(c: list):
    """q -> sum_k c[k] q^k on float arrays, in the operation order of numpy's polyval."""
    def value(q):
        q = np.asarray(q, dtype=float)
        y = c[-1] + q * 0
        for ck in c[-2::-1]:
            y = ck + y * q
        return y

    return value


def polynomial_potential(coeffs, mass: float = 1.0, bracket=(-30.0, 30.0)) -> Potential1D:
    c = [_finite("polynomial coefficient", float(ck)) for ck in coeffs]
    if not c:
        raise ValueError("polynomial potential needs at least one coefficient")
    dc = np.polynomial.polynomial.polyder(c).tolist()
    return Potential1D(V=_horner(c), mass=mass, bracket=bracket, dV=_horner(dc))


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
