"""Quantum-blob and EBK quantization.

Oscillator spectra via symplectic (Williamson) frequencies, 1-D and
separable action-integral spectra with the Maslov half-integer shift, blob
index checks, and the closed-form oscillator density of states for any
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .capacity import CapacityValue
from .core import QuadraticHamiltonian, _positive, _real, _reals, symplectic_eigenvalues
from .errors import (
    LevelNotBound,
    MultiWell,
    NoClassicalRegion,
    NoConvergence,
    NotABlob,
)

BLOB_TOL = 0.05  # default blob_check distance to (n + 1/2) h, in units of h


@dataclass(frozen=True)
class PlanckConfig:
    """Single source for the action quantum; h = 2 pi hbar."""

    hbar: float = 1.0

    def __post_init__(self):
        _positive("hbar", self.hbar)

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass
class Potential1D:
    """Confining 1-D potential V(q) with mass m on a search bracket.

    The callables must accept numpy arrays. The bracket must confine every
    energy that will be requested: V at both edges above E. `dV` is the
    analytic derivative dV/dq (minus the force): turning_points polishes
    roots with it, and its sign change locates the well bottom. A plain
    value: it carries no solver state and can be shared between calls.
    """

    V: Callable[[np.ndarray], np.ndarray]
    dV: Callable[[np.ndarray], np.ndarray]
    mass: float = 1.0
    bracket: tuple = (-50.0, 50.0)

    def __post_init__(self):
        _positive("mass", self.mass)
        lo, hi = self.bracket
        if not -math.inf < lo < hi < math.inf:  # NaN too
            raise ValueError(f"bracket must be finite ends lo < hi, got {self.bracket}")

    def confinement_energy(self) -> float:
        """Largest energy the bracket can confine; V must be finite at both ends."""
        lo, hi = self.bracket
        with np.errstate(all="ignore"):  # an overflow is refused below, by name
            v_lo, v_hi = float(self.V(lo)), float(self.V(hi))
        if not (math.isfinite(v_lo) and math.isfinite(v_hi)):
            raise ValueError(f"V must be finite at the bracket ends, got V({lo}) = {v_lo} "
                             f"and V({hi}) = {v_hi}")
        return min(v_lo, v_hi)


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


def blob_check(cap: CapacityValue, cfg: PlanckConfig, tol: float = BLOB_TOL) -> Optional[int]:
    """Blob index n with |cap - (n + 1/2) h| <= tol * h, if one exists.

    A capacity whose double spacing exceeds max(tol, 4 eps) * h cannot be
    placed on the ladder: its distance to (n + 1/2) h is lost to rounding
    (1e308 once read as a blob), so it is refused. The 4 eps floor keeps
    tol = 0 usable on values below 4h.
    """
    if not tol >= 0:  # NaN too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if cap.infinite:
        raise NotABlob("infinite capacity has no blob index")
    resolution = max(tol, _ULP4) * cfg.h
    if math.ulp(cap.value) > resolution:
        raise ValueError(f"capacity {cap.value!r} has double spacing {math.ulp(cap.value):.3e}, "
                         f"coarser than the tolerance max(tol, 4 eps) * h = {resolution:.3e}")
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


def _crossings(runs: list, E: float) -> np.ndarray:
    """Cells k of the sampled grid with (v[k] < E) != (v[k+1] < E), the sign changes
    of v - E, by one binary search in each monotone run whose end values straddle E."""
    cells = [start - 1 + int(key.searchsorted(-E, "right") if descending
                             else key.searchsorted(E, "left"))
             for start, first, last, key, descending in runs if (first < E) != (last < E)]
    return np.array(cells, dtype=np.intp)


class _Well:
    """The solver state of one spectrum_1d or level_1d call: the confinement energy, the
    well scan (q, v, vmin, runs), which samples V once on _SCAN_POINTS over the bracket
    with the well bottom spliced in where it lies below every sample, that bottom (vmin,
    0, T0), the action at the bracket top once evaluated, and the (E, roots, dV, V''
    estimate) of the last turning-point polish, each a pair but E, which the next one
    starts from (None: start cold)."""

    def __init__(self, pot: Potential1D):
        self.pot, self.e_cap = pot, pot.confinement_energy()
        q = np.linspace(*pot.bracket, _SCAN_POINTS)
        v = np.asarray(pot.V(q), dtype=float)
        x, vmin, period = _well_bottom(pot, q, v)
        self.bottom = (vmin, 0.0, period)
        if vmin < v.min():
            k = int(q.searchsorted(x))
            q = np.concatenate((q[:k], [x], q[k:]))
            v = np.concatenate((v[:k], [vmin], v[k:]))
        self.scan = q, v, float(v.min()), _monotone_runs(v)
        self.top_action = self.warm = None


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


def _sign_change(f, a: float, b: float, xtol: float) -> float:
    """A sign change of f on [a, b], to within xtol, by regula falsi with the Illinois
    rule: the value at an end kept twice running is halved. A point within xtol / 2 of
    an end moves xtol / 2 inside, so the bracket closes around a root once one is
    found; a bracket not halved in three steps is bisected, and one whose ends have the
    same sign goes to _bisect. Stops as _bisect does, at the bracket's midpoint."""
    fa, fb = float(f(a)), float(f(b))
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        return _bisect(f, a, b, xtol)
    kept, widths = None, (math.inf,) * 3
    while True:
        m = 0.5 * (a + b)
        if not (b - a > xtol and a < m < b):
            return m
        x = m
        if b - a <= 0.5 * widths[0]:
            chord = min(max(a - fa * (b - a) / (fb - fa), a + 0.5 * xtol), b - 0.5 * xtol)
            if a < chord < b:
                x = chord
        widths = (*widths[1:], b - a)
        fx = float(f(x))
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):  # the change is in [x, b]
            a, fa = x, fx
            if kept == "b":
                fb *= 0.5
            kept = "b"
        else:
            b, fb = x, fx
            if kept == "a":
                fa *= 0.5
            kept = "a"


def turning_points(well: _Well, E: float) -> tuple[float, float]:
    """Classical turning points V(q) = E bracketing a single well, on a solver's _Well.

    Looks the crossings of E up in the monotone runs of the well scan, which holds the
    well bottom, refuses energies at or below the scan's minimum and multi-well energies,
    and polishes both crossings at once by Newton on dV. Each root starts from the last
    polish's root moved to second order in E where that lands in its crossing cell, else
    from the chord of the scan across the cell. Runs under the solver's np.errstate.
    """
    pot, (q, v, vmin, runs) = well.pot, well.scan
    if not vmin < E:
        raise NoClassicalRegion(f"E={E} is below the potential minimum")
    cells = _crossings(runs, E)
    if cells.size > 2:
        raise MultiWell(f"{cells.size} turning points at E={E}; single well required")
    if cells.size < 2:
        raise NoClassicalRegion(f"bracket does not confine E={E} (V(edges) must exceed E)")
    # Newton on dV, both roots at once, from the warm prediction x0 + t - V'' t^2 / 2 V'
    # (t = (E - E0) / V') where it falls in the cell, else from the chord of the scan
    # across it; bisection on its cell for a root that leaves it or has not settled in
    # 8 steps. The steps run on the two-root array, the tests on its Python floats.
    a, b, x = [], [], []
    for k in cells.tolist():
        (qa, qb), (va, vb) = q[k:k + 2].tolist(), v[k:k + 2].tolist()
        a.append(qa)
        b.append(qb)
        x.append(qa + (E - va) / (vb - va) * (qb - qa))
    if well.warm:
        E0, x0, d0, c0 = well.warm
        for i in range(2):
            if d0[i]:
                t = (E - E0) / d0[i]
                guess = x0[i] + t - 0.5 * c0[i] * t * t / d0[i]
                if a[i] <= guess <= b[i]:
                    x[i] = guess
    x, f_tol = np.array(x), _ULP4 * abs(E)
    x_last = d_last = None
    for _ in range(8):
        f = np.asarray(pot.V(x), dtype=float) - E
        d = np.asarray(pot.dV(x), dtype=float)
        step = f / d
        x_prev, d_prev, x_last, d_last = x_last, d_last, x, d
        x = x - step
        # a step within 4 ulp of x, or a residual at the rounding level of E;
        # a NaN step or residual is not settled
        (s0, s1), (r0, r1), (f0, f1) = step.tolist(), x.tolist(), f.tolist()
        settled = (abs(s0) <= _ULP4 * abs(r0) or abs(f0) <= f_tol,
                   abs(s1) <= _ULP4 * abs(r1) or abs(f1) <= f_tol)
        if settled[0] and settled[1]:
            break
    # V'' for the next prediction: the slope of dV between the last two iterates,
    # 0 where there is one or they are within 4 ulp of each other
    roots, d_at, curvature = x.tolist(), d_last.tolist(), [0.0, 0.0]
    if x_prev is not None:
        for i, (xl, xp, dp) in enumerate(zip(x_last.tolist(), x_prev.tolist(),
                                             d_prev.tolist())):
            if abs(xl - xp) > _ULP4 * abs(xl):
                curvature[i] = (d_at[i] - dp) / (xl - xp)
    for i in range(2):
        if not (settled[i] and a[i] <= roots[i] <= b[i]):
            roots[i] = _bisect(lambda s: pot.V(s) - E, a[i], b[i])
    well.warm = (E, roots, d_at, curvature)
    return roots[0], roots[1]


_QUAD_NODES = 256  # Gauss-Legendre nodes of every action and period integral


@lru_cache(maxsize=1)
def _gauss_legendre():
    """sin(theta) and the folded weights w cos(theta) at the Gauss-Legendre nodes x,
    theta = pi x / 2."""
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    return np.sin(0.5 * math.pi * x), w * np.cos(0.5 * math.pi * x)


def _action_period(well: _Well, E: float) -> tuple[float, float]:
    """Loop action A(E) = 2 int sqrt(2m (E - V)) dq between the turning points and
    period T(E) = dA/dE = 2 int m/p dq on the same nodes. The substitution
    q = mid + half sin(theta), with Gauss-Legendre in theta, absorbs the square-root
    endpoint singularity, so both integrands are smooth and each integral is one dot
    product of the folded weights with p or 1/p. Runs under the caller's np.errstate:
    a p that rounds to 0 at a node makes T infinite, and Newton bisects."""
    pot, (q_minus, q_plus) = well.pot, turning_points(well, E)
    mid = 0.5 * (q_plus + q_minus)
    half = 0.5 * (q_plus - q_minus)
    sin, wc = _gauss_legendre()
    p = E - np.asarray(pot.V(mid + half * sin))
    p *= 2.0 * pot.mass
    p = np.sqrt(np.maximum(p, 0.0, out=p), out=p)
    return math.pi * half * float(wc @ p), math.pi * half * pot.mass * float(wc @ (1.0 / p))


def _well_bottom(pot: Potential1D, q: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """The well bottom (x, vmin, T0) of the samples v = V(q) on an even grid q: x is where
    dV changes sign in the argmin cell and its neighbour, located by _sign_change to 1e-13
    of those two cells, vmin = V(x), and T0 = 2 pi sqrt(m / V'') the harmonic period, with
    V'' the second difference D(h) of the samples (inf if not positive). (vmin, 0, T0) is
    the bottom's point of the action curve.

    Regula falsi is slow on a multiple root, so it runs on dV^(1/r), r the order of the
    root read off the scan: V ~ |q - q*|^(r+1) has D(2h) / D(h) = 2^(r+1) where q* is a
    sample, and above 8 for r = 3 wherever q* lies in the cell. The estimate is rounded
    to an odd r, the order at a smooth bottom.
    """
    k = min(max(int(np.argmin(v)), 1), q.size - 2)
    a, b = float(q[k - 1]), float(q[k + 1])
    below, at, above = v[k - 1:k + 2].tolist()
    second = below - 2.0 * at + above  # D(h)
    order = 1
    if 2 <= k <= q.size - 3 and second > 0:
        ratio = (float(v[k - 2]) - 2.0 * at + float(v[k + 2])) / second
        if 8.0 < ratio < math.inf:
            order = 2 * round(math.log2(ratio) / 2.0 - 1.0) + 1

    def root(s):
        d = float(pot.dV(s))
        return math.copysign(abs(d) ** (1.0 / order), d)

    x = _sign_change(root, a, b, 1e-13 * (b - a))
    curvature = second / float(q[1] - q[0]) ** 2
    period = 2.0 * math.pi * math.sqrt(pot.mass / curvature) if curvature > 0 else math.inf
    return x, float(pot.V(x)), period


# Action evaluations allowed per level. Levels take at most 13 in the ebk-spectra
# benchmark pass and 7 in the test suite; pure bisection from a bracket 2^90 times
# wider than its 4-ulp stop would take 90.
_MAX_EVALUATIONS = 100


def _solve_level(well: _Well, target_action: float, below: tuple,
                 guess: float = math.nan) -> tuple[float, float, float]:
    """(E, A, T) where A(E) = target_action, by Newton with slope dA/dE = T.

    Starts from `below`, a point (E, A, T) with A < target_action, and takes its first
    step to `guess` if that lies strictly between E and the bracket's top. The top, just
    under the well's confinement energy, is evaluated only when a step reaches it or fails
    before that, and at most once per well, which keeps its action. A step fails if it
    leaves the bracket, has no finite T, or does not halve the last step once the top is
    `reached` (known to reach the target); it then bisects. Stops at a step of 4 ulp;
    raises NoConvergence where that takes more than _MAX_EVALUATIONS steps. The scan holds
    the well bottom, so an energy above `below` without two turning points is one the
    bracket no longer confines: LevelNotBound. The first evaluation's turning points
    start cold, each later one's from the previous one's.
    The evaluations run under one np.errstate that ignores floating-point warnings.
    """
    E, A, T = below
    e_cap = well.e_cap
    e_top = e_cap * (1 - 1e-12) if e_cap > 0 else e_cap + abs(e_cap) * 1e-12
    e_lo, e_hi, reached, last = E, e_top, False, math.inf
    step = guess - E if e_lo < guess < e_hi else None
    well.warm = None
    with np.errstate(all="ignore"):  # for every evaluation of the level
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
            if top and well.top_action is not None:
                A = well.top_action
            else:
                try:
                    A, T = _action_period(well, E)
                except (NoClassicalRegion, MultiWell) as exc:
                    if not top:
                        if isinstance(exc, MultiWell):
                            raise
                        raise LevelNotBound(
                            "bracket stopped confining before the target action")
                    A = -math.inf
                if top:
                    well.top_action = A
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
    well = _Well(pot)
    return _solve_level(well, (n + 0.5) * cfg.h, well.bottom)[:2]


def spectrum_1d(pot: Potential1D, n_max: int, cfg: PlanckConfig) -> SpectrumResult:
    """Librational EBK levels n = 0..n_max: solve loop action = (n + 1/2) h.

    Each level carries Maslov index 2 (two caustic touches per loop). Level 0 starts
    from the well bottom, each later one from a Hermite extrapolation of E(A) through the
    last two points solved (the bottom among them for level 1). Levels above
    dissociation are skipped with a notice.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    well = _Well(pot)
    below, prev = well.bottom, None
    result = SpectrumResult(entries=[], hbar=cfg.hbar)
    for n in range(n_max + 1):
        target = (n + 0.5) * cfg.h
        guess = math.nan if prev is None else _hermite_start(prev, below, target)
        try:
            prev, below = below, _solve_level(well, target, below, guess)
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


def density_of_states(H: QuadraticHamiltonian, E: float, cfg: PlanckConfig) -> float:
    """States per unit energy of N oscillator modes, for any spectrum:
    g(E) = E^(N-1) / ((N-1)! prod_j hbar w_j), the E-derivative of the
    phase-space volume (2 pi E)^N / (N! prod_j w_j) counted in cells h^N.

    The product is taken as (hbar w_1)^N prod_j (w_j / w_1) with w_1 the
    fastest frequency, so an isotropic spectrum gives (1 / hbar w)^N
    E^(N-1) / (N-1)! with no rounding from the ratios.
    """
    _positive("energy", E)
    omegas = symplectic_eigenvalues(H)
    N = omegas.size
    omega = float(omegas[0])
    return ((1.0 / (cfg.hbar * omega)) ** N * E ** (N - 1) / math.factorial(N - 1)
            * float(np.prod(omega / omegas)))


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

    def dV(q):
        f = 4.0 * coeff * q  # 4 coeff q^3 in that order, on one fresh array
        f *= q
        f *= q
        return f

    return Potential1D(V=lambda q: coeff * np.square(np.square(q)), mass=mass, bracket=bracket,
                       dV=dV)


def _horner(c: list):
    """q -> sum_k c[k] q^k on float arrays, in the operation order of numpy's
    polyval, updating one fresh array in place."""
    def value(q):
        q = np.asarray(q, dtype=float)
        y = c[-1] + q * 0
        for ck in c[-2::-1]:
            y *= q
            y += ck
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
    if kind not in ("harmonic", "morse", "quartic", "polynomial"):
        raise ValueError(f"unknown potential kind {kind!r}")

    def real(key, default):
        return _real(f"{kind} potential key {key!r}", desc.pop(key, default))

    kwargs = {"mass": real("mass", 1.0)}
    if "bracket" in desc:
        kwargs["bracket"] = tuple(_reals(f"{kind} potential key 'bracket'", desc.pop("bracket"), 2))
    if kind == "harmonic":
        factory = harmonic_potential
        kwargs["omega"] = real("omega", 1.0)
    elif kind == "morse":
        factory = morse_potential
        kwargs.update(D=real("D", 10.0), a=real("a", 1.0))
    elif kind == "quartic":
        factory = quartic_potential
        kwargs["coeff"] = real("coeff", 0.25)
    else:
        if "coeffs" not in desc:
            raise ValueError("polynomial potential is missing key 'coeffs'")
        factory = polynomial_potential
        kwargs["coeffs"] = _reals("polynomial potential key 'coeffs'", desc.pop("coeffs"))
    if desc:
        raise ValueError(f"{kind} potential has unknown key {next(iter(desc))!r}")
    return factory(**kwargs)
