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
    """Confining 1-D potential V(q) with mass m, carrying its own inverse.

    V(q) and its analytic derivative dV(q, scale=1, out=None) = scale dV/dq (minus the
    force, times scale) accept numpy arrays, complex ones included; dV writes into `out`
    where one is given and returns it, so it serves as a `FlowSpec.grad_V`.
    `bottom` = (vmin, k, w) is the leading Taylor term V - vmin ~ (w |q - x|)^k at the
    well bottom x, and `top` the energy from which the well no longer confines (inf:
    never). `inverse(E)` gives the turning points q- < q+ of V(q) = E for vmin < E < top.
    A plain value: it carries no solver state and can be shared between calls.
    """

    V: Callable[[np.ndarray], np.ndarray]
    dV: Callable[..., np.ndarray]
    inverse: Callable[[float], tuple]
    bottom: tuple
    top: float = math.inf
    mass: float = 1.0

    def __post_init__(self):
        _positive("mass", self.mass)


@dataclass(frozen=True)
class SpectrumEntry:
    quantum_numbers: tuple
    energy: float
    actions: tuple
    maslov_per_loop: tuple


@dataclass
class SpectrumResult:
    entries: list
    skipped: list = field(default_factory=list)  # levels above dissociation, with notices


def blob_check(cap: float, cfg: PlanckConfig, tol: float = BLOB_TOL) -> Optional[int]:
    """Blob index n with |cap - (n + 1/2) h| <= tol * h, if one exists.

    A NaN or negative capacity is refused, and an infinite one (math.inf)
    has no index. A capacity whose double spacing exceeds max(tol, 4 eps) * h
    cannot be placed on the ladder: its distance to (n + 1/2) h is lost to
    rounding (1e308 once read as a blob), so it is refused. The 4 eps floor
    keeps tol = 0 usable on values below 4h.
    """
    if not cap >= 0:  # NaN too
        raise ValueError(f"capacity must be nonnegative, got {cap}")
    if not tol >= 0:  # NaN too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if math.isinf(cap):
        raise NotABlob("infinite capacity has no blob index")
    resolution = max(tol, _ULP4) * cfg.h
    if math.ulp(cap) > resolution:
        raise ValueError(f"capacity {cap!r} has double spacing {math.ulp(cap):.3e}, "
                         f"coarser than the tolerance max(tol, 4 eps) * h = {resolution:.3e}")
    x = cap / cfg.h - 0.5
    n = round(x)
    if n >= 0 and abs(cap - (n + 0.5) * cfg.h) <= tol * cfg.h:
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


_ULP4 = 4 * float(np.finfo(float).eps)  # 4 ulp of 1
_EXACT_START = 4 * _ULP4  # a level within this of the Taylor start lies on it to rounding


def turning_points(pot: Potential1D, E: float) -> tuple[float, float]:
    """Classical turning points q- < q+ of V(q) = E about the well bottom, from the
    potential's own inverse. Energies at or below the bottom, or at or above the top of
    the well, have none (NoClassicalRegion). Runs under the solver's np.errstate.
    """
    if not pot.bottom[0] < E:
        raise NoClassicalRegion(f"E={E} is below the potential minimum")
    if not E < pot.top:
        raise NoClassicalRegion(f"E={E} is not below the top of the well at {pot.top}")
    return pot.inverse(E)


class _Well:
    """The solver state of one spectrum_1d or level_1d call: the potential, and the
    action at the top of the well once evaluated."""

    def __init__(self, pot: Potential1D):
        self.pot, self.top_action = pot, None


_QUAD_NODES = 256  # Gauss-Legendre nodes of every action and period integral


@lru_cache(maxsize=1)
def _gauss_legendre():
    """sin(theta) and the folded weights w cos(theta) at the Gauss-Legendre nodes x,
    theta = pi x / 2."""
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    return np.sin(0.5 * math.pi * x), w * np.cos(0.5 * math.pi * x)


def _action_period(pot: Potential1D, E: float) -> tuple[float, float]:
    """Loop action A(E) = 2 int sqrt(2m (E - V)) dq between the turning points and
    period T(E) = dA/dE = 2 int m/p dq on the same nodes. The substitution
    q = mid + half sin(theta), with Gauss-Legendre in theta, absorbs the square-root
    endpoint singularity, so both integrands are smooth and each integral is one dot
    product of the folded weights with p or 1/p. Runs under the caller's np.errstate:
    a p that rounds to 0 at a node makes T infinite, and Newton bisects."""
    q_minus, q_plus = turning_points(pot, E)
    mid = 0.5 * (q_plus + q_minus)
    half = 0.5 * (q_plus - q_minus)
    sin, wc = _gauss_legendre()
    p = E - np.asarray(pot.V(mid + half * sin))
    p *= 2.0 * pot.mass
    p = np.sqrt(np.maximum(p, 0.0, out=p), out=p)
    return math.pi * half * float(wc @ p), math.pi * half * pot.mass * float(wc @ (1.0 / p))


def _bottom_start(pot: Potential1D, target_action: float) -> float:
    """E at target_action on the leading Taylor term V - vmin = (w |q - x|)^k at the well
    bottom, whose action is A = 4 sqrt(2m) B_k (E - vmin)^(1/2 + 1/k) / w with
    B_k = int_0^1 sqrt(1 - u^k) du = Gamma(1 + 1/k) Gamma(3/2) / Gamma(3/2 + 1/k).
    Exact for the harmonic and quartic wells; at k = 2 it is vmin + A / T0, T0 the
    harmonic period. E - vmin is the power 2k / (k + 2) >= 1 of A w / (4 sqrt(2m) B_k),
    so it leaves the double range only where that base does, not where C = w^k would
    (C of `harmonic omega=1e-300` is 0). NaN where w is NaN, inf where E - vmin
    overflows."""
    vmin, k, w = pot.bottom
    b = math.gamma(1.0 + 1.0 / k) * math.gamma(1.5) / math.gamma(1.5 + 1.0 / k)
    base = target_action * w / (4.0 * math.sqrt(2.0 * pot.mass) * b)
    try:
        return vmin + base ** (2.0 * k / (k + 2.0))
    except OverflowError:
        return math.inf


def _split(a: float, b: float) -> float:
    """The point that bisects the bracket with ends a and b: their geometric mean where
    both lie on one side of 0 and span more than three decades, the nearer end floored at
    2^-52 of the farther (so an end at 0 is approached 26 octaves a step), else their
    midpoint."""
    near, far = sorted((abs(a), abs(b)))
    near = max(near, far * 2.0 ** -52)
    if far > 1e3 * near and (min(a, b) >= 0 or max(a, b) <= 0):
        return math.copysign(math.sqrt(near) * math.sqrt(far), a + b)
    return 0.5 * (a + b)


def _newton_settles(E: float, step: float, T: float, curvature: float, stop: float) -> bool:
    """Whether the Newton point E + step on A(E) lies within `stop` of the level: its
    error is about |A''| step^2 / (2 T), with A'' = dT/dE = `curvature`. False where
    the curvature is not finite."""
    return abs(curvature) * step * step <= 2.0 * T * stop


# Action evaluations allowed per level. Levels take at most 5 in the ebk-spectra
# benchmark (seeds 1 to 5): a harmonic or quartic level takes 1, a Morse level 2 or 3
# and a polynomial one 2 or 3 in quantize-1d, and a Morse level of quantize-separable
# whose start lies past dissociation 3 to 5; 38 from a start 200 decades off and 66
# from one 8 decades low with no period to step by (tests). Pure bisection from a
# bracket 2^90 times wider than its 4-ulp stop would take 90.
_MAX_EVALUATIONS = 100


def _solve_level(well: _Well, target_action: float, below: tuple,
                 guess: float) -> tuple[float, float, float]:
    """(E, A, T) where A(E) = target_action, by Newton with slope dA/dE = T.

    Starts from `below`, a point (E, A, T) with A < target_action, and takes its first
    step to `guess` if that lies strictly between E and the top of the well. A step
    fails if it leaves the bracket [e_lo, e_hi] of energies known to lie below and above
    the level, has no finite T, or does not halve the last step once the level is
    `reached` (bracketed from above). A failed step bisects once the level is reached,
    in log(E - vmin) while the bracket spans more than three decades (`_split`). Before
    that it goes to the top, just under the well's `top`, which is evaluated at most once
    per well and keeps its action; in a well with no top it multiplies E - vmin by 4.
    Right after the top, while the bracket's lower end is still the bottom, a failed step
    goes instead to the quadratic E(A) through the bottom and the top, whose slope
    dE/dA = 1/T is 0 there (`_hermite_start`): exact for Morse.
    Stops at a step of 4 ulp, or without evaluating again where the Newton point's
    predicted error is within that stop (`_newton_settles`, with dT/dE from the last
    two evaluations of the level): then it returns E + step, with action A + T step and
    period T + step dT/dE. It never returns the start point, nor an unevaluated top.
    Raises NoConvergence where that takes more than _MAX_EVALUATIONS steps or an action
    is NaN. An energy below the top without two turning points (one a polynomial's
    bracket no longer confines, or the bottom itself, where E - vmin underflows) is
    LevelNotBound.
    The evaluations run under one np.errstate that ignores floating-point warnings.
    """
    pot = well.pot
    vmin, E, A, T = pot.bottom[0], *below
    e_top = pot.top * (1 - math.copysign(1e-12, pot.top))
    e_lo, e_hi, reached, last = E, e_top, False, math.inf
    e_prev, t_prev = E, math.inf  # the evaluation before the last in this level
    step = guess - E if e_lo < guess < e_hi else None
    with np.errstate(all="ignore"):  # for every evaluation of the level
        for steps in range(_MAX_EVALUATIONS + 1):
            if step is None:
                step = (target_action - A) / T if T > 0 else math.nan
                stop = _ULP4 * max(abs(E), abs(below[0]))
                if (not (T < math.inf and e_lo <= E + step <= e_hi)
                        or (reached and abs(step) > 0.5 * abs(last))):
                    if reached:
                        if E == e_top and e_lo == vmin:
                            # E(A) through the bottom and the top, where dE/dA = 1/T = 0
                            mid = _hermite_start((vmin, 0.0, math.inf), (E, A, T),
                                                 target_action)
                        else:
                            mid = vmin + _split(e_lo - vmin, e_hi - vmin)
                        if not e_lo < mid < e_hi:
                            mid = 0.5 * (e_lo + e_hi)
                    else:
                        mid = e_top if e_top < math.inf else vmin + 4.0 * (E - vmin)
                    step = mid - E
                elif E != e_prev and (reached or E + step < e_top):
                    # A'' = dT/dE from the periods of the last two evaluations of this level
                    curvature = (T - t_prev) / (E - e_prev)
                    if _newton_settles(E, step, T, curvature, stop):
                        return E + step, A + T * step, T + curvature * step
                if E != below[0] and abs(step) <= stop and (reached or E + step < e_top):
                    return E, A, T
            if steps == _MAX_EVALUATIONS:
                break
            e_prev, t_prev = E, T if steps else math.inf  # the start is not of this level
            E, last, step = E + step, step, None
            top = E == e_top and not reached
            if top and well.top_action is not None:
                A = well.top_action
            else:
                try:
                    A, T = _action_period(pot, E)
                except (NoClassicalRegion, MultiWell) as exc:
                    if not top:
                        if isinstance(exc, MultiWell):
                            raise
                        if E == vmin:
                            raise LevelNotBound(f"action {target_action} lies within rounding "
                                                f"of the bottom: E - vmin underflows at E={E}")
                        raise LevelNotBound(f"no turning points below the target action: {exc}")
                    A = -math.inf
                if top:
                    well.top_action = A
            if math.isnan(A):  # turning points or V out of range: no level to report
                raise NoConvergence(f"action {target_action} not converged: the action at "
                                    f"E={E} is not a number")
            if A < target_action:
                if top:
                    raise LevelNotBound(
                        f"action {target_action} not reached below dissociation at E={pot.top}"
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
    well bottom (A = 0), whose period is not used. NaN on a division by 0."""
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
    target = (n + 0.5) * cfg.h
    bottom = (pot.bottom[0], 0.0, math.inf)
    return _solve_level(_Well(pot), target, bottom, _bottom_start(pot, target))[:2]


def spectrum_1d(pot: Potential1D, n_max: int, cfg: PlanckConfig) -> SpectrumResult:
    """Librational EBK levels n = 0..n_max: solve loop action = (n + 1/2) h.

    Each level carries Maslov index 2 (two caustic touches per loop). Level 0 starts
    from the leading Taylor term at the well bottom, and so does each later one while
    the level below it lies on that term's energy to rounding, as in any pure-power
    well; otherwise a level starts from a Hermite extrapolation of E(A) through the last
    two points solved (the bottom among them for level 1). Levels above dissociation
    are skipped with a notice.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    well = _Well(pot)
    vmin = pot.bottom[0]
    below, prev, exact = (vmin, 0.0, math.inf), None, True
    result = SpectrumResult(entries=[])
    for n in range(n_max + 1):
        target = (n + 0.5) * cfg.h
        start = _bottom_start(pot, target)
        guess = start if exact else _hermite_start(prev, below, target)
        try:
            prev, below = below, _solve_level(well, target, below, guess)
        except LevelNotBound as exc:
            result.skipped.append({"n": n, "reason": str(exc)})
            continue
        E, action, _ = below
        exact = abs(E - start) <= _EXACT_START * (start - vmin)
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


def harmonic_potential(omega: float = 1.0, mass: float = 1.0) -> Potential1D:
    _positive("harmonic omega", omega)
    _positive("mass", mass)

    def inverse(E):
        r = math.sqrt(2.0 * E / mass) / omega
        return -r, r

    # (omega q)^2, not omega^2 q^2: omega^2 underflows from omega of about 1e-154
    return Potential1D(V=lambda q: 0.5 * mass * np.square(omega * q),
                       dV=lambda q, scale=1.0, out=None: np.multiply(
                           q, scale * mass * omega**2, out=out), inverse=inverse,
                       bottom=(0.0, 2, omega * math.sqrt(0.5 * mass)), mass=mass)


def morse_potential(D: float = 10.0, a: float = 1.0, mass: float = 1.0) -> Potential1D:
    _finite("morse D", D)
    if D <= 0:
        raise ValueError(f"morse D must be positive, got {D}: the potential is not confining")
    _positive("morse a", a)

    def dV(q, scale=1.0, out=None):
        x = np.expm1(-a * q)
        return np.multiply(-2.0 * D * a * scale * x, 1.0 + x, out=out)

    def inverse(E):
        s = math.sqrt(E / D)  # below 1, but it rounds to 1 within 1 ulp of D
        return -math.log1p(s) / a, -math.log1p(-s) / a if s < 1.0 else math.inf

    return Potential1D(V=lambda q: D * np.square(np.expm1(-a * q)), dV=dV, inverse=inverse,
                       bottom=(0.0, 2, a * math.sqrt(D)), top=D, mass=mass)


def quartic_potential(coeff: float = 0.25, mass: float = 1.0) -> Potential1D:
    _finite("quartic coeff", coeff)
    if coeff <= 0:
        raise ValueError(f"quartic coeff must be positive, got {coeff}: the potential is "
                         "not confining")

    def dV(q, scale=1.0, out=None):
        c = 4.0 * coeff * scale  # c q^3 in that order, on `out` or one fresh value
        f = c * q if out is None else np.multiply(q, c, out=out)
        f *= q
        f *= q
        return f

    def inverse(E):
        r = math.sqrt(math.sqrt(E / coeff))
        return -r, r

    return Potential1D(V=lambda q: coeff * np.square(np.square(q)), dV=dV, inverse=inverse,
                       bottom=(0.0, 4, math.sqrt(math.sqrt(coeff))), mass=mass)


def _horner(c: list):
    """(q, scale=1, out=None) -> sum_k scale c[k] q^k on numpy arrays, in the operation
    order of numpy's polyval, updating `out` or one fresh array in place."""
    def value(q, scale=1.0, out=None):
        q = np.asarray(q)
        y = np.multiply(q, 0, out=out)
        y += c[-1] * scale
        for ck in c[-2::-1]:
            y *= q
            y += ck * scale
        return y

    return value


def _roots(c: list) -> np.ndarray:
    """The roots of sum c[k] q^k as np.roots finds them, the eigenvalues of the companion
    matrix, but with the leading coefficients dropped while they are zero or so small
    that another divided by them overflows: the roots they add lie beyond 1e300 or so."""
    lead = len(c) - 1
    while lead > 0 and not (c[lead] and max(map(abs, c[:lead])) / abs(c[lead]) < math.inf):
        lead -= 1
    companion = np.eye(lead, k=-1)
    companion[:1] = [-ck / c[lead] for ck in reversed(c[:lead])]
    return np.linalg.eigvals(companion)


_MAX_NEWTON = 200  # safeguarded Newton steps per polynomial turning point


def polynomial_potential(coeffs, mass: float = 1.0, bracket=(-30.0, 30.0)) -> Potential1D:
    """V(q) = sum_k coeffs[k] q^k on the bracket (lo, hi), which holds the well: its top
    is the lower of V at the two ends. The real parts of the roots of V' inside the
    bracket (the companion eigenvalues, computed once) cut it into pieces on which V is
    monotone, and the bottom is the lowest V at these cuts, which include every
    stationary point; with none there, the bottom is lo, at or above the top, and no level
    is bound. The turning points at E lie in the pieces across which V - E changes sign:
    MultiWell where more than two do. In each, safeguarded Newton (Numerical Recipes'
    rtsafe) with Halley's correction takes V, V' and V'' from one scalar Horner pass a
    step; a step that leaves the piece's bracket of the root, or does not halve the step
    before the last, bisects it (`_split`)."""
    c = [_finite("polynomial coefficient", float(ck)) for ck in coeffs]
    if not c:
        raise ValueError("polynomial potential needs at least one coefficient")
    lo, hi = bracket
    if not -math.inf < lo < hi < math.inf:  # NaN too
        raise ValueError(f"bracket must be finite ends lo < hi, got {bracket}")
    dc = np.polynomial.polynomial.polyder(c).tolist()
    V, dV = _horner(c), _horner(dc)

    def horner(q):
        """V(q), V'(q) and V''(q) / 2 by one Horner pass over c, cheaper than numpy calls."""
        v = d = e = 0.0
        for ck in reversed(c):
            e = e * q + d
            d = d * q + v
            v = v * q + ck
        return v, d, e

    v_lo, v_hi = horner(lo)[0], horner(hi)[0]  # the bits of V, in its order
    if not (math.isfinite(v_lo) and math.isfinite(v_hi)):
        raise ValueError(f"V must be finite at the bracket ends, got V({lo}) = {v_lo} "
                         f"and V({hi}) = {v_hi}")
    with np.errstate(all="ignore"):
        inner = sorted(r for r in _roots(dc).real.tolist() if lo < r < hi)
    cuts, v_cut = [lo, *inner, hi], [v_lo, *(horner(r)[0] for r in inner), v_hi]
    x, vmin = min(zip(inner, v_cut[1:-1]), key=lambda point: point[1], default=(lo, v_lo))
    taylor = c.copy()  # the Taylor coefficients at x, by repeated synthetic division
    for j in range(len(c)):
        for i in range(len(c) - 2, j - 1, -1):
            taylor[i] += x * taylor[i + 1]
    k = next((j for j in range(2, len(c)) if taylor[j] != 0), 2)
    C = taylor[k] if k < len(c) else 0.0
    w = C ** (1.0 / k) if C >= 0 else math.nan
    # on each side of x, the Taylor terms t_j |q - x|^j that raise V there
    terms = {side: [(1.0 / j, t * side ** j) for j, t in enumerate(taylor) if j >= 2
                    and t * side ** j > 0] for side in (-1, 1)}

    def crossing(E, i):
        """The root of V = E in the piece between cuts i and i + 1, V - E <= 0 at `neg`
        and > 0 at `pos`. It starts from the nearest of the roots of vmin + t_j |q - x|^j
        = E on the piece's side of x, each a bound on it where every term raises V."""
        a, b = cuts[i], cuts[i + 1]
        neg, pos = (a, b) if v_cut[i] <= E else (b, a)
        side = 1 if a >= x else -1
        q = x + side * min([((E - vmin) / t) ** p for p, t in terms[side]], default=math.nan)
        if not a < q < b:
            q = _split(a, b)
        older = last = b - a
        for _ in range(_MAX_NEWTON):
            v, d, e = horner(q)
            f = v - E
            if f < 0:
                neg = q
            elif f == 0:
                return q
            else:  # NaN too: V beyond range
                pos = q
            step = math.inf
            if d:
                step = f / d
                drift = step * e / d  # the Newton point q - step is off by about drift step
                if abs(drift * step) <= _ULP4 * abs(q):
                    return q - step / (1.0 - drift)
                step /= 1.0 - drift  # Halley's step
            if not (min(neg, pos) < q - step < max(neg, pos)) or abs(step) > 0.5 * abs(older):
                step = q - _split(neg, pos)
                if abs(step) <= _ULP4 * abs(q):  # the bracket has closed
                    return q - step
            older, last = last, step
            q -= step
        raise NoConvergence(f"turning point at E={E} not converged in {_MAX_NEWTON} steps")

    def inverse(E):
        above = [v > E for v in v_cut]
        pieces = [i for i in range(len(cuts) - 1) if above[i] != above[i + 1]]
        if len(pieces) > 2:
            raise MultiWell(f"{len(pieces)} turning points at E={E}; single well required")
        if len(pieces) < 2:
            raise NoClassicalRegion(f"bracket does not confine E={E} (V(edges) must exceed E)")
        return crossing(E, pieces[0]), crossing(E, pieces[1])

    return Potential1D(V=V, dV=dV, inverse=inverse, bottom=(vmin, k, w),
                       top=min(v_lo, v_hi), mass=mass)


def make_potential(desc: dict) -> Potential1D:
    """Build a Potential1D from a JSON descriptor {"kind": ..., params...}."""
    desc = dict(desc)
    kind = desc.pop("kind", None)
    if kind not in ("harmonic", "morse", "quartic", "polynomial"):
        raise ValueError(f"unknown potential kind {kind!r}")

    def real(key, default):
        return _real(f"{kind} potential key {key!r}", desc.pop(key, default))

    kwargs = {"mass": real("mass", 1.0)}
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
        if "bracket" in desc:
            kwargs["bracket"] = tuple(_reals("polynomial potential key 'bracket'",
                                             desc.pop("bracket"), 2))
    if desc:
        raise ValueError(f"{kind} potential has unknown key {next(iter(desc))!r}")
    return factory(**kwargs)
