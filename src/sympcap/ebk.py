"""Quantum-blob and EBK quantization.

Oscillator spectra via symplectic (Williamson) frequencies, 1-D and
separable action-integral spectra with the Maslov half-integer shift, blob
index checks, and the closed-form oscillator density of states for any
spectrum.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (QuadraticHamiltonian, _positive, _positive_integer, _read, _real, _reals,
                   symplectic_eigenvalues)
from .errors import (
    LevelNotBound,
    MultiWell,
    NoClassicalRegion,
    NoConvergence,
    NotABlob,
)

BLOB_TOL = 0.05  # default blob_check distance to (n + 1/2) h, in units of h


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass
class Potential:
    """Potential V(q) on n_modes degrees of freedom with mass m: the Hamiltonian
    |p|^2 / 2m + V(q) that EBK quantizes and `FlowSpec` flows.

    V maps (..., n_modes) to (...), or acts elementwise with one mode, as the four kinds
    do, on complex q too. dV(q, scale=1, out=None) = scale dV/dq (minus the force, times
    scale) writes into `out`, of q's shape, where one is given and returns it. EBK needs a
    one-mode well: `bottom` = (vmin, k, w) is the leading Taylor term V - vmin ~
    (w |q - x|)^k at the well bottom x, `top` the energy from which it no longer confines
    (inf: never), and `inverse(E)` the turning points q- < q+ of V(q) = E for vmin < E <
    top as numpy values, elementwise over an array of energies. A plain value: it carries
    no solver state and can be shared between calls.
    """

    V: Callable[[np.ndarray], np.ndarray]
    dV: Callable[..., np.ndarray]
    inverse: Optional[Callable[[np.ndarray], tuple]] = None
    bottom: Optional[tuple] = None
    top: float = math.inf
    mass: float = 1.0
    n_modes: int = 1

    def __post_init__(self):
        _positive("mass", self.mass)
        self.n_modes = _positive_integer("n_modes", self.n_modes)


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


def blob_check(cap: float, hbar: float, tol: float = BLOB_TOL) -> Optional[int]:
    """Blob index n with |cap - (n + 1/2) h| <= tol * h, if one exists.

    A NaN or negative capacity is refused, and an infinite one (math.inf)
    has no index. A capacity whose double spacing exceeds max(tol, 4 eps) * h
    cannot be placed on the ladder: its distance to (n + 1/2) h is lost to
    rounding (1e308 once read as a blob), so it is refused. The 4 eps floor
    keeps tol = 0 usable on values below 4h.
    """
    _positive("hbar", hbar)
    h = 2.0 * math.pi * hbar
    if not cap >= 0:  # NaN too
        raise ValueError(f"capacity must be nonnegative, got {cap}")
    if not tol >= 0:  # NaN too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if math.isinf(cap):
        raise NotABlob("infinite capacity has no blob index")
    resolution = max(tol, _ULP4) * h
    if math.ulp(cap) > resolution:
        raise ValueError(f"capacity {cap!r} has double spacing {math.ulp(cap):.3e}, "
                         f"coarser than the tolerance max(tol, 4 eps) * h = {resolution:.3e}")
    x = cap / h - 0.5
    n = round(x)
    if n >= 0 and abs(cap - (n + 0.5) * h) <= tol * h:
        return n
    return None


def quantize_quadratic(H: QuadraticHamiltonian, n, hbar: float) -> SpectrumEntry:
    """E = sum_j (n_j + 1/2) hbar w_j from the symplectic spectrum of M.

    Quantum numbers pair with the frequencies in ascending order (mode 1 is
    the slowest); each basis loop carries action (n_j + 1/2) h and Maslov
    index 2.
    """
    _positive("hbar", hbar)
    n = tuple(int(k) for k in np.atleast_1d(n))
    if any(k < 0 for k in n):
        raise ValueError(f"quantum numbers must be nonnegative, got {n}")
    omegas = symplectic_eigenvalues(H)[::-1]  # ascending
    if len(n) != omegas.size:
        raise ValueError(f"expected {omegas.size} quantum numbers, got {len(n)}")
    energy = float(sum((k + 0.5) * hbar * w for k, w in zip(n, omegas.tolist())))
    actions = tuple((k + 0.5) * (2.0 * math.pi * hbar) for k in n)
    return SpectrumEntry(
        quantum_numbers=n,
        energy=energy,
        actions=actions,
        maslov_per_loop=(2,) * len(n),
    )


_ULP4 = 4 * float(np.finfo(float).eps)  # 4 ulp of 1


def turning_points(pot: Potential, E):
    """Classical turning points q- < q+ of V(q) = E about the well bottom, from the
    potential's own inverse, elementwise over an array of energies. Energies at or below
    the bottom, or at or above the top of the well, have none (NoClassicalRegion, naming
    the first). Runs under the solver's np.errstate.
    """
    E = np.asarray(E, dtype=float)
    for e in E.reshape(-1).tolist():
        if not pot.bottom[0] < e:
            raise NoClassicalRegion(f"E={e} is below the potential minimum")
        if not e < pot.top:
            raise NoClassicalRegion(f"E={e} is not below the top of the well at {pot.top}")
    return pot.inverse(E[()])  # one energy as a numpy scalar, which numpy takes fastest


_QUAD_NODES = 256  # Gauss-Legendre nodes of every action and period integral


@lru_cache(maxsize=1)
def _gauss_legendre():
    """sin(theta) and the folded weights w cos(theta) at the Gauss-Legendre nodes x,
    theta = pi x / 2."""
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    return np.sin(0.5 * math.pi * x), w * np.cos(0.5 * math.pi * x)


def _action_period(pot: Potential, E):
    """Loop action A(E) = 2 int sqrt(2m (E - V)) dq between the turning points and
    period T(E) = dA/dE = 2 int m/p dq on the same nodes, elementwise over an array of
    energies. The substitution q = mid + half sin(theta), with Gauss-Legendre in theta,
    absorbs the square-root endpoint singularity, so both integrands are smooth: K
    energies make one (K, nodes) grid of p, and each integral is one matrix-vector product
    with the folded weights. Runs under the caller's np.errstate: a p that rounds to 0 at
    a node makes T infinite, and Newton bisects."""
    E = np.asarray(E, dtype=float)
    q_minus, q_plus = turning_points(pot, E)
    sin, wc = _gauss_legendre()
    half = 0.5 * (q_plus - q_minus)
    p = E[..., None] - pot.V((0.5 * (q_plus + q_minus))[..., None] + half[..., None] * sin)
    p *= 2.0 * pot.mass
    p = np.sqrt(np.maximum(p, 0.0, out=p), out=p)
    scale = math.pi * half
    return scale * (p @ wc), scale * pot.mass * (np.reciprocal(p, out=p) @ wc)


def _bottom_start(pot: Potential, target_action: float) -> float:
    """E at target_action on the leading Taylor term V - vmin = (w |q - x|)^k at the
    well bottom, whose action is A = 4 sqrt(2m) B_k (E - vmin)^(1/2 + 1/k) / w with
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


# Rounds per solve, each one evaluation of the open levels (the top is not one). Seeds 1-5
# of ebk-spectra take 1 per harmonic, quartic or Morse spectrum (2 in 2 of 150) and per
# separable mode, 3 or 4 per polynomial; a start 200 decades off takes 38, one 8 decades
# low with no period 66 (tests), and bisection across 2^90 times its 4-ulp stop 90.
_MAX_ROUNDS = 100


def _newton(vmin: float, e_top: float, target: float, start: float):
    """One level's safeguarded Newton (Numerical Recipes' rtsafe) on A(E) = target, slope
    dA/dE = T: a generator that yields each energy to evaluate, first `start` if that lies
    inside (vmin, e_top), is sent (A, T, guess) there, and returns (E, A) at the level.

    A step fails if it leaves the bracket [e_lo, e_hi] of energies known to lie below and
    above the level, has no finite T, or does not halve the last step once the level is
    `reached` (bracketed from above by an evaluation). A failed step multiplies E - vmin
    by 4 while the level is not reached and that stays below e_hi; otherwise it bisects
    the bracket, in log(E - vmin) across more than three decades (`_split`). Stops at a
    step of 4 ulp, or without evaluating again where the Newton point's predicted error
    is within that stop (`_newton_settles`, with dT/dE from the level's last two
    evaluations): then it returns E + step, with action A + T step. Otherwise a `guess`
    inside the bracket replaces the step. A step to the bottom, where E - vmin
    underflows, is LevelNotBound, and a NaN action NoConvergence.
    """
    E, T, e_lo, e_hi, reached = vmin, math.inf, vmin, e_top, False

    def failed():
        """The step that replaces a failed one."""
        grown = vmin + 4.0 * (E - vmin)  # at the bottom of a well with no top: skipped
        if not reached and (vmin < grown < e_hi or e_hi == math.inf):
            return grown - E
        mid = vmin + _split(e_lo - vmin, e_hi - vmin)
        return (mid if e_lo < mid < e_hi else 0.5 * (e_lo + e_hi)) - E

    step = start - vmin if vmin < start < e_top else failed()
    while True:
        e_prev, t_prev, last, E = E, T, step, E + step
        if not E > vmin:
            raise LevelNotBound(f"action {target} lies within rounding of the bottom: "
                                f"E - vmin underflows at E={E}")
        A, T, guess = yield E
        if math.isnan(A):  # turning points or V out of range: no level to report
            raise NoConvergence(f"action {target} not converged: the action at E={E} is "
                                "not a number")
        if A < target:
            e_lo = E
        else:
            e_hi, reached = E, True
        step = (target - A) / T if T > 0 else math.nan
        stop = _ULP4 * max(abs(E), abs(vmin))
        if not (T < math.inf and e_lo <= E + step <= e_hi) or (
                reached and abs(step) > 0.5 * abs(last)):
            step = failed()
        # A'' = dT/dE from the periods of the last two evaluations of this level
        elif E != e_prev and _newton_settles(E, step, T, (T - t_prev) / (E - e_prev), stop):
            return E + step, A + T * step
        if abs(step) <= stop:
            return E, A
        if e_lo < guess < e_hi:
            step = guess - E


def _ratio(x: float, y: float) -> float:
    """x / y as numpy divides: by a zero y, +-inf by the signs, or NaN where x is 0 or
    NaN."""
    if y:
        return x / y
    if x == 0 or math.isnan(x):
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _second_starts(E: list, A: list, T: list, targets: list) -> list:
    """Where a level's first evaluation (E, A, T) missed its action by more than 1e-6,
    E(target) on the piecewise cubic Hermite interpolant of E(A) through the first
    evaluations of two or more levels, with slopes dE/dA = 1/T; NaN elsewhere. Where a
    period is 0 or two actions coincide, the guess is not finite, and Newton ignores it.
    On the benchmark's polynomials, whose Taylor starts lie up to 36% low, these lie 1e-9
    to 4e-4 off the levels, Newton's points 3e-4 to 2e-2: a round fewer."""
    missed = [abs(a - t) > 1e-6 * t for a, t in zip(A, targets)]
    if not any(missed):
        return [math.nan] * len(E)
    order = sorted(range(len(A)), key=A.__getitem__)
    a = [A[i] for i in order]
    guesses = []
    for t, miss in zip(targets, missed):
        if not miss:
            guesses.append(math.nan)
            continue
        j = min(max(bisect.bisect_left(a, t) - 1, 0), len(a) - 2)
        i, k = order[j], order[j + 1]
        h = a[j + 1] - a[j]
        s = _ratio(t - a[j], h)
        d = _ratio(E[k] - E[i], h)  # the secant slope
        m, n = _ratio(1.0, T[i]), _ratio(1.0, T[k])
        guesses.append(E[i] + h * s * (m + s * (3.0 * d - 2.0 * m - n
                                                + s * (m + n - 2.0 * d))))
    return guesses


def _solve(pot: Potential, targets: list) -> tuple[dict, dict]:
    """({n: (E, A)}, {n: reason skipped}) for the levels with loop action A(E) =
    targets[n], each by its own safeguarded Newton (`_newton`), all in rounds: a round
    evaluates A and T at the next energy of every open level at once (`_action_period`
    on the vector), and a level leaves the vector once it has converged.

    A top of the well is evaluated first, once: a level above its action is skipped ("not
    reached below dissociation"), and every other one has it as the upper end of its
    bracket. A potential whose bottom is not below its top has no well
    (NoClassicalRegion), and one with several wells at its top is MultiWell. A level
    starts from the lower of the Taylor term at the bottom (`_bottom_start`) and the
    quadratic in A through the bottom, with that term's slope, and the top (exact for
    Morse), then goes on from `_second_starts`. A level whose step
    goes to the bottom is skipped by itself; NoConvergence names a level by its action.
    All runs under one np.errstate that ignores floating-point warnings.
    """
    for name in ("inverse", "bottom"):
        if getattr(pot, name) is None:
            raise ValueError(f"potential has no {name}: EBK needs a one-mode well")
    vmin, top = pot.bottom[0], pot.top
    e_top = top * (1 - math.copysign(1e-12, top))
    skipped, solved = {}, {}
    with np.errstate(all="ignore"):  # for every evaluation of the solve
        a_top, lift = math.inf, 0.0
        if top < math.inf:
            if not vmin < top:
                raise NoClassicalRegion(f"no well: the bottom {vmin} is not below the top of "
                                        f"the well at {top}")
            a_top = float(_action_period(pot, e_top)[0])
            if math.isnan(a_top):
                raise NoConvergence(f"the action at the top of the well, E={e_top}, is not "
                                    "a number")
            if a_top > 0:  # the quadratic is the Taylor term plus lift A^2
                lift = (e_top - _bottom_start(pot, a_top)) / (a_top * a_top)
        opened = []  # (level, its Newton, the energy it asks for: None before the first)
        for n, target in enumerate(targets):
            if target > a_top:
                skipped[n] = f"action {target} not reached below dissociation at E={top}"
            else:
                start = _bottom_start(pot, target)
                start = min(start, start + lift * target * target)
                opened.append((n, _newton(vmin, e_top, target, start), None))
        for rounds in range(_MAX_ROUNDS + 1):
            results = [None] * len(opened)
            if rounds:  # one energy goes as a float, which numpy takes faster than an array
                E = [e for _, _, e in opened]
                A, T = _action_period(pot, E[0] if len(E) == 1 else np.array(E))
                A, T = A.reshape(-1).tolist(), T.reshape(-1).tolist()
                guesses = [math.nan] * len(E)
                if rounds == 1 and len(E) > 1:
                    guesses = _second_starts(E, A, T, [targets[n] for n, _, _ in opened])
                results = zip(A, T, guesses)
            still = []
            for (n, level, _), result in zip(opened, results):
                try:
                    still.append((n, level, level.send(result)))
                except StopIteration as done:
                    solved[n] = done.value
                except LevelNotBound as exc:
                    skipped[n] = str(exc)
            if not still:
                return solved, skipped
            opened = still
    n, _, E = opened[0]
    raise NoConvergence(f"action {targets[n]} not converged in {_MAX_ROUNDS} rounds, "
                        f"last E={E}")


def level_1d(pot: Potential, n: int, hbar: float) -> tuple[float, float]:
    """(energy, action) for the single level with action (n + 1/2) h: the spectrum
    solve on a vector of one. LevelNotBound where that level is skipped."""
    _positive("hbar", hbar)
    if n < 0:
        raise ValueError(f"quantum number must be nonnegative, got {n}")
    solved, skipped = _solve(pot, [(n + 0.5) * (2.0 * math.pi * hbar)])
    if skipped:
        raise LevelNotBound(skipped[0])
    return solved[0]


def spectrum_1d(pot: Potential, n_max: int, hbar: float) -> SpectrumResult:
    """Librational EBK levels n = 0..n_max: solve loop action = (n + 1/2) h, every level
    in one vector Newton (`_solve`).

    Each level carries Maslov index 2 (two caustic touches per loop). Levels above
    dissociation are skipped with a notice.
    """
    _positive("hbar", hbar)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    h = 2.0 * math.pi * hbar
    targets = [(n + 0.5) * h for n in range(n_max + 1)]
    solved, skipped = _solve(pot, targets)
    return SpectrumResult(
        entries=[SpectrumEntry(quantum_numbers=(n,), energy=E, actions=(action,),
                               maslov_per_loop=(2,)) for n, (E, action) in sorted(solved.items())],
        skipped=[{"n": n, "reason": reason} for n, reason in sorted(skipped.items())])


def spectrum_separable(pots: Sequence[Potential], n, hbar: float) -> SpectrumEntry:
    """One torus of a separable system: per-mode 1-D levels summed.

    The basis loops are unit-winding circles, one per mode, each with
    Maslov index 2.
    """
    _positive("hbar", hbar)
    n = tuple(int(k) for k in np.atleast_1d(n))
    if len(n) != len(pots):
        raise ValueError(f"expected {len(pots)} quantum numbers, got {len(n)}")
    levels = [level_1d(pot, k, hbar) for pot, k in zip(pots, n)]
    return SpectrumEntry(quantum_numbers=n, energy=float(sum(E for E, _ in levels)),
                         actions=tuple(action for _, action in levels),
                         maslov_per_loop=(2,) * len(n))


def _dyadic(x: float) -> tuple:
    """(m, k) with x = m / 2^k exactly, m an integer below 2^53."""
    m, e = math.frexp(x)
    return int(m * 2.0**53), 53 - e


def density_of_states(omegas: Sequence[float], E: float, hbar: float) -> float:
    """States per unit energy of oscillator modes of frequencies `omegas`, N of them:
    g(E) = E^(N-1) / ((N-1)! prod_j hbar w_j), the E-derivative of the
    phase-space volume (2 pi E)^N / (N! prod_j w_j) counted in cells h^N.

    Each double is exactly m / 2^k with m an integer, so g is one exact rational:
    the integers are multiplied, the powers of 2 applied as one shift, and one
    int / int true division rounds it correctly (to a subnormal or 0.0 too); a g
    beyond the double range is an OverflowError.
    """
    _positive("hbar", hbar)
    _positive("energy", E)
    N = len(omegas)
    if N == 0:
        raise ValueError("omegas must hold at least one frequency, got none")
    for w in omegas:
        _positive("omega", w)
    (e, a), (h, b) = _dyadic(E), _dyadic(hbar)
    ws = [_dyadic(w) for w in omegas]
    num, den = e ** (N - 1), math.factorial(N - 1) * h**N * math.prod(m for m, _ in ws)
    shift = N * b + sum(k for _, k in ws) - (N - 1) * a  # g = num / den * 2^shift
    return (num << shift) / den if shift >= 0 else num / (den << -shift)


# ---------------------------------------------------------------------------
# Potential factory used by the CLI and tests


def harmonic_potential(omega: float = 1.0, mass: float = 1.0) -> Potential:
    _positive("harmonic omega", omega)
    _positive("mass", mass)  # before the bottom's math.sqrt, which refuses a negative unnamed

    def inverse(E):
        r = np.sqrt(2.0 * E / mass) / omega
        return -r, r

    try:  # omega**2's bits, or inf where Python's ** raises from omega of about 1.34e154
        w2 = omega**2
    except OverflowError:
        w2 = math.inf
    # (omega q)^2, not omega^2 q^2: omega^2 underflows from omega of about 1e-154
    return Potential(V=lambda q: 0.5 * mass * np.square(omega * q),
                     dV=lambda q, scale=1.0, out=None: np.multiply(q, scale * mass * w2, out=out),
                     inverse=inverse, bottom=(0.0, 2, omega * math.sqrt(0.5 * mass)), mass=mass)


def morse_potential(D: float = 10.0, a: float = 1.0, mass: float = 1.0) -> Potential:
    _finite("morse D", D)
    if D <= 0:
        raise ValueError(f"morse D must be positive, got {D}: the potential is not confining")
    _positive("morse a", a)

    def dV(q, scale=1.0, out=None):
        x = np.expm1(-a * q)
        return np.multiply(-2.0 * D * a * scale * x, 1.0 + x, out=out)

    def inverse(E):
        s = np.sqrt(E / D)  # below 1, but it rounds to 1 within 1 ulp of D: q+ is then inf
        return -np.log1p(s) / a, -np.log1p(-s) / a

    return Potential(V=lambda q: D * np.square(np.expm1(-a * q)), dV=dV, inverse=inverse,
                     bottom=(0.0, 2, a * math.sqrt(D)), top=D, mass=mass)


def quartic_potential(coeff: float = 0.25, mass: float = 1.0) -> Potential:
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
        r = np.sqrt(np.sqrt(E / coeff))
        return -r, r

    return Potential(V=lambda q: coeff * np.square(np.square(q)), dV=dV, inverse=inverse,
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


def _cuts(c: list, lo: float, hi: float) -> tuple:
    """(dc, cuts, v_cut) for V = sum c[k] q^k on the bracket (lo, hi): the coefficients
    k c[k] of V', with polyder's bits; lo, the real parts of the roots of V' inside the
    bracket in ascending order, and hi; and V at each cut by `_horner`, with
    polyval's bits."""
    dc = [k * ck for k, ck in enumerate(c)][1:] or [c[0] * 0.0]
    with np.errstate(all="ignore"):
        cuts = [lo, *sorted(r for r in _roots(dc).real.tolist() if lo < r < hi), hi]
        v_cut = _horner(c)(np.array(cuts)).tolist()
    return dc, cuts, v_cut


_MAX_NEWTON = 200  # safeguarded Newton steps per polynomial turning point


def polynomial_potential(coeffs, mass: float = 1.0, bracket=(-30.0, 30.0)) -> Potential:
    """V(q) = sum_k coeffs[k] q^k on the bracket (lo, hi), which holds the well: its top
    is the lower of V at the two ends. The real parts of the roots of V' inside the
    bracket (the companion eigenvalues, computed once) cut it into pieces on which V is
    monotone (`_cuts`), and the bottom is the lowest V at these cuts, which include every
    stationary point; with none there, the bottom is lo, at or above the top: there is no
    well. The turning points at E lie in the pieces across which V - E changes sign:
    MultiWell where more than two do. In each of the two, safeguarded Newton (Numerical
    Recipes' rtsafe) with Halley's correction takes V, V' and V'' from one scalar Horner
    pass a step, energy by energy (numpy calls on 14 roots cost more than their scalar
    steps); a step that leaves the piece's bracket of the root, or does not halve the
    step before the last, bisects it (`_split`)."""
    c = [_finite("polynomial coefficient", float(ck)) for ck in coeffs]
    if not c:
        raise ValueError("polynomial potential needs at least one coefficient")
    lo, hi = bracket
    if not -math.inf < lo < hi < math.inf:  # NaN too
        raise ValueError(f"bracket must be finite ends lo < hi, got {bracket}")
    dc, cuts, v_cut = _cuts(c, lo, hi)
    v_lo, v_hi = v_cut[0], v_cut[-1]
    if not (math.isfinite(v_lo) and math.isfinite(v_hi)):
        raise ValueError(f"V must be finite at the bracket ends, got V({lo}) = {v_lo} "
                         f"and V({hi}) = {v_hi}")
    x, vmin = min(zip(cuts[1:-1], v_cut[1:-1]), key=lambda point: point[1], default=(lo, v_lo))
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
    top, rest = c[-1], c[-3::-1]  # Horner's order, past c[-1] and c[-2]

    def crossing(E, i):
        """The root of V = E in the piece between cuts i and i + 1, V - E <= 0 at `neg`
        and > 0 at `pos`. It starts from the nearest of the roots of vmin + t_j |q - x|^j
        = E on the piece's side of x, each a bound on it where every term raises V."""
        a, b = cuts[i], cuts[i + 1]
        neg, pos = (a, b) if v_cut[i] <= E else (b, a)
        side = 1 if a >= x else -1
        nearest = math.inf
        for p, t in terms[side]:
            u = ((E - vmin) / t) ** p
            if u < nearest:
                nearest = u
        q = x + side * nearest
        if not a < q < b:
            q = _split(a, b)
        older = last = b - a
        for _ in range(_MAX_NEWTON):
            # V, V' and V''/2 in one Horner pass, inline, from its second term (a root
            # of V' cuts the bracket, so c has three terms or more)
            v, d, e = top * q + c[-2], top, 0.0
            for ck in rest:
                e = e * q + d
                d = d * q + v
                v = v * q + ck
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
            r = q - step
            if not (neg < r < pos or pos < r < neg) or abs(step) > 0.5 * abs(older):
                step = q - _split(neg, pos)
                if abs(step) <= _ULP4 * abs(q):  # the bracket has closed
                    return q - step
            older, last = last, step
            q -= step
        raise NoConvergence(f"turning point at E={E} not converged in {_MAX_NEWTON} steps")

    pieces = list(zip(range(len(cuts) - 1), v_cut, v_cut[1:]))  # (i, V at its two ends)

    def inverse(E):
        lows, highs = [], []
        for e in E.reshape(-1).tolist():
            crossed = [i for i, u, v in pieces if (u > e) != (v > e)]
            if len(crossed) > 2:
                raise MultiWell(f"{len(crossed)} turning points at E={e}; single well required")
            if len(crossed) < 2:
                raise NoClassicalRegion(f"bracket does not confine E={e} (V(edges) must "
                                        "exceed E)")
            lows.append(crossing(e, crossed[0]))
            highs.append(crossing(e, crossed[1]))
        shape = np.shape(E)
        return np.array(lows).reshape(shape)[()], np.array(highs).reshape(shape)[()]

    return Potential(V=_horner(c), dV=_horner(dc), inverse=inverse, bottom=(vmin, k, w),
                     top=min(v_lo, v_hi), mass=mass)


# kind -> (its factory, named, so a factory rebound on this module is the one that runs;
# descriptor key -> (reader, required), read by core._read). Each key is an argument of
# the factory, and one left out takes its default there.
_POTENTIALS = {
    "harmonic": ("harmonic_potential", {"omega": (_real, False), "mass": (_real, False)}),
    "morse": ("morse_potential", {"D": (_real, False), "a": (_real, False),
                                  "mass": (_real, False)}),
    "quartic": ("quartic_potential", {"coeff": (_real, False), "mass": (_real, False)}),
    "polynomial": ("polynomial_potential", {
        "coeffs": (_reals, True), "mass": (_real, False),
        "bracket": (lambda name, ends: tuple(_reals(name, ends, 2)), False)}),
}


def make_potential(desc: dict) -> Potential:
    """Build a Potential from a JSON descriptor {"kind": ..., params...}."""
    desc = dict(desc)
    kind = desc.pop("kind", None)
    if not (isinstance(kind, str) and kind in _POTENTIALS):
        raise ValueError(f"unknown potential kind {kind!r}")
    factory, keys = _POTENTIALS[kind]
    return globals()[factory](**_read(f"{kind} potential", desc, keys))
