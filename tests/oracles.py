"""Independent oracles used to freeze expected values.

Everything here is deliberately dumb and path-independent from the library
code: closed forms, dense diagonalization, adaptive quadrature, direct ODE
integration, plain loops over ensemble members, planes, grid cells and
certificate entries, and exact-rational (Fraction) Gram determinants.
The ensemble oracle draws its members with the library's single-member
`random_symplectic`, so it also checks that a stacked draw matches draws in
a row. The turning-point oracle shares the library's well scan, crossing
lookup and bisection, and polishes with whole-array masks.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from sympcap.core import random_symplectic
from sympcap.ebk import _SCAN_POINTS, _bisect, _crossings, _sampled, _scan
from sympcap.errors import MultiWell, NoClassicalRegion


def morse_levels(D, a, mass, hbar):
    """Closed-form Morse bound-state energies."""
    w0 = a * math.sqrt(2.0 * D / mass)
    levels = []
    n = 0
    while True:
        x = hbar * w0 * (n + 0.5)
        E = x - x * x / (4.0 * D)
        if hbar * w0 * (n + 0.5) >= 2.0 * D:  # past the spectrum turning point
            break
        levels.append(E)
        n += 1
    return levels


def quartic_levels(coeff=0.25, mass=1.0, hbar=1.0, nbasis=200):
    """Eigenvalues of p^2/2m + coeff q^4 in a harmonic-oscillator basis."""
    w0 = 1.0
    idx = np.arange(1, nbasis)
    a = np.diag(np.sqrt(idx), k=1)  # lowering operator
    ad = a.T
    s = math.sqrt(hbar / (2.0 * mass * w0))
    q = s * (a + ad)
    pmat2 = -(mass * hbar * w0 / 2.0) * (ad - a) @ (ad - a)
    H = pmat2 / (2.0 * mass) + coeff * np.linalg.matrix_power(q, 4)
    return np.sort(np.linalg.eigvalsh(H))


def action_by_quad(V, mass, E, q_minus, q_plus):
    """Loop action by adaptive quadrature between given turning points."""

    def integrand(q):
        return math.sqrt(max(2.0 * mass * (E - V(q)), 0.0))

    val, _ = quad(integrand, q_minus, q_plus, epsabs=1e-13, epsrel=1e-13, limit=500)
    return 2.0 * val


def normal_mode_actions(M, E, n_steps=20000):
    """Loop actions of the normal-mode orbits of H = z^T M z / 2 at energy E.

    Integrates the exact linear flow z(t) = exp(t J M) z0 for one period of
    each mode and accumulates the circulation sum(p dq) by trapezoid.
    """
    dim = M.shape[0]
    n = dim // 2
    J = np.zeros((dim, dim))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    ev, V = np.linalg.eig(J @ M)
    actions = []
    seen = []
    for k in range(dim):
        w = ev[k].imag
        if w <= 0 or any(abs(w - s) < 1e-9 for s in seen):
            continue
        seen.append(w)
        v = V[:, k]
        z0 = np.real(v)
        # scale the mode to the requested energy
        e0 = 0.5 * z0 @ M @ z0
        z0 = z0 * math.sqrt(E / e0)
        T = 2.0 * math.pi / w
        dt = T / n_steps
        step = expm(dt * J @ M)
        traj = np.empty((n_steps + 1, dim))
        traj[0] = z0
        for i in range(n_steps):
            traj[i + 1] = step @ traj[i]
        q = traj[:, :n]
        p = traj[:, n:]
        dq = np.diff(q, axis=0)
        pmid = 0.5 * (p[1:] + p[:-1])
        actions.append(float(np.sum(pmid * dq)))
    return sorted(actions)


def random_pd_matrix(rng, N, cond_cap=50.0):
    """Random symmetric positive-definite 2N x 2N matrix, mild conditioning."""
    G = rng.normal(size=(2 * N, 2 * N))
    M = G @ G.T
    w = np.linalg.eigvalsh(M)
    return M + (w[-1] / cond_cap) * np.eye(2 * N)


def ensemble_oracle(N, count, sigma, seed):
    """(min conjugate det, min nonconjugate det, witness) of the 2x2 blocks
    of S S^T, member by member on one stream with a strict-< witness. Each
    determinant is the exact one of the float S drawn, rounded to a float.

    Planes are visited conjugate first, then for each ordered pair i != j
    the blocks q_i q_j, p_i p_j and q_i p_j whose first index is the smaller.
    """
    rng = np.random.default_rng(seed)
    min_conj = min_nonconj = math.inf
    witness = None
    for k in range(count):
        S = random_symplectic(N, sigma, rng).matrix
        for j in range(N):
            min_conj = min(min_conj, float(exact_plane_det(S, j, N + j)))
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                for label, (a, b) in ((f"q{i + 1}q{j + 1}", (i, j)),
                                      (f"p{i + 1}p{j + 1}", (N + i, N + j)),
                                      (f"q{i + 1}p{j + 1}", (i, N + j))):
                    if a < b:
                        d = float(exact_plane_det(S, a, b))
                        if d < min_nonconj:
                            min_nonconj = d
                            witness = {"member": k, "plane": label, "det": d}
    return min_conj, min_nonconj, witness


def grid_area_oracle(points, cell, perimeter_correction):
    """Occupancy-grid area from a set of cells and an explicit 4-neighbour loop."""
    cells = {(math.floor(x / cell), math.floor(y / cell)) for x, y in points}
    count = len(cells)
    if perimeter_correction:
        boundary = 0
        for i, j in cells:
            if any(c not in cells for c in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))):
                boundary += 1
        count = count - 0.5 * boundary
    return count * cell * cell


def certify_oracle(stack, tol):
    """(index, message) of the first non-symplectic matrix of a stack, or None.

    Member by member and entry by entry: S is refused where
    |S^T J S - J| > tol (1 + |S|^T |J| |S|) in some entry, and the message
    gives the largest ratio |S^T J S - J| / (1 + |S|^T |J| |S|); a NaN fails.
    """
    n = stack.shape[-1] // 2
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    for k, S in enumerate(stack):
        D = S.T @ J @ S - J
        W = np.abs(S).T @ np.abs(J) @ np.abs(S)
        ratios = [abs(D[i, j]) / (1.0 + W[i, j]) for i in range(2 * n) for j in range(2 * n)]
        defect = math.nan if any(map(math.isnan, ratios)) else max(ratios)
        if not defect <= tol:
            return k, f"symplectic defect {defect:.3e} exceeds tolerance {tol:.3e}"
    return None


def exact_plane_det(S, a, b):
    """det of the 2x2 block of S S^T on rows (a, b), exactly, as a Fraction:
    the Gram determinant |u|^2 |v|^2 - (u.v)^2 of the float rows u, v of S."""
    u = [Fraction(float(x)) for x in S[a]]
    v = [Fraction(float(x)) for x in S[b]]
    uv = sum(x * y for x, y in zip(u, v))
    return sum(x * x for x in u) * sum(y * y for y in v) - uv * uv


def turning_points_oracle(pot, E):
    """`ebk.turning_points` with its polish tested on numpy masks: the convergence
    test `|step| <= 4 eps |x| or |f| <= 4 eps |E|` and the in-cell test build boolean
    arrays. Reads and updates the warm state `pot._warm` as the library does."""
    eps = np.finfo(float).eps
    q, v, vmin, runs = _scan(pot)
    lo, hi = pot.bracket
    for _ in range(60):
        if vmin < E:
            break
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
    a, b = q[cells], q[cells + 1]
    x = 0.5 * (a + b)
    warm = pot._warm
    with np.errstate(all="ignore"):
        if warm:
            E0, x0, d0 = warm
            guess = np.asarray(x0) + (E - E0) / np.asarray(d0)
            x = np.where((a <= guess) & (guess <= b), guess, x)
        for _ in range(8):
            f = np.asarray(pot.V(x), dtype=float) - E
            d = np.asarray(pot.dV(x), dtype=float)
            step = f / d
            x = x - step
            settled = ((np.abs(step) <= 4 * eps * np.abs(x))
                       | (np.abs(f) <= 4 * eps * abs(E)))
            if settled.all():
                break
    for i in np.flatnonzero(~(settled & (a <= x) & (x <= b))):
        x[i] = _bisect(lambda s: pot.V(s) - E, float(a[i]), float(b[i]))
    if warm is not None:
        pot._warm = (E, x, d)
    return float(x[0]), float(x[1])
