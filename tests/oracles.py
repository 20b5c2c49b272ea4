"""Independent oracles used to freeze expected values.

Everything here is deliberately dumb and path-independent from the library
code: closed forms, dense diagonalization, adaptive quadrature, direct ODE
integration, and plain loops over ensemble members, planes and grid cells.
The ensemble oracle draws its members with the library's single-member
`random_symplectic`, so it also checks that a stacked draw matches draws in
a row.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from sympcap.core import random_symplectic


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
    of S S^T, member by member on one stream with a strict-< witness.

    Planes are visited conjugate first, then for each ordered pair i != j
    the blocks q_i q_j, p_i p_j and q_i p_j whose first index is the smaller.
    """
    rng = np.random.default_rng(seed)
    min_conj = min_nonconj = math.inf
    witness = None
    for k in range(count):
        S = random_symplectic(N, sigma, rng).matrix
        A = S @ S.T
        for j in range(N):
            min_conj = min(min_conj, float(np.linalg.det(A[np.ix_([j, N + j], [j, N + j])])))
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                for label, (a, b) in ((f"q{i + 1}q{j + 1}", (i, j)),
                                      (f"p{i + 1}p{j + 1}", (N + i, N + j)),
                                      (f"q{i + 1}p{j + 1}", (i, N + j))):
                    if a < b:
                        d = float(np.linalg.det(A[np.ix_([a, b], [a, b])]))
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
