"""Independent oracles used to freeze expected values.

Everything here is deliberately dumb and path-independent from the library
code: closed forms, dense diagonalization, the nonsymmetric eigenvalues of
J M for the symplectic spectrum, adaptive quadrature, direct ODE
integration, plain loops over ensemble members, planes, grid cells and
certificate entries, exact-rational (Fraction) Gram determinants,
diagonal squeezing maps for cylinders over coordinate planes, and
scipy's scrambled Halton and inverse-normal map for the samplers, the
allocating forms of the Verlet kernel and of the quartic and polynomial
forces, mpmath's polynomial roots at 50 digits, and the numpy form of the
EBK solver's Hermite second starts.
Each library kernel has one entry, and its oracle checks that entry:
`certify_oracle` the one symplectic certificate (`core._certify`, which
`SymplecticMatrix` runs), `advance_oracle` the one Verlet kernel
(`shadows._advance`, a single step at count 1), and `turning_points_oracle`
`ebk.turning_points`, each potential's own inverse.
The ensemble oracle draws its members with the library's single-member
`random_symplectic`, so it also checks that a stacked draw matches draws in
a row; as a single draw takes scipy's expm and a stack the library's
batched Pade (`core._expm`), it also cross-checks that kernel against
scipy. The turning-point oracle knows nothing of the library's inverses: it
runs scipy's brentq on V - E outward from a point inside the well.
`all_minors_oracle` keeps the ensemble's all-minors selection, which the
Gram search of `nonsqueeze_ensemble` must reproduce bit for bit.
"""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.linalg import expm
from scipy.special import ndtri
from scipy.stats import qmc

from sympcap.core import QuadraticHamiltonian, random_symplectic
from sympcap.shadows import CONJUGATE_TOL, PlaneSelector


def isotropic_hamiltonian(N, omega, mass=1.0):
    """N identical harmonic modes, H = sum_j (p_j^2 + m^2 w^2 q_j^2) / 2m, as the
    diagonal matrix diag(m w^2, ..., 1/m, ...); its symplectic spectrum is w, N times."""
    return QuadraticHamiltonian(np.diag([mass * omega**2] * N + [1.0 / mass] * N))


def ball_volume(R, N):
    """Lebesgue volume pi^N R^(2N) / N! of the ball of radius R in 2N dimensions."""
    return math.pi**N * R ** (2 * N) / math.factorial(N)


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


def pd_matrix_with_condition(rng, N, cond):
    """Random symmetric positive-definite 2N x 2N matrix with eigenvalues 1 and
    `cond`, the others log-uniform between them, in a random orthonormal basis."""
    U, _ = np.linalg.qr(rng.normal(size=(2 * N, 2 * N)))
    lam = np.exp(rng.uniform(0.0, math.log(cond), 2 * N))
    lam[0], lam[-1] = 1.0, cond
    M = (U * lam) @ U.T
    return 0.5 * (M + M.T)


def jm_spectrum(M):
    """Symplectic spectrum, descending: the positive imaginary parts of the
    nonsymmetric eigenvalues of J M."""
    n = M.shape[0] // 2
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    ev = np.linalg.eigvals(J @ M)
    return np.sort(ev.imag[ev.imag > 0])[::-1]


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


def all_minors_oracle(stack):
    """(min conjugate det, witness, bound held) of a certified (count, 2N, 2N)
    stack from every plane's minors at once, and numpy's first minimum in
    (member, plane) order. This is the selection `nonsqueeze_ensemble` made
    before its Gram search, kept as written then, which must print its bits:
    each plane's squared minors of the whole stack in one sum over the last axis.
    """
    N = stack.shape[-1] // 2
    nonconj = []
    for i, j in permutations(range(1, N + 1), 2):
        if i < j:
            nonconj += [PlaneSelector("q", i, "q", j), PlaneSelector("p", i, "p", j)]
        nonconj.append(PlaneSelector("q", i, "p", j))
    planes = [PlaneSelector.conjugate(j) for j in range(1, N + 1)] + nonconj
    k, l = np.triu_indices(2 * N, 1)
    dets = np.empty((stack.shape[0], len(planes)))
    with np.errstate(over="ignore"):
        for p, plane in enumerate(planes):
            a, b = plane.indices(N)
            u, v = stack[..., a, :], stack[..., b, :]
            minors = u[..., k] * v[..., l] - u[..., l] * v[..., k]
            dets[..., p] = np.sum(minors * minors, axis=-1)
    min_conj = float(dets[:, :N].min())
    witness = None
    if nonconj:
        m, p = divmod(int(np.argmin(dets[:, N:])), len(nonconj))
        witness = {"member": m, "plane": nonconj[p].label(), "det": float(dets[m, N + p])}
    return min_conj, witness, min_conj >= 1 - CONJUGATE_TOL


def grid_area_oracle(points, cell):
    """Occupancy-grid area from a set of cells and an explicit 4-neighbour loop."""
    cells = {(math.floor(x / cell), math.floor(y / cell)) for x, y in points}
    boundary = 0
    for i, j in cells:
        if any(c not in cells for c in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))):
            boundary += 1
    return (len(cells) - 0.5 * boundary) * cell * cell


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


def advance_oracle(q, p, flow, count):
    """`shadows._advance` as first written: fused half-kicks on the unscaled
    momentum, a fresh array for every force, kick and drift, and the drift as
    dt * (p / mass)."""
    if count <= 0:
        return

    def force(q):
        return flow.potential.dV(q, 1.0, np.empty_like(q))

    dt, mass = flow.dt, flow.potential.mass
    p -= 0.5 * dt * force(q)
    for _ in range(count - 1):
        q += dt * (p / mass)
        p -= dt * force(q)
    q += dt * (p / mass)
    p -= 0.5 * dt * force(q)


def energy_oracle(pot, state):
    """H = |p|^2 / 2 mass + V(q) of a potential on (..., 2 n_modes) states (q-block,
    p-block); a one-mode V acting elementwise gives the same (...) shape."""
    n = pot.n_modes
    state = np.asarray(state, dtype=float)
    p = state[..., n:]
    return (np.sum(p * p, axis=-1) / (2.0 * pot.mass)
            + np.reshape(pot.V(state[..., :n]), state.shape[:-1]))


def quartic_dV_oracle(coeff):
    return lambda q: 4.0 * coeff * q * q * q


def horner_oracle(c):
    """sum_k c[k] q^k with a fresh array at every Horner step."""
    def value(q):
        q = np.asarray(q, dtype=float)
        y = c[-1] + q * 0
        for ck in c[-2::-1]:
            y = ck + y * q
        return y

    return value


def exact_plane_det(S, a, b):
    """det of the 2x2 block of S S^T on rows (a, b), exactly, as a Fraction:
    the Gram determinant |u|^2 |v|^2 - (u.v)^2 of the float rows u, v of S."""
    u = [Fraction(float(x)) for x in S[a]]
    v = [Fraction(float(x)) for x in S[b]]
    uv = sum(x * y for x, y in zip(u, v))
    return sum(x * x for x in u) * sum(y * y for y in v) - uv * uv


def squeezing_map(plane, n, lam):
    """Diagonal 2n x 2n map that divides each coordinate of `plane` (a
    PlaneSelector) by lam and multiplies its conjugate partner by lam; every
    other coordinate is fixed. On a qq plane that is (q, p) -> (q / lam, lam p)
    on both modes, on a pp plane its inverse, and on qp:i,j (q_i, p_i) ->
    (q_i / lam, lam p_i) with (q_j, p_j) -> (lam q_j, p_j / lam). On a
    conjugate plane (q_j, p_j) the partner of q_j is p_j, so the map is
    (q_j / lam, lam p_j). Symplectic: each mode's q and p scales multiply to 1.
    """
    d = np.ones(2 * n)
    # the first coordinate last, so on a conjugate plane its shrink stands
    for coord, mode in ((plane.b, plane.j), (plane.a, plane.i)):
        k = mode - 1 + (n if coord == "p" else 0)
        partner = k + n if coord == "q" else k - n
        d[k], d[partner] = 1.0 / lam, lam
    return np.diag(d)


def turning_points_oracle(V, E, inside):
    """The turning points q- < q+ of V(q) = E on either side of `inside`, a point with
    V < E: on each side the first of the intervals [inside + s 2^(j-1), inside + s 2^j]
    (s = -1, then +1; j from -10 up) whose outer end has V > E, then scipy's brentq on
    V - E there, then ulp by ulp outward to the first float where V - E is not
    negative: the sign change of the rounded V - E."""
    def g(q):
        return float(V(q)) - E

    roots = []
    for s in (-1.0, 1.0):
        near, width = inside, 2.0 ** -10
        while not g(inside + s * width) > 0:
            near, width = inside + s * width, 2.0 * width
        far = inside + s * width
        q = brentq(g, min(near, far), max(near, far), xtol=5e-324, rtol=4 * np.finfo(float).eps)
        while g(q) < 0:
            q = np.nextafter(q, far)
        while g(np.nextafter(q, near)) >= 0:
            q = np.nextafter(q, near)
        roots.append(float(q))
    return tuple(roots)


def polynomial_root_oracle(c, E, near, dps=50):
    """The real root of sum c[k] q^k = E nearest `near`, from all the roots that
    mpmath's polyroots finds at `dps` digits, the coefficients taken exactly."""
    import mpmath

    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(ck) for ck in c]
        coeffs[0] -= mpmath.mpf(E)
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=100, extraprec=dps)
        real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** (5 - dps)]
        return min(real, key=lambda r: abs(r - mpmath.mpf(near)))


def second_starts_oracle(E, A, T, targets):
    """The Hermite second starts in numpy, elementwise over the levels: E(target) on the
    piecewise cubic Hermite interpolant of E(A) through the points (E, A) with slopes
    1/T, where |A - target| > 1e-6 target, NaN elsewhere. The actions are sorted
    stably, so levels with equal actions keep their order (numpy's default argsort
    orders them by its sorting network)."""
    missed = [abs(a - t) > 1e-6 * t for a, t in zip(A, targets)]
    if not any(missed):
        return [math.nan] * len(E)
    with np.errstate(all="ignore"):
        order = np.argsort(A, kind="stable")
        e, a, m = np.array(E)[order], np.array(A)[order], 1.0 / np.array(T)[order]
        j = np.clip(np.searchsorted(a, targets) - 1, 0, len(a) - 2)
        h = a[j + 1] - a[j]
        s = (np.array(targets) - a[j]) / h
        d = (e[j + 1] - e[j]) / h
        e = e[j] + h * s * (m[j] + s * (3.0 * d - 2.0 * m[j] - m[j + 1]
                                        + s * (m[j] + m[j + 1] - 2.0 * d)))
    return [g if miss else math.nan for g, miss in zip(e.tolist(), missed)]


def halton_oracle(count, dim, seed):
    """scipy's scrambled Halton: the bitwise reference for `sampling._halton`."""
    return qmc.Halton(d=dim, scramble=True, seed=seed).random(count)


def ball_points_oracle(count, dim, radius, seed):
    """`ball_points` by its first formula, on scipy's Halton, redrawn on every call."""
    u = halton_oracle(count, dim + 1, seed)
    g = ndtri(np.clip(u[:, :dim], 1e-15, 1 - 1e-15))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * (radius * u[:, dim] ** (1.0 / dim))[:, None]
