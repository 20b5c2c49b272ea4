"""Linear symplectic algebra.

Conventions: phase-space vectors are ordered (q_1..q_N, p_1..p_N) and the
standard form is J = [[0, I], [-I, 0]] in that block ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, schur

from .errors import DimensionError, NotPositiveDefinite, NumericalDegeneracy

DEFAULT_SYMPLECTIC_TOL = 1e-10


def standard_form(n: int) -> np.ndarray:
    """The 2n x 2n standard form J with blocks [[0, I], [-I, 0]]."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def _check_even_square(S: np.ndarray) -> int:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {S.shape}")
    if S.shape[0] % 2 != 0 or S.shape[0] < 2:
        raise DimensionError(f"matrix dimension must be even and >= 2, got {S.shape[0]}")
    return S.shape[0] // 2


def symplectic_defect(S: np.ndarray) -> float:
    """Max-norm of S^T J S - J."""
    n = _check_even_square(S)
    J = standard_form(n)
    return float(np.max(np.abs(S.T @ J @ S - J)))


def is_symplectic(S: np.ndarray, tol: float = DEFAULT_SYMPLECTIC_TOL) -> bool:
    """True iff ||S^T J S - J||_max <= tol."""
    return symplectic_defect(S) <= tol


@dataclass(eq=False)
class SymplecticMatrix:
    """A certified linear canonical transformation.

    Construction fails unless the symplectic defect is within `tol` and
    det S = 1 within 1e-8.
    """

    entries: np.ndarray
    tol: float = DEFAULT_SYMPLECTIC_TOL

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        self.n = _check_even_square(self.entries)
        defect = symplectic_defect(self.entries)
        if defect > self.tol:
            raise ValueError(f"symplectic defect {defect:.3e} exceeds tolerance {self.tol:.3e}")
        det = np.linalg.det(self.entries)
        if abs(det - 1.0) > 1e-8:
            raise ValueError(f"det S = {det!r} differs from 1 beyond 1e-8")

    @property
    def matrix(self) -> np.ndarray:
        return self.entries

    def inverse(self) -> "SymplecticMatrix":
        # For symplectic S: S^{-1} = J^T S^T J, exact up to roundoff.
        J = standard_form(self.n)
        return SymplecticMatrix(J.T @ self.entries.T @ J, tol=max(self.tol, 1e-9))


def compose(S1: SymplecticMatrix, S2: SymplecticMatrix) -> SymplecticMatrix:
    """Product S1 @ S2, re-certified symplectic."""
    if S1.n != S2.n:
        raise DimensionError(f"dimension mismatch: {2 * S1.n} vs {2 * S2.n}")
    return SymplecticMatrix(S1.entries @ S2.entries, tol=1e-9)


def random_symplectic(N: int, sigma: float, seed: int) -> SymplecticMatrix:
    """exp(J A) for A symmetric with zero-mean Gaussian entries of scale sigma.

    Deterministic for a fixed seed. Accepts an np.random.Generator in place
    of an integer seed so ensembles can share one stream.
    """
    if N < 1:
        raise DimensionError(f"need N >= 1, got {N}")
    if sigma <= 0:
        raise ValueError(f"need sigma > 0, got {sigma}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    G = rng.normal(0.0, sigma, size=(2 * N, 2 * N))
    A = 0.5 * (G + G.T)
    S = expm(standard_form(N) @ A)
    return SymplecticMatrix(S, tol=1e-9)


@dataclass(eq=False)
class QuadraticHamiltonian:
    """H(z) = 1/2 z^T M z with M a 2N x 2N symmetric matrix (energy units)."""

    M: np.ndarray

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.n = _check_even_square(self.M)
        scale = np.max(np.abs(self.M))
        if scale == 0 or np.max(np.abs(self.M - self.M.T)) > 1e-12 * scale:
            raise ValueError("matrix must be symmetric")
        # store the exactly symmetric part
        self.M = 0.5 * (self.M + self.M.T)

    def __call__(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return 0.5 * float(z @ self.M @ z)

    @classmethod
    def isotropic(cls, N: int, omega: float, mass: float = 1.0) -> "QuadraticHamiltonian":
        """N identical harmonic modes: H = sum_j (p_j^2 + m^2 w^2 q_j^2) / 2m."""
        if N < 1:
            raise ValueError(f"need N >= 1, got {N}")
        d = np.concatenate([np.full(N, mass * omega**2), np.full(N, 1.0 / mass)])
        return cls(np.diag(d))

    @classmethod
    def from_frequencies(cls, omegas) -> "QuadraticHamiltonian":
        """Normal-form Hamiltonian sum_j w_j (q_j^2 + p_j^2) / 2."""
        w = np.asarray(omegas, dtype=float)
        return cls(np.diag(np.concatenate([w, w])))


@dataclass(eq=False)
class WilliamsonDecomposition:
    """Symplectic spectrum plus the diagonalizing symplectic matrix.

    Satisfies S^T D S = M with D = diag(w_1..w_N, w_1..w_N) and the
    frequencies sorted descending.
    """

    omegas: np.ndarray
    S: SymplecticMatrix
    residual: float

    @property
    def D(self) -> np.ndarray:
        return np.diag(np.concatenate([self.omegas, self.omegas]))


def _sym_sqrt(M: np.ndarray):
    """Symmetric square root and inverse square root via eigendecomposition."""
    w, V = np.linalg.eigh(M)
    if w[0] <= 0:
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.3e} is not positive")
    sq = (V * np.sqrt(w)) @ V.T
    isq = (V / np.sqrt(w)) @ V.T
    return sq, isq


def symplectic_eigenvalues(H: QuadraticHamiltonian) -> np.ndarray:
    """Symplectic spectrum of M: positive imaginary parts of eig(JM), descending."""
    J = standard_form(H.n)
    ev = np.linalg.eigvals(J @ H.M)
    scale = np.max(np.abs(H.M))
    if np.max(np.abs(ev.real)) > 1e-8 * scale:
        raise NumericalDegeneracy("eigenvalues of JM have large real parts")
    omegas = np.sort(ev.imag[ev.imag > 0])[::-1]
    if omegas.size != H.n:
        raise NumericalDegeneracy("could not pair eigenvalues of JM into +/- i omega")
    return omegas


def williamson(H: QuadraticHamiltonian) -> WilliamsonDecomposition:
    """Williamson normal form of a positive-definite quadratic Hamiltonian.

    Diagonalizes via the real Schur form of the antisymmetric matrix
    M^{1/2} J M^{1/2}, which handles degenerate symplectic eigenvalues
    (isotropic oscillators) without explicit clustering.
    """
    n = H.n
    M = H.M
    J = standard_form(n)
    Msq, Misq = _sym_sqrt(M)  # raises NotPositiveDefinite first
    symplectic_eigenvalues(H)  # raises NumericalDegeneracy if JM is pathological

    K = Msq @ J @ Msq
    K = 0.5 * (K - K.T)
    U, Q = schur(K, output="real")

    # U is block diagonal with 2x2 blocks [[0, w_j], [-w_j, 0]]; fix signs so
    # each block's upper-right entry is +w_j.
    omegas = np.empty(n)
    for j in range(n):
        kappa = U[2 * j, 2 * j + 1]
        if kappa < 0:
            Q[:, [2 * j, 2 * j + 1]] = Q[:, [2 * j + 1, 2 * j]]
            kappa = -kappa
        omegas[j] = kappa

    order = np.argsort(omegas)[::-1]
    omegas = omegas[order]
    col_order = np.empty(2 * n, dtype=int)
    # interleaved (x_j, y_j) columns -> (x-block, y-block) with blocks sorted
    for rank, j in enumerate(order):
        col_order[rank] = 2 * j
        col_order[n + rank] = 2 * j + 1
    Qp = Q[:, col_order]

    Dsq = np.sqrt(np.concatenate([omegas, omegas]))
    R = Misq @ Qp * Dsq[None, :]
    # R is symplectic with R^T M R = D, so S = R^{-1} gives S^T D S = M.
    S = np.linalg.solve(R, np.eye(2 * n))

    D = np.diag(np.concatenate([omegas, omegas]))
    residual = float(np.max(np.abs(S.T @ D @ S - M)) / np.max(np.abs(M)))
    return WilliamsonDecomposition(
        omegas=omegas, S=SymplecticMatrix(S, tol=1e-9), residual=residual
    )


def matrix_to_json(M: np.ndarray) -> dict:
    """Serialize a 2N x 2N matrix as {"n": N, "matrix": row-major list}."""
    n = _check_even_square(np.asarray(M, dtype=float))
    return {"n": n, "matrix": [float(x) for x in np.asarray(M, dtype=float).ravel()]}


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix descriptor must be a JSON object with keys 'n' and 'matrix'")
    for key in ("n", "matrix"):
        if key not in obj:
            raise ValueError(f"matrix descriptor is missing key {key!r}")
    n = int(obj["n"])
    flat = np.asarray(obj["matrix"], dtype=float)
    if flat.size != 4 * n * n:
        raise DimensionError(f"expected {4 * n * n} entries for n={n}, got {flat.size}")
    return flat.reshape(2 * n, 2 * n)
