"""Linear symplectic algebra.

Conventions: phase-space vectors are ordered (q_1..q_N, p_1..p_N) and the
standard form is J = [[0, I], [-I, 0]] in that block ordering.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, NumericalDegeneracy

DEFAULT_SYMPLECTIC_TOL = 1e-10


@functools.lru_cache(maxsize=16)
def standard_form(n: int) -> np.ndarray:
    """The 2n x 2n standard form J with blocks [[0, I], [-I, 0]]: one read-only
    array per n, shared by every caller (the 16 latest n are kept)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    J = np.eye(2 * n, k=n) - np.eye(2 * n, k=-n)
    J.flags.writeable = False
    return J


def _check_even_square(S: np.ndarray) -> int:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"matrix must be square, got shape {S.shape}")
    if S.shape[0] % 2 != 0 or S.shape[0] < 2:
        raise ValueError(f"matrix dimension must be even and >= 2, got {S.shape[0]}")
    return S.shape[0] // 2


def _defects(S: np.ndarray) -> np.ndarray:
    """max |S^T J S - J| / (1 + |S|^T |J| |S|) over the entries of each matrix of a
    (..., 2n, 2n) stack, NaN for a NaN entry. The rounding of S^T (J S) is within
    a few n eps of |S|^T |J S| entrywise (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 3.5); the 1 keeps the absolute test where
    that product is tiny.
    """
    J = standard_form(S.shape[-1] // 2)
    JS = J @ S  # exact: J is a signed permutation, so |J S| = |J| |S|
    St = np.swapaxes(S, -1, -2)
    scale = np.abs(St) @ np.abs(JS)
    return np.max(np.abs(St @ JS - J) / (1.0 + scale), axis=(-2, -1))


def _certify(stack: np.ndarray, tol: float = DEFAULT_SYMPLECTIC_TOL) -> None:
    """Raise ValueError for the first matrix of a (count, 2n, 2n) stack whose
    relative defect (`_defects`) is not within `tol` (a NaN fails). This is the
    one symplecticity test; S^T J S = J gives det S = Pf(S^T J S) / Pf(J) = 1.
    """
    defects = _defects(stack)
    bad = ~(defects <= tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"symplectic defect {defects[k]:.3e} exceeds tolerance {tol:.3e}")


@dataclass(eq=False)
class SymplecticMatrix:
    """A certified linear canonical transformation.

    Construction fails unless the relative symplectic defect is within
    `tol`; a matrix with a NaN entry fails. Only user-typed matrices need a
    `tol` other than the default.
    """

    matrix: np.ndarray
    tol: float = DEFAULT_SYMPLECTIC_TOL

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.n = _check_even_square(self.matrix)
        _certify(self.matrix[None], self.tol)


def random_symplectic(N: int, sigma: float, seed: int) -> SymplecticMatrix:
    """exp(J A) for A symmetric with zero-mean Gaussian entries of scale sigma.

    Deterministic for a fixed seed. Accepts an np.random.Generator in place
    of an integer seed so ensembles can share one stream.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return SymplecticMatrix(_random_symplectic_stack(N, 1, sigma, rng)[0])


def _random_symplectic_stack(N: int, count: int, sigma: float, rng) -> np.ndarray:
    """`count` uncertified random_symplectic draws, stacked (count, 2N, 2N).

    One normal draw takes the same numbers from the stream as `count` in a
    row. A stack is exponentiated by `_expm`; a single draw by scipy's `expm`,
    2-4 times faster on one matrix. A draw too large to certify raises OverflowError."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    _positive("sigma", sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        A = rng.normal(0.0, sigma, size=(count, 2 * N, 2 * N))
        A = standard_form(N) @ (0.5 * (A + np.swapaxes(A, 1, 2)))  # the draw is freed
        if count == 1:
            from scipy.linalg import expm  # not at module level: it takes ~0.35 s to import
        S = expm(A) if count == 1 else _expm(A)
    # its certificate sums 2N products of entries: 2N 1e300 < 1.8e308 for N < 9e7
    if not np.abs(S).max() <= 1e150:  # NaN too
        raise OverflowError("random symplectic draw is too large to certify")
    return S


# the Pade 13 coefficients b_0..b_13 of exp, and the largest 1-norm it takes unscaled
_PADE_13 = (64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
            129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920, 40840800,
            960960, 16380, 182, 1)
_THETA_13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A_k) for each matrix of a (count, m, m) stack: Pade 13 with scaling and
    squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), each member
    scaled by its own 2^-s, s = max(0, ceil(log2(|A_k|_1 / theta_13))). A member of
    the stack equals `_expm` of that member alone, bit for bit: the squarings are
    masked per member."""
    mantissa, exponent = np.frexp(np.abs(A).sum(axis=-2).max(axis=-1) / _THETA_13)
    s = np.maximum(exponent - (mantissa == 0.5), 0)  # exact ceil(log2); 0 for 0 and non-finite
    A = np.ldexp(A, -s[:, None, None])
    b = _PADE_13
    I = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
    for k, P in ((3, A2), (5, A4), (7, A6), (1, I)):
        U += b[k] * P
        V += b[k - 1] * P
    U = A @ U
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: at |A| ~ 1e-20 this form rounds
    # to the identity, the other to a det of 0.9999999999999996
    X = 2.0 * np.linalg.solve(V - U, U) + I
    for i in range(s.max()):
        Y = X[s > i]
        X[s > i] = Y @ Y
    return X


@dataclass(eq=False)
class QuadraticHamiltonian:
    """H(z) = 1/2 z^T M z with M a 2N x 2N symmetric matrix (energy units)."""

    M: np.ndarray

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.n = _check_even_square(self.M)
        if not np.all(np.isfinite(self.M)):
            raise ValueError("matrix entries must be finite")
        scale = np.max(np.abs(self.M))
        if scale == 0 or np.max(np.abs(self.M - self.M.T)) > 1e-12 * scale:
            raise ValueError("matrix must be symmetric")
        # store the exactly symmetric part
        self.M = 0.5 * (self.M + self.M.T)

    @classmethod
    def isotropic(cls, N: int, omega: float, mass: float = 1.0) -> "QuadraticHamiltonian":
        """N identical harmonic modes: H = sum_j (p_j^2 + m^2 w^2 q_j^2) / 2m."""
        if N < 1:
            raise ValueError(f"need N >= 1, got {N}")
        _positive("omega", omega)
        _positive("mass", mass)
        d = np.concatenate([np.full(N, mass * omega**2), np.full(N, 1.0 / mass)])
        return cls(np.diag(d))


@dataclass(eq=False)
class WilliamsonDecomposition:
    """Symplectic spectrum plus the diagonalizing symplectic matrix.

    Satisfies S^T D S = M with D = diag(w_1..w_N, w_1..w_N) and the
    frequencies sorted descending.
    """

    omegas: np.ndarray
    S: SymplecticMatrix
    residual: float


def _positive(name: str, value: float) -> None:
    if not 0 < value < np.inf:  # NaN too
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _positive_integer(name: str, value) -> int:
    """`value` as an int of at least 1, the reader of every dimension key;
    anything but an integral number (a bool, a string, null, a list, a float
    with a fractional part, NaN, inf) is refused by name rather than
    truncated or parsed, and so is an integer below 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if n < 1:
        raise ValueError(f"{name} must be positive, got {n}")
    return n


def _parse_int(text: str, name: str = "integer") -> int:
    """`text`, a command-line token, as an int: an optional sign and ASCII
    digits. Anything else (`1.5`, `a`, an empty string, and what int() would
    read: `1_0`, ` 3`, non-ASCII digits) is refused by name. The argparse
    type of every integer option."""
    digits = text[1:] if text.startswith(("+", "-")) else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{name} must be an integer, got {text!r}")
    return int(text)


def _real(name: str, value) -> float:
    """`value` as a float; anything but a real number (a bool, a string, null,
    a list) is refused by name rather than parsed, and so is an integer beyond
    the double range, as JSON's 1e400 is."""
    if type(value) not in (float, int) and (  # what JSON reads, without the ABC check
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number, got {value!r}") from None


def _reals(name: str, value, size=None) -> list:
    """`value`, a JSON array (of `size` entries if given), as a list of floats,
    each entry read by `_real`; anything else is refused by name."""
    length = len(value) if isinstance(value, list) else None
    if length is None or size not in (None, length):
        of = "" if size is None else f"{size} "
        raise ValueError(f"{name} must be an array of {of}real numbers, got "
                         + (repr(value) if length is None else f"an array of {length}"))
    try:
        return [float(x) if type(x) in (float, int) else _real(f"{name} entry", x) for x in value]
    except OverflowError:  # an integer beyond the double range
        return [_real(f"{name} entry", x) for x in value]


def _read(label: str, desc: dict, keys: dict, names=None) -> dict:
    """The keys given in the descriptor `desc`, each read by its reader in `keys`, a
    table of key -> (reader, required); `names` maps a key to the user's spelling, in
    which `desc` is keyed. The one rule of every descriptor: an unknown key is refused
    first, then a missing required one, and then each given value, in the table's order,
    by its reader(name, value) under the name "<label> key '<name>'"."""
    names = names or {}
    spelled = {names.get(key, key): key for key in keys}
    for name in desc:
        if name not in spelled:
            raise ValueError(f"{label} has unknown key {name!r}")
    for name, key in spelled.items():
        if keys[key][1] and name not in desc:
            raise ValueError(f"{label} is missing key {name!r}")
    return {key: keys[key][0](f"{label} key {name!r}", desc[name])
            for name, key in spelled.items() if name in desc}


def _require_positive(w: np.ndarray) -> None:
    """Raise NotPositiveDefinite unless the ascending eigenvalues `w` are all positive.

    A w[0] within n eps max|w| of 0 has no sign at double precision (eigh
    reads diag(1e-300, 1e300) as 0 and 1e300), so M is reported singular.
    """
    if w[0] <= 0:
        if -w[0] <= w.size * np.finfo(float).eps * max(-w[0], w[-1]):
            raise NotPositiveDefinite(f"matrix is singular to double precision: smallest "
                                      f"eigenvalue {w[0]:.3e}, largest {w[-1]:.3e}")
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.3e} is not positive")


def _normal_modes(H: QuadraticHamiltonian, vectors: bool):
    """Symplectic spectrum of H, descending, from one Hermitian eigenproblem.

    K = M^{1/2} J M^{1/2} is real antisymmetric, so iK is Hermitian with
    eigenvalues -w_1..-w_N, w_N..w_1 (Williamson, Amer. J. Math. 58, 141
    (1936)). With `vectors`, returns (omegas, M^{1/2}, X), X holding the unit
    eigenvectors of iK at +w_j as columns in the same order; else the omegas
    alone. Raises NotPositiveDefinite first, then NumericalDegeneracy.
    """
    n = H.n
    w, V = np.linalg.eigh(H.M)
    _require_positive(w)
    root = (V * np.sqrt(w)) @ V.T
    K = root @ standard_form(n) @ root
    iK = 0.5j * (K - K.T)
    ev, X = np.linalg.eigh(iK) if vectors else (np.linalg.eigvalsh(iK), None)
    if not ev[n] > 0:
        raise NumericalDegeneracy(f"smallest symplectic eigenvalue {ev[n]:.3e} is not positive")
    omegas = ev[n:][::-1]
    return (omegas, root, X[:, n:][:, ::-1]) if vectors else omegas


def symplectic_eigenvalues(H: QuadraticHamiltonian) -> np.ndarray:
    """Symplectic spectrum w_1 >= .. >= w_N of a positive-definite M: the
    positive eigenvalues of i M^{1/2} J M^{1/2}, equal to those of eig(JM) / i.
    Raises NotPositiveDefinite first, then NumericalDegeneracy."""
    return _normal_modes(H, vectors=False)


def williamson(H: QuadraticHamiltonian) -> WilliamsonDecomposition:
    """Williamson normal form of a positive-definite quadratic Hamiltonian.

    Each unit eigenvector x + iy of iK at +w_j (`_normal_modes`) gets the
    phase that puts its entry of largest modulus on the positive imaginary
    axis; entries within 8 eps of that modulus tie, and the lowest index
    wins. It then gives the orthonormal pair a_j = sqrt2 y, b_j = sqrt2 x,
    with K a_j = -w_j b_j and K b_j = w_j a_j, for a degenerate w too. With
    Q = [a | b], R = M^{-1/2} Q D^{1/2} is symplectic with R^T M R = D, so
    S = R^{-1} = D^{-1/2} Q^T M^{1/2}. One first-order step
    S <- S (I + J E / 2), E = S^T J S - J, takes the eigenvectors' rounding
    out of E. Raises NumericalDegeneracy if S still fails its certificate.
    """
    n = H.n
    omegas, root, X = _normal_modes(H, vectors=True)
    modulus = np.abs(X)
    top = np.argmax(modulus >= (1 - 8 * np.finfo(float).eps) * modulus.max(axis=0), axis=0)
    pivot = X[top, np.arange(n)]
    X = X * (1j * pivot.conj() / np.abs(pivot))
    Q = np.sqrt(2.0) * np.hstack([X.imag, X.real])
    d = np.concatenate([omegas, omegas])
    S = Q.T @ root / np.sqrt(d)[:, None]
    J = standard_form(n)
    S = S + 0.5 * S @ J @ (S.T @ J @ S - J)

    residual = float(np.max(np.abs(S.T @ (d[:, None] * S) - H.M)) / np.max(np.abs(H.M)))
    try:
        S = SymplecticMatrix(S)
    except ValueError as exc:  # M is valid: the rounding of S is at fault
        raise NumericalDegeneracy(f"Williamson normal form: {exc}") from None
    return WilliamsonDecomposition(omegas=omegas, S=S, residual=residual)


def matrix_to_json(M: np.ndarray) -> dict:
    """Serialize a 2N x 2N matrix as {"n": N, "matrix": row-major list}."""
    n = _check_even_square(np.asarray(M, dtype=float))
    return {"n": n, "matrix": [float(x) for x in np.asarray(M, dtype=float).ravel()]}


# matrix descriptor key -> (reader, required); the entries are read once n is known
_MATRIX_KEYS = {"n": (_positive_integer, True), "matrix": (lambda name, value: value, True)}


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix descriptor must be a JSON object with keys 'n' and 'matrix'")
    desc = _read("matrix descriptor", obj, _MATRIX_KEYS)
    n = desc["n"]
    flat = _reals("matrix descriptor key 'matrix'", desc["matrix"], 4 * n * n)
    return np.array(flat).reshape(2 * n, 2 * n)
