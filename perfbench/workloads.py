"""Seeded request lists for the three benchmark workloads.

A workload is one pass: a fixed-length list of CLI argv lists that a
single closed-loop client sends through ``sympcap.cli.run`` in order. The
seed changes the parameters inside the requests, never how many there are
or of which kind. Each request also carries the parameters its output
check needs; the program under test sees only the argv.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm


@dataclass(frozen=True)
class Request:
    argv: tuple
    check: str  # name of the function in checks.py that judges the output
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    # Latency percentile reported as op_tail_ms. Fixed per workload so the
    # figure does not change meaning when a faster program fits more passes
    # into a run; chosen so a run at the current speed has at least ten
    # requests beyond it, and below the share of requests that answer, since
    # a failed request counts as the slowest.
    tail_pct: float
    reference: str  # calibrate.py task whose code is most like this workload's
    build: object  # callable(np.random.Generator) -> list[Request]


def _f(x: float) -> str:
    return repr(float(x))


def _strata(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """`count` draws from [lo, hi], one per equal-width stratum, shuffled.

    Every seed then covers the range alike, so a pass costs about the same
    whatever the seed.
    """
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return lo + (hi - lo) * rng.permutation(u)


# ---------------------------------------------------------------------------
# shadow-flow: the paper's nonlinear nonsqueezing experiment through `evolve`

EVOLVE_COMMON = ("--times", "1,2,5", "--dt", "0.02", "--samples", "5000", "--grid-cell", "0.1")


def _evolve(kind: str, param: str, rng) -> tuple:
    return ("evolve", "--potential", kind, param, *EVOLVE_COMMON,
            "--seed", str(int(rng.integers(0, 2**31))))


def _shadow_flow(rng) -> list:
    reqs = [Request(_evolve("quartic", f"coeff={_f(c)}", rng), "quartic_shadow")
            for c in _strata(rng, 3, 0.15, 0.35)]
    omega = rng.uniform(0.8, 1.25)
    reqs.append(Request(_evolve("harmonic", f"omega={_f(omega)}", rng), "harmonic_shadow"))
    return reqs


# ---------------------------------------------------------------------------
# ebk-spectra: EBK levels from loop actions, 1-D and separable

NMAX = 6
PER_KIND = 10


def _morse_a(D, hbar, lam):
    # Levels n < lam - 1/2 are bound, lam = sqrt(2 m D) / (a hbar). With lam
    # in [3.7, 4.3] levels 0..3 are bound and 4..nmax skipped, whatever D.
    return math.sqrt(2.0 * D) / (lam * hbar)


def _quantize_1d(potential: tuple, hbar: float) -> tuple:
    return ("quantize-1d", "--potential", *potential, "--nmax", str(NMAX), "--hbar", _f(hbar))


def _ebk_spectra(rng) -> list:
    K = PER_KIND
    reqs = []
    for omega, hbar in zip(_strata(rng, K, 0.5, 2.0), _strata(rng, K, 0.7, 1.3)):
        reqs.append(Request(_quantize_1d(("harmonic", f"omega={_f(omega)}"), hbar),
                            "harmonic_levels", {"omega": omega, "hbar": hbar}))
    # Twice as many Morse requests: their cluster then holds the median
    # latency in its middle rather than at an edge shared with another kind.
    for D, lam, hbar in zip(_strata(rng, 2 * K, 8.0, 12.0), _strata(rng, 2 * K, 3.7, 4.3),
                            _strata(rng, 2 * K, 0.7, 1.3)):
        a = _morse_a(D, hbar, lam)
        reqs.append(Request(_quantize_1d(("morse", f"D={_f(D)}", f"a={_f(a)}"), hbar),
                            "morse_levels", {"D": D, "a": a, "hbar": hbar}))
    for coeff, hbar in zip(_strata(rng, K, 0.1, 1.0), _strata(rng, K, 0.7, 1.3)):
        reqs.append(Request(_quantize_1d(("quartic", f"coeff={_f(coeff)}"), hbar),
                            "poly_levels", {"coeffs": [0.0, 0.0, 0.0, 0.0, coeff], "hbar": hbar}))
    for c4, s3, b, hbar in zip(_strata(rng, K, 0.05, 0.2), _strata(rng, K, -0.5, 0.5),
                               _strata(rng, K, -0.2, 0.2), _strata(rng, K, 0.7, 1.3)):
        # b q + q^2/2 + c3 q^3 + c4 q^4 with c3^2 < 4 c4 / 3 is convex: one well
        coeffs = [0.0, b, 0.5, s3 * math.sqrt(c4), c4]
        desc = json.dumps({"kind": "polynomial", "coeffs": coeffs})
        reqs.append(Request(_quantize_1d((desc,), hbar), "poly_levels",
                            {"coeffs": coeffs, "hbar": hbar}))
    kinds = (("harmonic", "morse"), ("morse", "morse"), ("harmonic", "harmonic", "morse"),
             ("harmonic", "morse"), ("morse", "harmonic")) * (K // 5)
    for combo, hbar in zip(kinds, _strata(rng, K, 0.7, 1.3)):
        modes = []
        for kind in combo:
            if kind == "harmonic":
                modes.append(({"kind": "harmonic", "omega": rng.uniform(0.5, 2.0)},
                              int(rng.integers(0, 5))))
            else:
                D = rng.uniform(8.0, 12.0)
                a = _morse_a(D, hbar, rng.uniform(3.7, 4.3))
                modes.append(({"kind": "morse", "D": D, "a": a}, int(rng.integers(0, 4))))
        argv = ("quantize-separable", "--potentials", json.dumps([d for d, _ in modes]),
                "--n", ",".join(str(n) for _, n in modes), "--hbar", _f(hbar))
        reqs.append(Request(argv, "separable_level", {"modes": modes, "hbar": hbar}))
    return reqs


# ---------------------------------------------------------------------------
# linear-ensemble: many small linear-capacity requests

SWEEP_N = (1, 2, 4, 6, 8, 10)
SWEEP_SIGMA = (1.0, 2.0, 3.0, 4.0, 5.0)
SWEEP_SEEDS_PER_CELL = 4
MATRICES_PER_N = 12


def standard_form(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def _random_pd(rng, n: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
    lam = np.exp(rng.uniform(math.log(0.5), math.log(4.0), 2 * n))
    M = (Q * lam) @ Q.T
    return 0.5 * (M + M.T)


def _conjugate(rng, M: np.ndarray) -> np.ndarray:
    """S^T M S for a random symplectic S = exp(J A), drawn here, not by sympcap."""
    n = M.shape[0] // 2
    G = rng.normal(0.0, 0.3, size=M.shape)
    S = expm(standard_form(n) @ (0.5 * (G + G.T)))
    C = S.T @ M @ S
    return 0.5 * (C + C.T)


def _matrix_json(M: np.ndarray) -> dict:
    return {"n": M.shape[0] // 2, "matrix": [float(x) for x in M.ravel()]}


def _linear_ensemble(rng) -> list:
    reqs = []
    for n in range(1, 5):
        for _ in range(MATRICES_PER_N):
            M = _random_pd(rng, n)
            E = rng.uniform(0.5, 2.0)
            for target in (M, _conjugate(rng, M)):
                region = {"type": "ellipsoid", "matrix": _matrix_json(target), "energy": E}
                # the conjugate is checked against M's spectrum: invariance
                reqs.append(Request(("capacity", "--region", json.dumps(region)),
                                    "ellipsoid_capacity", {"M": M, "energy": E}))
            reqs.append(Request(("williamson", "--matrix", json.dumps(_matrix_json(M))),
                                "williamson", {"M": M}))
    for n in SWEEP_N:
        for sigma in SWEEP_SIGMA:
            for _ in range(SWEEP_SEEDS_PER_CELL):
                j = int(rng.integers(1, n + 1))
                radius = rng.uniform(0.5, 2.0)
                argv = ("shadow", "--random", str(n), "--sigma", _f(sigma),
                        "--seed", str(int(rng.integers(0, 2**31))),
                        "--plane", f"conjugate:{j}", "--radius", _f(radius))
                reqs.append(Request(argv, "conjugate_shadow",
                                    {"radius": radius, "j": j, "n": n, "sigma": sigma}))
    for n in (2, 3):
        argv = ("nonsqueeze-ensemble", "--n", str(n), "--count", "1000",
                "--seed", str(int(rng.integers(0, 2**31))))
        reqs.append(Request(argv, "ensemble", {"n": n, "count": 1000}))
    for _ in range(12):
        radius = rng.uniform(0.5, 2.0)
        neck = radius * rng.uniform(0.2, 0.8)
        argv = ("bottle-demo", "--radius", _f(radius), "--neck", _f(neck))
        reqs.append(Request(argv, "bottle", {"radius": radius, "neck": neck}))
    return reqs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("shadow-flow", 75.0, "vector", _shadow_flow),
        Workload("ebk-spectra", 90.0, "interp", _ebk_spectra),
        Workload("linear-ensemble", 75.0, "cli", _linear_ensemble),
    )
}


def build(name: str, seed: int) -> list:
    """The request list of one pass of workload `name` for `seed`."""
    return WORKLOADS[name].build(np.random.default_rng(seed))
