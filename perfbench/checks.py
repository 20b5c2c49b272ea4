"""Output checks, one function per request kind, run outside the timed region.

Each check takes the request's parameters and the CLI's stdout and returns
None when the output is right, or a one-line reason when it is not. The
oracles are independent of sympcap: closed forms, numpy eigenvalues and a
dense harmonic-basis diagonalization. Tolerances, never byte-exact
goldens, so that last-digit float drift between machines is not a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from workloads import NMAX, standard_form

PI = math.pi


class KnownDefect(str):
    """Reason for rejecting an output that shows a documented defect of the
    program (README.md): the request counts as failed, the run stays correct."""


def _close(x, y, rel):
    return abs(x - y) <= rel * max(abs(x), abs(y))


# ---------------------------------------------------------------------------
# shadow-flow


def _evolve_rows(out):
    rows = list(csv.DictReader(io.StringIO(out)))
    if [float(r["time"]) for r in rows] != [1.0, 2.0, 5.0]:
        raise ValueError(f"expected snapshots at t = 1, 2, 5, got {len(rows)} rows")
    return rows


def quartic_shadow(params, out):
    for r in _evolve_rows(out):
        area = float(r["area"])
        if area < 0.95 * PI or r["satisfied"] != "True":
            return f"quartic shadow area {area} below 0.95 pi at t={r['time']}"
    return None


def harmonic_shadow(params, out):
    for r in _evolve_rows(out):
        area = float(r["area"])
        if not _close(area, PI, 0.05):
            return f"harmonic control area {area} not within 5% of pi at t={r['time']}"
    return None


# ---------------------------------------------------------------------------
# ebk-spectra


def _ebk_integers(entries, h):
    """action/h - maslov/4 equals the quantum number to 1e-8, per loop."""
    for e in entries:
        for n, action, maslov in zip(e["n"], e["actions"], e["maslov"]):
            x = action / h - maslov / 4.0
            if abs(x - n) > 1e-8:
                return f"action/h - maslov/4 = {x!r} for n = {n}"
    return None


def _levels(out, hbar):
    obj = json.loads(out)
    entries = obj["entries"]
    return entries, _ebk_integers(entries, 2.0 * PI * hbar), obj.get("skipped", [])


def harmonic_levels(params, out):
    entries, bad, skipped = _levels(out, params["hbar"])
    if bad:
        return bad
    if [e["n"][0] for e in entries] != list(range(NMAX + 1)) or skipped:
        return "harmonic spectrum is missing levels"
    for e in entries:
        exact = params["hbar"] * params["omega"] * (e["n"][0] + 0.5)
        if not _close(e["energy"], exact, 1e-10):
            return f"harmonic level {e['n'][0]}: {e['energy']!r} vs {exact!r}"
    return None


def morse_energy(D, a, hbar, n, mass=1.0):
    """Closed-form Morse level, or None past dissociation."""
    x = hbar * a * math.sqrt(2.0 * D / mass) * (n + 0.5)
    return None if x >= 2.0 * D else x - x * x / (4.0 * D)


def morse_levels(params, out):
    entries, bad, skipped = _levels(out, params["hbar"])
    if bad:
        return bad
    D, a, hbar = params["D"], params["a"], params["hbar"]
    found = sorted([e["n"][0] for e in entries] + [s["n"] for s in skipped])
    if found != list(range(NMAX + 1)) or not skipped:
        return "Morse spectrum does not cover 0..nmax with levels past dissociation skipped"
    for e in entries:
        exact = morse_energy(D, a, hbar, e["n"][0])
        if exact is None or not _close(e["energy"], exact, 1e-8):
            return f"Morse level {e['n'][0]}: {e['energy']!r} vs closed form {exact!r}"
    for s in skipped:
        # a level may sit just below the threshold, where skipping is fair
        exact = morse_energy(D, a, hbar, s["n"])
        if exact is not None and exact < D * (1 - 1e-6):
            return f"bound Morse level {s['n']} was skipped"
    return None


def diagonalized_levels(coeffs, hbar, basis=160, omega=1.0):
    """Eigenvalues of p^2/2 + sum_k c_k q^k in a harmonic-oscillator basis.

    q is built two sizes larger per power and truncated after the product,
    so the retained block of q^k is exact.
    """
    deg = len(coeffs) - 1
    big = basis + deg
    lower = np.diag(np.sqrt(np.arange(1, big)), k=1)
    q = math.sqrt(hbar / (2.0 * omega)) * (lower + lower.T)
    V = np.zeros((big, big))
    qk = np.eye(big)
    for c in coeffs:
        V += c * qk
        qk = qk @ q
    p2 = -(hbar * omega / 2.0) * (lower.T - lower) @ (lower.T - lower)
    H = (0.5 * p2 + V)[:basis, :basis]
    return np.linalg.eigvalsh(0.5 * (H + H.T))


def poly_levels(params, out):
    entries, bad, skipped = _levels(out, params["hbar"])
    if bad:
        return bad
    if [e["n"][0] for e in entries] != list(range(NMAX + 1)) or skipped:
        return "polynomial spectrum is missing levels"
    exact = diagonalized_levels(params["coeffs"], params["hbar"])
    for e in entries[3:]:
        n = e["n"][0]
        if not _close(e["energy"], exact[n], 0.01):
            return f"level {n}: EBK {e['energy']!r} vs diagonalization {exact[n]!r}"
    return None


def separable_level(params, out):
    entries, bad, _ = _levels(out, params["hbar"])
    if bad:
        return bad
    hbar, total = params["hbar"], 0.0
    for desc, n in params["modes"]:
        if desc["kind"] == "harmonic":
            total += hbar * desc["omega"] * (n + 0.5)
        else:
            total += morse_energy(desc["D"], desc["a"], hbar, n)
    (entry,) = entries
    if entry["n"] != [n for _, n in params["modes"]] or not _close(entry["energy"], total, 1e-8):
        return f"separable energy {entry['energy']!r} vs sum of 1-D levels {total!r}"
    return None


# ---------------------------------------------------------------------------
# linear-ensemble


def _omega_max(M):
    n = M.shape[0] // 2
    return float(np.max(np.abs(np.linalg.eigvals(standard_form(n) @ M).imag)))


def ellipsoid_capacity(params, out):
    value = json.loads(out)["value"]
    exact = 2.0 * PI * params["energy"] / _omega_max(params["M"])
    if not _close(value, exact, 1e-8):
        return f"capacity {value!r} vs 2 pi E / w_max = {exact!r}"
    return None


def williamson(params, out):
    obj = json.loads(out)
    M = params["M"]
    n = M.shape[0] // 2
    omegas = np.asarray(obj["omegas"])
    S = np.asarray(obj["S"]["matrix"]).reshape(2 * n, 2 * n)
    D = np.diag(np.concatenate([omegas, omegas]))
    residual = float(np.max(np.abs(S.T @ D @ S - M)) / np.max(np.abs(M)))
    if obj["residual"] > 1e-10 or residual > 1e-10:
        return f"Williamson residual {obj['residual']!r} (recomputed {residual!r}) above 1e-10"
    ev = np.sort(np.abs(np.linalg.eigvals(standard_form(n) @ M).imag))[::2][::-1]
    if not np.allclose(omegas, ev, rtol=1e-9, atol=0.0):
        return f"symplectic spectrum {omegas.tolist()} vs eigvals(J M) {ev.tolist()}"
    return None


def conjugate_shadow(params, out):
    obj = json.loads(out)
    bound = PI * params["radius"] ** 2
    if obj["plane"] != f"q{params['j']}p{params['j']}" or not _close(obj["bound"], bound, 1e-15):
        return f"wrong plane or bound: {obj['plane']} {obj['bound']!r}"
    if obj["area"] < bound * (1 - 1e-9) or not obj["satisfied"]:
        reason = f"conjugate shadow {obj['area']!r} below pi R^2 = {bound!r}"
        # Known defect: for N = 1 the area is sqrt(det S S^T) with det S = 1,
        # which cancels when S is ill-conditioned; from sigma = 2 on it comes
        # out short by any amount, down to 0. At N >= 2 a shortfall is wrong.
        if params["n"] == 1 and params["sigma"] >= 2.0:
            return KnownDefect(reason)
        return reason
    return None


def ensemble(params, out):
    obj = json.loads(out)
    if obj["n"] != params["n"] or obj["count"] != params["count"]:
        return "ensemble size echoed wrongly"
    if not obj["conjugate_bound_held"] or obj["min_conjugate_det"] < 1 - 1e-9:
        return f"conjugate determinant {obj['min_conjugate_det']!r} below 1"
    if obj["nonconjugate_witness"]["det"] != obj["min_nonconjugate_det"]:
        return "nonconjugate witness does not match the reported minimum"
    return None


def bottle(params, out):
    obj = json.loads(out)
    R, r = params["radius"], params["neck"]
    cap, cert = obj["capacity"], obj["certificate"]
    exact = (cap["exact"] is True and _close(cap["value"], PI * R * R, 4.5e-16)
             and _close(obj["neck_loop_action"], PI * r * r, 4.5e-16))
    if not exact or obj["neck_action_below_capacity"] is not True:
        return f"bottle values differ from pi R^2, pi r^2: {out.strip()}"
    if cert["inner_samples"] != 10_000 or not 0 < cert["region_hits"] <= 10_000:
        return f"bottle certificate counts off: {cert}"
    return None


# Known defect: `shadow --random` checks S with an absolute 1e-9 symplectic
# tolerance, which rejects valid large-sigma draws with exit 2.
SYMPLECTIC_TOL_EXIT = re.compile(r"symplectic defect \S+ exceeds tolerance 1\.000e-09")


def _known_exit(check, rc, out):
    if check != "conjugate_shadow" or rc != 2:
        return False
    try:
        obj = json.loads(out)
    except ValueError:
        return False
    return (isinstance(obj, dict) and obj.get("error") == "InvalidInput"
            and SYMPLECTIC_TOL_EXIT.fullmatch(str(obj.get("message"))) is not None)


def judge(check: str, params: dict, rc, out: str):
    """(failed, wrong, reason) for one request outcome.

    Every failure is wrong, which makes the run incorrect, unless it is one
    of the known defects: then the request counts as failed and the run
    stays correct.
    """
    if rc != 0:
        return True, not _known_exit(check, rc, out), f"exit {rc}: {out.strip()[:200]}"
    try:
        reason = globals()[check](params, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"unreadable output ({type(exc).__name__}: {exc})"
    return reason is not None, reason is not None and not isinstance(reason, KnownDefect), reason
