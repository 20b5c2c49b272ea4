"""Quasi-random point sets used by certificate checks and shadow estimates."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri


def ball_points(count: int, dim: int, radius: float = 1.0, center=None, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points filling a dim-dimensional ball.

    Halton samples pushed through the Gaussian-direction + radius transform:
    direction from a normalized inverse-normal map, radius from u^(1/dim).
    """
    from scipy.stats import qmc  # here, not at module level: importing scipy.stats takes ~0.5 s

    eng = qmc.Halton(d=dim + 1, scramble=True, seed=seed)
    u = eng.random(count)
    g = ndtri(np.clip(u[:, :dim], 1e-15, 1 - 1e-15))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * u[:, dim] ** (1.0 / dim)
    pts = g * r[:, None]
    if center is not None:
        pts = pts + np.asarray(center, dtype=float)
    return pts


def box_points(count: int, lo, hi, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points filling an axis-aligned box [lo, hi]."""
    from scipy.stats import qmc

    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    eng = qmc.Halton(d=lo.size, scramble=True, seed=seed)
    return lo + (hi - lo) * eng.random(count)
