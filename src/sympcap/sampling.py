"""Quasi-random point sets used by certificate checks and shadow estimates."""

from __future__ import annotations

import functools
import operator

import numpy as np


@functools.lru_cache(maxsize=4)
def _halton(count: int, dim: int, seed: int) -> np.ndarray:
    """`count` scrambled Halton points in [0, 1)^dim, memoized and read-only.

    An integer seed names a fixed point set, and the sandwich certificate and
    shadow runs ask for the same few sets again and again, while a scipy draw
    of 10 000 points costs ~10 ms. A seed that is not an integer (a Generator,
    None) would be a fresh stream that a memo must not repeat: it is refused.
    """
    from scipy.stats import qmc  # here, not at module level: importing scipy.stats takes ~0.5 s

    u = qmc.Halton(d=dim, scramble=True, seed=operator.index(seed)).random(count)
    u.flags.writeable = False
    return u


def ball_points(count: int, dim: int, radius: float = 1.0, center=None, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points filling a dim-dimensional ball.

    Halton samples pushed through the Gaussian-direction + radius transform:
    direction from a normalized inverse-normal map, radius from u^(1/dim).
    """
    from scipy.special import ndtri  # here, not at module level, like qmc in _halton

    u = _halton(count, dim + 1, seed)
    g = ndtri(np.clip(u[:, :dim], 1e-15, 1 - 1e-15))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * u[:, dim] ** (1.0 / dim)
    pts = g * r[:, None]
    if center is not None:
        pts = pts + np.asarray(center, dtype=float)
    return pts


def box_points(count: int, lo, hi, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points filling an axis-aligned box [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return lo + (hi - lo) * _halton(count, lo.size, seed)
