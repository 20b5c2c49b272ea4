"""Fixed reference tasks that measure how fast the machine runs right now.

The benchmark's host shares its cores with other tenants, and its speed
drifts by tens of percent over minutes: a linear-ensemble pass took
1.47 s in one half-minute and 2.22 s three minutes later. The drift does
not hit all code alike -- interpreter-bound code slowed about twice as
much as vectorized numpy code -- so there are three reference tasks, and
each workload is normalized by the one that matches its code:

- ``interp``: argparse, json, small numpy and scipy calls and a Python
  root finder, like a CLI request that is mostly interpreter work;
- ``cli``: argparse alone, building a parser and parsing one argv, like
  the small requests whose time goes mostly to the CLI's own parser;
- ``vector``: a finite-difference Verlet kick and an occupancy grid on
  5000-element numpy arrays, like the evolve request.

None calls sympcap, so a change to the program cannot move them. The
speed factor is a task's time now over its time on a quiet machine.
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(8, 8))
_M = _A @ _A.T + 8.0 * np.eye(8)
_X = np.linspace(-2.0, 2.0, 5000)
_OBJ = {f"k{i}": [float(x) for x in _RNG.normal(size=10)] for i in range(20)}
_Q = np.linspace(-1.0, 1.0, 5000)
_P = np.cos(np.linspace(0.0, 3.0, 5000))


def _parser():
    p = argparse.ArgumentParser(prog="reference")
    sub = p.add_subparsers(dest="cmd", required=True)
    for k in range(12):
        sp = sub.add_parser(f"c{k}", help="reference subcommand")
        for j in range(8):
            sp.add_argument(f"--a{j}", type=float, default=0.0)
    return p


def _interp():
    for _ in range(4):
        _parser().parse_args(["c3", "--a1", "2.5"])
    for _ in range(20):
        json.loads(json.dumps(_OBJ))
    for _ in range(40):
        np.linalg.eigvals(_M)
    for _ in range(10):
        expm(0.1 * _A)
    for _ in range(30):
        np.power(_X, 4)
    for _ in range(5):
        brentq(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-15)


def _cli():
    for _ in range(9):
        _parser().parse_args(["c3", "--a1", "2.5"])


def _quartic(q):
    return 0.25 * np.power(q, 4)


def _vector():
    q, p = _Q.copy(), _P.copy()
    h, dt = 1e-5, 0.02
    for _ in range(15):
        q += dt * p
        p -= dt * (_quartic(q - 2 * h) - 8 * _quartic(q - h) + 8 * _quartic(q + h)
                   - _quartic(q + 2 * h)) / (12 * h)
    np.unique(np.floor(np.stack([q, p], axis=1) / 0.1).astype(np.int64), axis=0)


# Task and its time on a quiet 2-core Xeon at 2.0 GHz (Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1, one OpenBLAS thread); normalized times read as
# seconds on that machine. The cli time is derived: 9/20 of 2.17 times the
# interp time, the median ratio of 300 interleaved runs of interp and of
# 20 parser builds.
REFERENCES = {"interp": (_interp, 0.025), "cli": (_cli, 0.0244), "vector": (_vector, 0.020)}


def speed_factor(kind: str) -> float:
    """Current slowdown of reference task `kind` against the quiet machine."""
    task, quiet_s = REFERENCES[kind]
    t0 = perf_counter()
    task()
    return (perf_counter() - t0) / quiet_s
