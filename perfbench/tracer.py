"""Benchmark-side tracer: wraps sympcap's public functions from outside.

Each target function is replaced at every name it is bound to inside the
sympcap package, so ``from .core import williamson`` copies in
``capacity`` and ``ebk`` are traced too. Spans stay in memory as
[name, parent, start, end, work]; self time is a span's duration
minus its direct children's. ``Potential1D.V`` is counted, not spanned,
by wrapping the object ``ebk.make_potential`` returns.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

import numpy as np


def _arg(fn, name):
    """Work function reading one bound argument of `fn` by name."""
    sig = inspect.signature(fn)

    def get(args, kwargs, result):
        return sig.bind(*args, **kwargs).arguments.get(name)

    return get


def _evolve_work(fn):
    """samples x Verlet steps to the last snapshot."""
    sig = inspect.signature(fn)

    def get(args, kwargs, result):
        a = sig.bind(*args, **kwargs).arguments
        return a["samples"] * round(max(a["snapshot_times"]) / a["flow"].dt)

    return get


def _rows(fn):
    get = _arg(fn, "points_2d")
    return lambda args, kwargs, result: len(get(args, kwargs, result))


# (module, function, work) -- work counts the unit the per-layer metrics
# divide by: points drawn, particle-steps, ensemble members, levels emitted.
TARGETS = (
    ("cli", "run", None),
    ("sampling", "ball_points", lambda fn: _arg(fn, "count")),
    ("sampling", "box_points", lambda fn: _arg(fn, "count")),
    ("core", "williamson", None),
    ("core", "symplectic_eigenvalues", None),
    ("core", "random_symplectic", None),
    ("capacity", "capacity_ellipsoid", None),
    ("capacity", "capacity_sandwich", None),
    ("shadows", "evolve_ball_shadow", _evolve_work),
    ("shadows", "grid_shadow_area", _rows),
    ("shadows", "nonsqueeze_ensemble", lambda fn: _arg(fn, "count")),
    ("shadows", "linear_shadow_area", None),
    ("ebk", "turning_points", None),
    ("ebk", "action_integral", None),
    ("ebk", "spectrum_1d", lambda fn: lambda a, k, result: len(result.entries)),
    ("ebk", "spectrum_separable", lambda fn: lambda a, k, result: len(result.quantum_numbers)),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.v_calls = 0
        self.v_points = 0

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if work is not None:
                try:
                    span[4] = work(args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    pass  # a changed signature leaves this span's work at 0
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_V(self, V):
        def counted(q):
            self.v_calls += 1
            self.v_points += int(np.size(q))
            return V(q)

        return counted

    def install(self, package="sympcap"):
        """Replace every binding of each target inside the loaded package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        cli = sys.modules[package + ".cli"]
        ebk = sys.modules[package + ".ebk"]
        targets = [(f"{mod}.{attr}", getattr(sys.modules[f"{package}.{mod}"], attr, None), work)
                   for mod, attr, work in TARGETS]
        # handlers are looked up by build_parser on every cli.run call
        targets += [(f"cli.{attr}", getattr(cli, attr), None)
                    for attr in sorted(vars(cli)) if attr.startswith("cmd_")]
        make_potential = ebk.make_potential

        def counted_potential(*args, **kwargs):
            pot = make_potential(*args, **kwargs)
            pot.V = self._counting_V(pot.V)
            return pot

        replacements = {id(make_potential): counted_potential}
        for name, fn, work in targets:
            if fn is None:
                continue
            replacements[id(fn)] = self.wrap(name, fn, work(fn) if work else None)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if id(value) in replacements and callable(value):
                    setattr(m, attr, replacements[id(value)])

    def aggregate(self):
        """Per span name: calls, inclusive seconds, self seconds, work."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, work in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = {}
        for (name, parent, t0, t1, work), c in zip(self.spans, child):
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += t1 - t0 - c
            a["work"] += work
        return agg
