"""Command-line front end.

Subcommands cover capacities, Williamson spectra, linear and evolved
shadows, the nonsqueezing ensemble, EBK spectra, density of states, blob
checks and the bottle counterexample. Results are JSON on stdout (CSV for
tabular spectra/snapshots); errors are structured JSON objects, never bare
text. Exit codes: 0 success, 2 input validation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import capacity as cap_mod
from . import core, ebk, shadows
from .errors import SympcapError

FLOAT_FMT = "%.17g"
NOT_FINITE = "result is not finite"


def _fmt(x) -> str:
    return FLOAT_FMT % x


class InputError(Exception):
    pass


def _parse_kv(tokens):
    """Parse ["R=1", "N=3"] style token lists into a dict."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise InputError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        try:
            out[k] = json.loads(v)
        except json.JSONDecodeError:
            out[k] = v
    return out


def _parse_plane(spec: str) -> shadows.PlaneSelector:
    if ":" not in spec:
        raise InputError(f"plane must look like conjugate:1 or qq:1,2, got {spec!r}")
    kind, idx = spec.split(":", 1)
    nums = [int(s) for s in idx.split(",")]
    try:
        if kind == "conjugate":
            return shadows.PlaneSelector.conjugate(nums[0])
        if kind == "qq":
            return shadows.PlaneSelector.position_pair(*nums)
        if kind == "pp":
            return shadows.PlaneSelector.momentum_pair(*nums)
        if kind == "qp":
            return shadows.PlaneSelector.mixed(*nums)
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc))
    raise InputError(f"unknown plane kind {kind!r}")


def _parse_ints(spec: str):
    return [int(s) for s in spec.split(",")]


def _load_matrix(args) -> np.ndarray:
    if getattr(args, "matrix", None):
        return core.matrix_from_json(json.loads(args.matrix))
    if getattr(args, "matrix_file", None):
        with open(args.matrix_file) as fh:
            return core.matrix_from_json(json.load(fh))
    raise InputError("provide --matrix or --matrix-file")


def _parse_potential(args) -> ebk.Potential1D:
    tokens = args.potential
    if len(tokens) == 1 and tokens[0].lstrip().startswith("{"):
        desc = json.loads(tokens[0])
    else:
        desc = _parse_kv(tokens[1:])
        desc["kind"] = tokens[0]
    return ebk.make_potential(desc)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError:  # an infinite or NaN float
        raise InputError(NOT_FINITE) from None
    _emit(args, text + "\n")


def _emit_csv(args, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(x) if isinstance(x, float) else x for x in row])
    _emit(args, buf.getvalue())


def _spectrum_rows(entries):
    rows = []
    for e in entries:
        rows.append(
            list(e.quantum_numbers) + [float(e.energy)] + [float(a) for a in e.actions]
            + list(e.maslov_per_loop)
        )
    return rows


def _spectrum_json(entries, hbar):
    return {
        "hbar": hbar,
        "entries": [
            {
                "n": list(e.quantum_numbers),
                "energy": e.energy,
                "actions": list(e.actions),
                "maslov": list(e.maslov_per_loop),
            }
            for e in entries
        ],
    }


# ---------------------------------------------------------------------------
# subcommand handlers


# descriptor key -> token name in `capacity --ball` / `--cylinder`
_REGION_TOKENS = {"radius": "R", "n": "N", "axis": "j", "plane": "plane"}


def cmd_capacity(args):
    if args.ball or args.cylinder:
        kind, tokens = ("ball", args.ball) if args.ball else ("cylinder", args.cylinder)
        kv = _parse_kv(tokens)
        desc = {"type": kind}
        desc.update({key: kv[tok] for key, tok in _REGION_TOKENS.items() if tok in kv})
        result = _capacity_from_descriptor(desc, _REGION_TOKENS)
    elif args.region:
        desc = json.loads(args.region)
        if not isinstance(desc, dict):
            raise InputError("--region must be a JSON object")
        result = _capacity_from_descriptor(desc)
    else:
        raise InputError("provide --ball, --cylinder or --region")
    _emit_json(args, result.to_json())
    return 0


def _capacity_from_descriptor(desc: dict, names=None) -> cap_mod.CapacityValue:
    """Capacity of a region descriptor; `names` maps its keys to the user's spelling."""
    kind = desc.get("type")
    names = names or {}

    def need(key):
        if key not in desc:
            raise InputError(f"{kind} region is missing key {names.get(key, key)!r}")
        return desc[key]

    if kind == "ball":
        return cap_mod.capacity_ball(float(need("radius")), int(need("n")))
    if kind == "cylinder":
        Z = cap_mod.Cylinder(axis_index=int(desc.get("axis", 1)), radius=float(need("radius")),
                             dim=int(need("n")), plane_kind=desc.get("plane", "conjugate"))
        return cap_mod.capacity_cylinder(Z)
    if kind == "ellipsoid":
        M = core.matrix_from_json(need("matrix"))
        region = cap_mod.EnergyShellRegion(core.QuadraticHamiltonian(M), float(need("energy")))
        return cap_mod.capacity_ellipsoid(region)
    if kind == "bottle":
        bottle = cap_mod.bordeaux_bottle_fixture(float(need("radius")), float(need("neck")))
        return bottle.capacity
    raise InputError(f"unknown region type {kind!r}")


def cmd_williamson(args):
    M = _load_matrix(args)
    dec = core.williamson(core.QuadraticHamiltonian(M))
    _emit_json(args, {
        "omegas": [float(w) for w in dec.omegas],
        "S": core.matrix_to_json(dec.S.matrix),
        "residual": dec.residual,
    })
    return 0


def cmd_shadow(args):
    if args.random is not None:
        S = core.random_symplectic(args.random, args.sigma, args.seed)
    else:
        S = core.SymplecticMatrix(_load_matrix(args), tol=args.tol)
    plane = _parse_plane(args.plane)
    rep = shadows.linear_shadow_area(S, args.radius, plane)
    _emit_json(args, {
        "plane": rep.plane.label(),
        "area": rep.area,
        "bound": rep.bound,
        "satisfied": rep.satisfied,
        "method": rep.method,
    })
    return 0


def cmd_nonsqueeze(args):
    summary = shadows.nonsqueeze_ensemble(args.n, args.count, args.sigma, args.seed)
    _emit_json(args, {
        "n": summary.n_modes,
        "count": summary.count,
        "min_conjugate_det": summary.min_conjugate_det,
        "min_nonconjugate_det": (None if math.isinf(summary.min_nonconjugate_det)
                                 else summary.min_nonconjugate_det),
        "nonconjugate_witness": summary.nonconjugate_witness,
        "conjugate_bound_held": summary.conjugate_bound_held,
    })
    return 0


def cmd_evolve(args):
    pot = _parse_potential(args)
    flow = shadows.FlowSpec(
        grad_V=pot.dV,
        grad_T=lambda p: p / pot.mass,
        V=lambda q: np.asarray(pot.V(q[..., 0])),
        T=lambda p: np.sum(p * p, axis=-1) / (2.0 * pot.mass),
        dt=args.dt,
        n_modes=1,
    )
    times = [float(s) for s in args.times.split(",")]
    ball = cap_mod.Ball(np.zeros(2), args.radius)
    plane = _parse_plane(args.plane)
    out = shadows.evolve_ball_shadow(
        ball, flow, plane, args.samples, args.grid_cell, times,
        seed=args.seed, collect_points=bool(args.dump_points),
    )
    if args.dump_points:
        reports, clouds = out
        for rep, cloud in zip(reports, clouds):
            path = f"{args.dump_points}_t{rep.time:g}.csv"
            np.savetxt(path, cloud, delimiter=",", fmt=FLOAT_FMT, header="x,y", comments="")
    else:
        reports = out
    _emit_csv(args, ["time", "plane", "area", "bound", "satisfied"],
              [r.to_row() for r in reports])
    return 0


def cmd_quantize_1d(args):
    pot = _parse_potential(args)
    cfg = ebk.PlanckConfig(args.hbar)
    res = ebk.spectrum_1d(pot, args.nmax, cfg)
    if args.format == "csv":
        _emit_csv(args, ["n", "energy", "action", "maslov"], _spectrum_rows(res.entries))
    else:
        obj = _spectrum_json(res.entries, res.hbar)
        obj["skipped"] = res.skipped
        _emit_json(args, obj)
    return 0


def cmd_quantize_quadratic(args):
    M = _load_matrix(args)
    cfg = ebk.PlanckConfig(args.hbar)
    entry = ebk.quantize_quadratic(core.QuadraticHamiltonian(M), _parse_ints(args.n), cfg)
    if args.format == "csv":
        _emit_csv(args, ["n", "energy", "action", "maslov"], _spectrum_rows([entry]))
    else:
        _emit_json(args, _spectrum_json([entry], cfg.hbar))
    return 0


def cmd_quantize_separable(args):
    descs = json.loads(args.potentials)
    if not (isinstance(descs, list) and all(isinstance(d, dict) for d in descs)):
        raise InputError("--potentials must be a JSON array of potential objects")
    pots = [ebk.make_potential(d) for d in descs]
    cfg = ebk.PlanckConfig(args.hbar)
    entry = ebk.spectrum_separable(pots, _parse_ints(args.n), cfg)
    if args.format == "csv":
        _emit_csv(args, ["n", "energy", "action", "maslov"], _spectrum_rows([entry]))
    else:
        _emit_json(args, _spectrum_json([entry], cfg.hbar))
    return 0


def cmd_dos(args):
    cfg = ebk.PlanckConfig(args.hbar)
    if args.matrix or args.matrix_file:
        H = core.QuadraticHamiltonian(_load_matrix(args))
    else:
        H = core.QuadraticHamiltonian.isotropic(args.ndim, args.omega, args.mass)
    g = ebk.density_of_states(H, args.energy, cfg, numerical=args.numeric)
    _emit_json(args, {"energy": args.energy, "g": g,
                      "mode": "numeric" if args.numeric else "analytic"})
    return 0


def cmd_blob_check(args):
    cfg = ebk.PlanckConfig(args.hbar)
    cap = (cap_mod.CapacityValue.infinity() if args.value == "inf"
           else cap_mod.CapacityValue(float(args.value), exact=True))
    n = ebk.blob_check(cap, cfg, tol=args.tol)
    _emit_json(args, {"blob_index": n, "is_blob": n is not None})
    return 0


def cmd_bottle_demo(args):
    bottle = cap_mod.bordeaux_bottle_fixture(args.radius, args.neck)
    _emit_json(args, {
        "capacity": bottle.capacity.to_json(),
        "neck_loop_action": bottle.neck_loop_action,
        "neck_action_below_capacity": bottle.neck_loop_action < bottle.capacity.value,
        "certificate": {
            "inner_samples": bottle.report.inner_samples,
            "region_hits": bottle.report.region_hits,
        },
    })
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sympcap")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("capacity", help="symplectic area of a region")
    sp.add_argument("--ball", nargs="*", default=None, metavar="K=V")
    sp.add_argument("--cylinder", nargs="*", default=None, metavar="K=V")
    sp.add_argument("--region", default=None, help="inline JSON region descriptor")
    common(sp)
    sp.set_defaults(func=cmd_capacity)

    sp = sub.add_parser("williamson", help="symplectic spectrum and normal form")
    sp.add_argument("--matrix", default=None)
    sp.add_argument("--matrix-file", default=None)
    common(sp)
    sp.set_defaults(func=cmd_williamson)

    sp = sub.add_parser("shadow", help="exact projected area under a linear map")
    sp.add_argument("--matrix", default=None)
    sp.add_argument("--matrix-file", default=None)
    sp.add_argument("--random", type=int, default=None, metavar="N")
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--plane", default="conjugate:1")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(func=cmd_shadow)

    sp = sub.add_parser("nonsqueeze-ensemble", help="conjugate-plane determinant sweep")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_nonsqueeze)

    sp = sub.add_parser("evolve", help="advect a ball and estimate shadow areas")
    sp.add_argument("--potential", nargs="+", required=True)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--samples", type=int, default=20_000)
    sp.add_argument("--grid-cell", type=float, default=0.05)
    sp.add_argument("--times", default="1")
    sp.add_argument("--plane", default="conjugate:1")
    sp.add_argument("--dump-points", default=None, metavar="PREFIX")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("quantize-1d", help="EBK levels of a confining 1-D potential")
    sp.add_argument("--potential", nargs="+", required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    common(sp)
    sp.set_defaults(func=cmd_quantize_1d)

    sp = sub.add_parser("quantize-quadratic", help="oscillator levels via the symplectic spectrum")
    sp.add_argument("--matrix", default=None)
    sp.add_argument("--matrix-file", default=None)
    sp.add_argument("--n", required=True, help="comma-separated quantum numbers")
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    common(sp)
    sp.set_defaults(func=cmd_quantize_quadratic)

    sp = sub.add_parser("quantize-separable", help="torus level of a separable system")
    sp.add_argument("--potentials", required=True, help="JSON list of potential descriptors")
    sp.add_argument("--n", required=True)
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    common(sp)
    sp.set_defaults(func=cmd_quantize_separable)

    sp = sub.add_parser("dos", help="density of states of an oscillator Hamiltonian")
    sp.add_argument("--ndim", type=int, default=1)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--mass", type=float, default=1.0)
    sp.add_argument("--energy", type=float, required=True)
    sp.add_argument("--matrix", default=None)
    sp.add_argument("--matrix-file", default=None)
    sp.add_argument("--numeric", action="store_true")
    sp.add_argument("--hbar", type=float, default=1.0)
    common(sp)
    sp.set_defaults(func=cmd_dos)

    sp = sub.add_parser("blob-check", help="match a capacity to a blob index")
    sp.add_argument("--value", required=True)
    sp.add_argument("--tol", type=float, default=0.05)
    sp.add_argument("--hbar", type=float, default=1.0)
    common(sp)
    sp.set_defaults(func=cmd_blob_check)

    sp = sub.add_parser("bottle-demo", help="nonconvex counterexample numbers")
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--neck", type=float, default=0.5)
    common(sp)
    sp.set_defaults(func=cmd_bottle_demo)

    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (InputError, json.JSONDecodeError, ValueError, FileNotFoundError, KeyError,
            OverflowError) as exc:
        message = NOT_FINITE if isinstance(exc, OverflowError) else str(exc)
        sys.stdout.write(json.dumps(
            {"error": "InvalidInput", "message": message}, sort_keys=True) + "\n")
        return 2
    except SympcapError as exc:
        sys.stdout.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n")
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
