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
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import capacity as cap_mod
from . import core, ebk, shadows
from .errors import SympcapError

FLOAT_FMT = "%.17g"
NOT_FINITE = "result is not finite"
_REAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)")
# Bounds on the sizes one request may ask for, each refused by its option before
# anything is allocated. At each bound a request peaks below 0.7 GB and runs in
# under 8 s on 2 cores (measured; docs/cli.md gives the figures).
MAX_MODES = 1000  # shadow --random: one dense 2N x 2N expm; dos --ndim: its integer products
MAX_SAMPLES = 5 * 10**6  # evolve --samples, some 130 bytes a sample
MAX_ENSEMBLE_ENTRIES = 2**23  # nonsqueeze-ensemble: --count x (2n)^2 stacked entries
MAX_ENSEMBLE_MINORS = 25 * 10**7  # and --count x (n (2n - 1))^2 squared plane minors


def _fmt(x) -> str:
    return FLOAT_FMT % x


def _finite_or_text(text: str):
    """A JSON number as a float, or as its own text where that is not finite."""
    value = float(text)
    return value if math.isfinite(value) else text


# JSON read strictly: Infinity, -Infinity, NaN and a number that overflows (1e400)
# stay strings, so the reader of each value refuses them by name as not a real number,
# by the rule of the command-line tokens
_strict_json = json.JSONDecoder(parse_constant=str, parse_float=_finite_or_text).decode
# every JSON object on stdout, a result or an error, keys sorted; an infinite or NaN
# float raises ValueError
_encode_json = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _parse_kv(tokens):
    """Parse ["R=1", "N=3"] style token lists into a dict."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        try:
            out[k] = _strict_json(v)
        except json.JSONDecodeError:
            try:  # a real token JSON does not read, such as nan, inf or 1.
                out[k] = _parse_float(v)
            except ValueError:
                out[k] = v
    return out


def _parse_float(text: str, name: str = "value") -> float:
    """`text`, a command-line token, as a float: an optional sign, then ASCII
    digits with at most one point and an optional exponent, or `inf` or
    `nan`. Anything else (`1_0`, ` 1.5`, `Infinity`, `INF`) and a finite
    spelling that overflows (`1e400`) are refused by name. The argparse type
    of every real option."""
    if not _REAL.fullmatch(text):
        raise ValueError(f"{name} must be a real number, got {text!r}")
    value = float(text)
    if math.isinf(value) and not text.endswith("inf"):
        raise ValueError(f"{name} {text} overflows a double")
    return value


def _at_most(option: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{option} {value} exceeds the bound of {bound}")


def _parse_ints(spec: str):
    return [core._parse_int(s, "quantum number") for s in spec.split(",")]


def _json(text: str, option: str):
    """`text`, the value of `option`, read as JSON; a syntax error is refused by the option."""
    try:
        return _strict_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _open(path: str, option: str, mode: str = "r"):
    """open(path); a file that cannot be opened is refused by its option."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValueError(f"{option} {path!r}: {exc.strerror}") from None


def _load_matrix(args) -> np.ndarray:
    if getattr(args, "matrix", None):
        return core.matrix_from_json(_json(args.matrix, "--matrix"))
    if getattr(args, "matrix_file", None):
        with _open(args.matrix_file, "--matrix-file") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ValueError(f"--matrix-file {args.matrix_file!r}: {exc}") from None
        return core.matrix_from_json(_json(text, "--matrix-file"))
    raise ValueError("provide --matrix or --matrix-file")


def _parse_potential(args) -> ebk.Potential:
    tokens = args.potential
    if len(tokens) == 1 and tokens[0].lstrip().startswith("{"):
        desc = _json(tokens[0], "--potential")
    else:
        desc = _parse_kv(tokens[1:])
        desc["kind"] = tokens[0]
    return ebk.make_potential(desc)


def _emit(args, text: str):
    if args.out:
        with _open(args.out, "--out", "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    try:
        text = _encode_json(obj)
    except ValueError:  # an infinite or NaN float
        raise ValueError(NOT_FINITE) from None
    _emit(args, text + "\n")


def _csv_cell(x):
    if not isinstance(x, float):
        return x
    if not math.isfinite(x):
        raise ValueError(NOT_FINITE)
    return _fmt(x)


def _emit_csv(args, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_csv_cell(x) for x in row])
    _emit(args, buf.getvalue())


def _emit_spectrum(args, entries, hbar, **extra):
    """Spectrum entries as one CSV row each, or as a JSON object with `hbar`
    and the `extra` keys, by --format."""
    if args.format == "csv":
        _emit_csv(args, ["n", "energy", "action", "maslov"],
                  [[*e.quantum_numbers, float(e.energy), *map(float, e.actions),
                    *e.maslov_per_loop] for e in entries])
    else:
        _emit_json(args, {"hbar": hbar, **extra, "entries": [
            {"n": list(e.quantum_numbers), "energy": e.energy, "actions": list(e.actions),
             "maslov": list(e.maslov_per_loop)} for e in entries]})


# ---------------------------------------------------------------------------
# subcommand handlers


# region type -> descriptor key -> (reader, required), read by core._read; a plane and
# a matrix are refused by their own grammar
_REGIONS = {
    "ball": {"radius": (core._real, True), "n": (core._positive_integer, True)},
    "cylinder": {"radius": (core._real, True), "n": (core._positive_integer, True),
                 "plane": (lambda name, spec: shadows.PlaneSelector.parse(spec), False)},
    "ellipsoid": {
        "matrix": (lambda name, obj: core.QuadraticHamiltonian(core.matrix_from_json(obj)), True),
        "energy": (core._real, True)},
    "bottle": {"radius": (core._real, True), "neck": (core._real, True)},
}
# descriptor key -> token name in `capacity --ball` / `--cylinder`
_REGION_TOKENS = {"radius": "R", "n": "N"}


def cmd_capacity(args):
    if args.ball or args.cylinder:
        kind, tokens = ("ball", args.ball) if args.ball else ("cylinder", args.cylinder)
        result = _capacity_from_descriptor(kind, _parse_kv(tokens), _REGION_TOKENS)
    elif args.region:
        desc = _json(args.region, "--region")
        if not isinstance(desc, dict):
            raise ValueError("--region must be a JSON object")
        result = _capacity_from_descriptor(desc.pop("type", None), desc)
    else:
        raise ValueError("provide --ball, --cylinder or --region")
    _emit_json(args, _capacity_json(result))
    return 0


def _capacity_json(value: float) -> dict:
    """A capacity as printed: math.inf as the string "inf". `exact` is always
    true, since every capacity is analytic."""
    return {"value": "inf" if math.isinf(value) else value, "exact": True}


def _capacity_from_descriptor(kind, fields: dict, names=None) -> float:
    """Capacity of a region of type `kind`; `names` maps its descriptor keys to
    the user's spelling, in which `fields` is keyed."""
    if not (isinstance(kind, str) and kind in _REGIONS):
        raise ValueError(f"unknown region type {kind!r}")
    desc = core._read(f"{kind} region", fields, _REGIONS[kind], names)
    if kind == "ball":
        return cap_mod.capacity_ball(desc["radius"], desc["n"])
    if kind == "cylinder":
        plane = desc.get("plane", shadows.PlaneSelector.conjugate(1))
        return cap_mod.capacity_cylinder(cap_mod.Cylinder(plane, desc["radius"], desc["n"]))
    if kind == "ellipsoid":
        return cap_mod.capacity_ellipsoid(desc["matrix"], desc["energy"])
    return cap_mod.bordeaux_bottle_fixture(desc["radius"], desc["neck"]).capacity


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
        _at_most("--random", args.random, MAX_MODES)
        S = core.random_symplectic(args.random, args.sigma, args.seed)
    else:
        S = core.SymplecticMatrix(_load_matrix(args), tol=args.tol)
    rep = shadows.linear_shadow_area(S, args.radius, shadows.PlaneSelector.parse(args.plane))
    _emit_json(args, {
        "plane": rep.plane.label(),
        "area": rep.area,
        "bound": rep.bound,
        "satisfied": rep.satisfied,
        "method": rep.method,
    })
    return 0


def cmd_nonsqueeze(args):
    n, count = args.n, args.count
    for what, per_member, bound in (("stacked matrix entries", 4 * n * n, MAX_ENSEMBLE_ENTRIES),
                                    ("squared minors", (n * (2 * n - 1)) ** 2,
                                     MAX_ENSEMBLE_MINORS)):
        if count * per_member > bound:
            raise ValueError(f"--count {count} at --n {n} asks for {count * per_member} "
                             f"{what}, beyond the bound of {bound}")
    summary = shadows.nonsqueeze_ensemble(args.n, args.count, args.sigma, args.seed)
    witness = summary.nonconjugate_witness
    _emit_json(args, {
        "n": args.n,
        "count": args.count,
        "min_conjugate_det": summary.min_conjugate_det,
        "min_nonconjugate_det": witness["det"] if witness else None,
        "nonconjugate_witness": witness,
        "conjugate_bound_held": summary.conjugate_bound_held,
    })
    return 0


def cmd_evolve(args):
    _at_most("--samples", args.samples, MAX_SAMPLES)
    flow = shadows.FlowSpec(_parse_potential(args), args.dt)
    times = [_parse_float(s, "--times entry") for s in args.times.split(",")]
    reports, clouds = shadows.evolve_ball_shadow(
        args.radius, flow, shadows.PlaneSelector.parse(args.plane), args.samples, args.grid_cell,
        times, seed=args.seed,
    )
    if args.dump_points:
        for rep, cloud in zip(reports, clouds):
            with _open(f"{args.dump_points}_t{rep.time:g}.csv", "--dump-points", "w") as fh:
                np.savetxt(fh, cloud, delimiter=",", fmt=FLOAT_FMT, header="x,y", comments="")
    _emit_csv(args, ["time", "plane", "area", "bound", "satisfied"],
              [r.to_row() for r in reports])
    return 0


def cmd_quantize_1d(args):
    pot = _parse_potential(args)
    res = ebk.spectrum_1d(pot, args.nmax, args.hbar)
    _emit_spectrum(args, res.entries, args.hbar, skipped=res.skipped)
    return 0


def cmd_quantize_quadratic(args):
    M = _load_matrix(args)
    entry = ebk.quantize_quadratic(core.QuadraticHamiltonian(M), _parse_ints(args.n), args.hbar)
    _emit_spectrum(args, [entry], args.hbar)
    return 0


def cmd_quantize_separable(args):
    descs = _json(args.potentials, "--potentials")
    if not (isinstance(descs, list) and all(isinstance(d, dict) for d in descs)):
        raise ValueError("--potentials must be a JSON array of potential objects")
    pots = [ebk.make_potential(d) for d in descs]
    entry = ebk.spectrum_separable(pots, _parse_ints(args.n), args.hbar)
    _emit_spectrum(args, [entry], args.hbar)
    return 0


def cmd_dos(args):
    if args.matrix or args.matrix_file:
        H = core.QuadraticHamiltonian(_load_matrix(args))
        core._positive("hbar", args.hbar)  # malformed input before the spectrum's exit 3
        core._positive("energy", args.energy)
        omegas = core.symplectic_eigenvalues(H)
    else:
        _at_most("--ndim", args.ndim, MAX_MODES)
        omegas = [args.omega] * core._positive_integer("--ndim", args.ndim)
    g = ebk.density_of_states(omegas, args.energy, args.hbar)
    _emit_json(args, {"energy": args.energy, "g": g})
    return 0


def cmd_blob_check(args):
    n = ebk.blob_check(_parse_float(args.value, "--value"), args.hbar, tol=args.tol)
    _emit_json(args, {"blob_index": n, "is_blob": n is not None})
    return 0


def cmd_bottle_demo(args):
    bottle = cap_mod.bordeaux_bottle_fixture(args.radius, args.neck)
    _emit_json(args, {
        "capacity": _capacity_json(bottle.capacity),
        "neck_loop_action": bottle.neck_loop_action,
        "neck_action_below_capacity": bottle.neck_loop_action < bottle.capacity,
        "certificate": {
            "inner_samples": bottle.report.inner_samples,
            "region_hits": bottle.report.region_hits,
        },
    })
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Writes --help to stderr, as it does usage errors: stdout carries only
    a result or an error object. Subcommand parsers are of this class too."""

    def print_help(self, file=None):
        super().print_help(file or sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sympcap")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None)

    # the argparse types: a usage error names the type by its __name__
    def integer(text):
        return core._parse_int(text)

    def real(text):
        return _parse_float(text)

    def seed(text):
        if (value := core._parse_int(text)) < 0:
            raise ValueError(text)
        return value

    sp = sub.add_parser("capacity", help="symplectic area of a region")
    sp.add_argument("--ball", nargs="*", default=None, metavar="K=V")
    sp.add_argument("--cylinder", nargs="*", default=None, metavar="K=V")
    sp.add_argument("--region", default=None, help="inline JSON region descriptor")
    common(sp)
    sp.set_defaults(handler="cmd_capacity")

    sp = sub.add_parser("williamson", help="symplectic spectrum and normal form")
    sp.add_argument("--matrix", default=None)
    sp.add_argument("--matrix-file", default=None)
    common(sp)
    sp.set_defaults(handler="cmd_williamson")

    sp = sub.add_parser("shadow", help="exact projected area under a linear map")
    sp.add_argument("--matrix", default=None)
    sp.add_argument("--matrix-file", default=None)
    sp.add_argument("--random", type=integer, default=None, metavar="N")
    sp.add_argument("--sigma", type=real, default=1.0)
    sp.add_argument("--radius", type=real, default=1.0)
    sp.add_argument("--plane", default="conjugate:1")
    sp.add_argument("--seed", type=seed, default=0)
    sp.add_argument("--tol", type=real, default=core.DEFAULT_SYMPLECTIC_TOL)
    common(sp)
    sp.set_defaults(handler="cmd_shadow")

    sp = sub.add_parser("nonsqueeze-ensemble", help="conjugate-plane determinant sweep")
    sp.add_argument("--n", type=integer, required=True)
    sp.add_argument("--count", type=integer, required=True)
    sp.add_argument("--sigma", type=real, default=1.0)
    sp.add_argument("--seed", type=seed, default=0)
    common(sp)
    sp.set_defaults(handler="cmd_nonsqueeze")

    sp = sub.add_parser("evolve", help="advect a ball and estimate shadow areas")
    sp.add_argument("--potential", nargs="+", required=True)
    sp.add_argument("--radius", type=real, default=1.0)
    sp.add_argument("--dt", type=real, default=1e-3)
    sp.add_argument("--samples", type=integer, default=20_000)
    sp.add_argument("--grid-cell", type=real, default=0.05)
    sp.add_argument("--times", default="1")
    sp.add_argument("--plane", default="conjugate:1")
    sp.add_argument("--dump-points", default=None, metavar="PREFIX")
    sp.add_argument("--seed", type=seed, default=0)
    common(sp)
    sp.set_defaults(handler="cmd_evolve")

    sp = sub.add_parser("quantize-1d", help="EBK levels of a confining 1-D potential")
    sp.add_argument("--potential", nargs="+", required=True)
    sp.add_argument("--nmax", type=integer, required=True)
    sp.add_argument("--hbar", type=real, default=1.0)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    common(sp)
    sp.set_defaults(handler="cmd_quantize_1d")

    sp = sub.add_parser("quantize-quadratic", help="oscillator levels via the symplectic spectrum")
    sp.add_argument("--matrix", default=None)
    sp.add_argument("--matrix-file", default=None)
    sp.add_argument("--n", required=True, help="comma-separated quantum numbers")
    sp.add_argument("--hbar", type=real, default=1.0)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    common(sp)
    sp.set_defaults(handler="cmd_quantize_quadratic")

    sp = sub.add_parser("quantize-separable", help="torus level of a separable system")
    sp.add_argument("--potentials", required=True, help="JSON list of potential descriptors")
    sp.add_argument("--n", required=True)
    sp.add_argument("--hbar", type=real, default=1.0)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    common(sp)
    sp.set_defaults(handler="cmd_quantize_separable")

    sp = sub.add_parser("dos", help="density of states of an oscillator Hamiltonian")
    sp.add_argument("--ndim", type=integer, default=1)
    sp.add_argument("--omega", type=real, default=1.0)
    sp.add_argument("--energy", type=real, required=True)
    sp.add_argument("--matrix", default=None)
    sp.add_argument("--matrix-file", default=None)
    sp.add_argument("--hbar", type=real, default=1.0)
    common(sp)
    sp.set_defaults(handler="cmd_dos")

    sp = sub.add_parser("blob-check", help="match a capacity to a blob index")
    sp.add_argument("--value", required=True)
    sp.add_argument("--tol", type=real, default=ebk.BLOB_TOL)
    sp.add_argument("--hbar", type=real, default=1.0)
    common(sp)
    sp.set_defaults(handler="cmd_blob_check")

    sp = sub.add_parser("bottle-demo", help="nonconvex counterexample numbers")
    sp.add_argument("--radius", type=real, default=1.0)
    sp.add_argument("--neck", type=real, default=0.5)
    common(sp)
    sp.set_defaults(handler="cmd_bottle_demo")

    p.commands = sub.choices  # name -> subcommand parser
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The top-level parser and, in its `commands`, the subcommand parsers: built
    on the first run() call and shared by every later one."""
    return build_parser()


@functools.cache
def _option_table(parser: argparse.ArgumentParser):
    """What `_read_argv` reads `parser`'s argv by, from the Actions argparse built:
    each option string of a store action that takes one value or a run of them,
    the namespace defaults (the handler included) and the required actions."""
    table = {option: action for action in parser._actions
             if type(action) is argparse._StoreAction and action.nargs in (None, "+", "*")
             for option in action.option_strings}
    # an action's default wins over set_defaults, as in parse_args
    defaults = {**parser._defaults, **{action.dest: action.default for action in parser._actions
                                       if action.default is not argparse.SUPPRESS}}
    return table, defaults, {action for action in parser._actions if action.required}


def _read_argv(parser: argparse.ArgumentParser, argv):
    """The namespace `parser.parse_args(argv)` gives, read from `parser`'s option
    table where argv takes the usual form: each option an exact option string
    of a store action, then its value, or for nargs "+" and "*" the run of
    values after it, no value starting with "-". Each value goes through the
    option's type and choices. None where argparse must read argv: help, an
    abbreviation, --opt=value, a value such as -1, an unknown token, a missing,
    extra or invalid value or a missing required option. So every usage error
    and help text comes from argparse."""
    table, defaults, required = _option_table(parser)
    args = argparse.Namespace()
    args.__dict__.update(defaults)  # Namespace(**defaults) sets each by setattr, far slower
    given = []  # (action, its value tokens), in argv order
    for token in argv:
        if token.startswith("-"):
            if (action := table.get(token)) is None:
                return None
            given.append((action, tokens := []))
        elif given and (action.nargs is not None or not tokens):
            tokens.append(token)
        else:
            return None
    for action, tokens in given:
        if not tokens and action.nargs != "*":
            return None
        try:
            values = [action.type(token) for token in tokens] if action.type else tokens
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and not all(v in action.choices for v in values):
            return None
        setattr(args, action.dest, values if action.nargs else values[0])
    if not required.issubset([action for action, _ in given]):
        return None
    return args


def run(argv) -> int:
    parser = _parser()
    args = None
    # a command's own parser reads the rest of argv, from its option table when
    # argv takes the usual form, else by parse_args; the top-level parser is
    # left with help, an empty argv and an unknown command
    if argv and argv[0] in parser.commands:
        parser, argv = parser.commands[argv[0]], argv[1:]
        args = _read_argv(parser, argv)
    if args is None:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        # by name, so a cmd_* rebound on this module after the parser was
        # built (a tracer, a test's monkeypatch) is the one that runs
        return globals()[args.handler](args)
    # bad input, named by its key or option; any other exception is a fault
    except (ValueError, OSError, OverflowError) as exc:
        message = NOT_FINITE if isinstance(exc, OverflowError) else str(exc)
        sys.stdout.write(_encode_json({"error": "InvalidInput", "message": message}) + "\n")
        return 2
    except SympcapError as exc:
        sys.stdout.write(_encode_json({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
