import argparse
import contextlib
import csv
import functools
import inspect
import io
import json
import math
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympcap import cli, ebk, shadows
from sympcap.cli import run
from sympcap.sampling import ball_points

from oracles import pd_matrix_with_condition


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


GOLDEN = os.path.join(os.path.dirname(__file__), "..", "docs", "golden")


def read_golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


# Float tolerance of the golden comparison, relative and absolute.
# The goldens were written by an earlier EBK solver, which ran brentq on
# action_integral(E) - h/2 and stopped once the bracket was narrower than
# 1e-14*max(|E_hi|, 1) + rtol*|E|: 1e-14 to 4e-14 for the golden levels.
# Over that window the root function is flat to rounding across several ULP
# of E, and where a root finder stops in it depends on the summation order
# of np.sum and on libm's sin, which vary with the numpy build and the CPU.
# Between two such builds the harmonic energies moved by up to 4 ULP
# (2.2e-16, 2 eps relative) and the actions by 1 ULP. Each level's Newton in
# `ebk._solve` now stops at a Newton step of 4 ULP; here it lands within 1 ULP of the
# golden energies and 4 ULP of the golden actions. 64 eps (1.4e-14) is at
# least 16 times either. The absolute floor covers values that are pure
# rounding noise, such as the Williamson residual of 2.2e-16.
GOLDEN_FLOAT_TOL = 64 * sys.float_info.epsilon
BIG_INT = "1" + "0" * 400  # an integer beyond the double range

# Number literals as the CLI prints them: Python float repr, "%.17g" CSV
# fields and integers. Digits inside words, such as the CSV plane "q1p1",
# split off as integers and so still match exactly.
_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def _is_float_literal(token):
    return any(c in token for c in ".eE")


def golden_diff(expected, actual):
    """Ways in which `actual` stdout departs from the golden `expected` text.

    Text between number literals must be byte-equal, integer literals must
    be equal, a literal must not change between integer and float, and
    float literals must agree within GOLDEN_FLOAT_TOL. Empty when it matches.
    """
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    if len(want) != len(got):
        return [f"{len(want) // 2} number literals expected, {len(got) // 2} found"]
    problems = []
    for i, (w, g) in enumerate(zip(want, got)):
        if w == g:
            continue
        if i % 2 == 0:
            problems.append(f"text {w!r} became {g!r}")
        elif not (_is_float_literal(w) and _is_float_literal(g)):
            problems.append(f"integer literal {w} became {g}" if not _is_float_literal(w)
                            else f"float literal {w} became integer {g}")
        elif not math.isclose(float(w), float(g), rel_tol=GOLDEN_FLOAT_TOL,
                              abs_tol=GOLDEN_FLOAT_TOL):
            problems.append(f"float {w} became {g}")
    return problems


class TestCapacityCommand:
    def test_ball(self, capsys):
        code, out = invoke(capsys, "capacity", "--ball", "R=1", "N=3")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"exact": True, "value": pytest.approx(math.pi)}

    def test_cylinder(self, capsys):
        code, out = invoke(capsys, "capacity", "--cylinder", "R=2", "N=3", "plane=conjugate:2")
        assert code == 0
        assert json.loads(out) == {"exact": True, "value": 4 * math.pi}

    def test_ellipsoid_region(self, capsys):
        region = {"type": "ellipsoid",
                  "matrix": {"n": 1, "matrix": [1.0, 0.0, 0.0, 4.0]},
                  "energy": 1.0}
        code, out = invoke(capsys, "capacity", "--region", json.dumps(region))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi)

    @pytest.mark.parametrize("plane", ["qq:1,2", "pp:1,2", "qp:1,2", "qp:2,1"])
    def test_nonconjugate_cylinder_infinite(self, capsys, plane):
        # once exit 3, UnsupportedRegion: no capacity formula
        code, out = invoke(capsys, "capacity", "--cylinder", "R=1", "N=2", f"plane={plane}")
        assert code == 0
        assert json.loads(out) == {"exact": True, "value": "inf"}

    @pytest.mark.parametrize("R", ["1e200", "1e-200"])
    def test_nonconjugate_cylinder_infinite_at_any_radius(self, capsys, R):
        # pi R^2 at R = 1e200 once overflowed first: "result is not finite"
        code, out = invoke(capsys, "capacity", "--cylinder", f"R={R}", "N=2", "plane=qq:1,2")
        assert code == 0
        assert json.loads(out) == {"exact": True, "value": "inf"}

    def test_bottle_region(self, capsys):
        code, out = invoke(capsys, "capacity", "--region",
                           '{"type":"bottle","radius":1,"neck":0.5}')
        assert code == 0
        assert out == '{"exact": true, "value": 3.141592653589793}\n'

    def test_missing_region_exit_2(self, capsys):
        code, out = invoke(capsys, "capacity")
        assert code == 2
        assert json.loads(out)["error"] == "InvalidInput"


class TestQuantizeCommands:
    def test_harmonic_levels(self, capsys):
        code, out = invoke(capsys, "quantize-1d", "--potential", "harmonic", "omega=1",
                           "--nmax", "2", "--hbar", "1")
        assert code == 0
        energies = [e["energy"] for e in json.loads(out)["entries"]]
        assert energies == pytest.approx([0.5, 1.5, 2.5], rel=1e-10)

    def test_csv_format(self, capsys):
        code, out = invoke(capsys, "quantize-1d", "--potential", "harmonic", "omega=1",
                           "--nmax", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,energy,action,maslov"
        assert len(lines) == 3

    def test_quadratic(self, capsys):
        m = {"n": 2, "matrix": [float(x) for x in np.diag([1, 3, 1, 3]).ravel()]}
        code, out = invoke(capsys, "quantize-quadratic", "--matrix", json.dumps(m),
                           "--n", "2,0")
        assert code == 0
        assert json.loads(out)["entries"][0]["energy"] == pytest.approx(4.0)

    def test_separable(self, capsys):
        pots = json.dumps([{"kind": "harmonic", "omega": 1.0},
                           {"kind": "harmonic", "omega": 1.0}])
        code, out = invoke(capsys, "quantize-separable", "--potentials", pots, "--n", "0,0")
        assert code == 0
        assert json.loads(out)["entries"][0]["energy"] == pytest.approx(1.0, rel=1e-10)

    def test_unresolved_well_stops_at_the_cap(self, capsys, monkeypatch):
        # this polynomial spectrum takes the top of its well and 3 rounds; with a cap of
        # 2 rounds the solver stops with NoConvergence (exit 3) within the cap, and does
        # not loop
        monkeypatch.setattr(ebk, "_MAX_ROUNDS", 2)
        action_period, calls = ebk._action_period, []
        monkeypatch.setattr(ebk, "_action_period",
                            lambda *args: calls.append(1) or action_period(*args))
        code, out = invoke(capsys, "quantize-1d", "--potential",
                           '{"kind": "polynomial", "coeffs": [0, 0.1, 0.5, 0.15, 0.12]}',
                           "--nmax", "1")
        assert code == 3
        assert len(calls) == 3
        obj = json.loads(out)
        assert obj["error"] == "NoConvergence"
        assert re.match(r"action \S+ not converged in 2 rounds, last E=", obj["message"])

    @pytest.mark.parametrize("argv,error,message", [
        # the no-well polynomials once exited 0, every level "not reached below
        # dissociation" at the bracket's top
        (["quantize-1d", "--potential", "polynomial", "coeffs=[0,1]", "--nmax", "1"],
         "NoClassicalRegion",
         "no well: the bottom -30.0 is not below the top of the well at -30.0"),
        # a double well whose bracket ends below its barrier at q = 0
        (["quantize-1d", "--potential", "polynomial", "coeffs=[0,0,-2,0,1]",
          "bracket=[-1.05,30]", "--nmax", "1"], "MultiWell",
         "4 turning points at E=-0.9894937500009895; single well required"),
        (["quantize-separable", "--potentials", '[{"kind":"morse","D":1,"a":1}]', "--n", "5"],
         "LevelNotBound", "action 34.55751918948772 not reached below dissociation at E=1.0"),
    ], ids=["no-well", "low-barrier", "separable-past-dissociation"])
    def test_no_bound_level_exit_3(self, capsys, argv, error, message):
        code, out = invoke(capsys, *argv)
        assert code == 3
        assert json.loads(out) == {"error": error, "message": message}

    @pytest.mark.parametrize("potential", [
        ["polynomial", "coeffs=[0,1]"],
        ["polynomial", "coeffs=[0,0,-2,0,1]", "bracket=[-1.05,30]"],
    ], ids=["no-well", "low-barrier"])
    def test_flow_needs_no_well(self, capsys, potential):
        code, out = invoke(capsys, "evolve", "--potential", *potential, "--samples", "100",
                           "--times", "0,0.1", "--dt", "0.01")
        assert code == 0
        assert out.startswith("time,plane,area,bound,satisfied\n")

    def test_harmonic_well_never_dissociates(self, capsys):
        # a default bracket of +-60 / (omega sqrt(m)) once confined only E <= 1800, so
        # n = 18..20 were skipped as "not reached below dissociation"
        code, out = invoke(capsys, "quantize-1d", "--potential", "harmonic", "omega=100",
                           "--nmax", "20")
        assert code == 0
        obj = json.loads(out)
        assert obj["skipped"] == []
        assert [e["n"] for e in obj["entries"]] == [[n] for n in range(21)]
        for e in obj["entries"]:
            assert e["energy"] == pytest.approx((e["n"][0] + 0.5) * 100.0, rel=1e-12)

    def test_wide_quartic_levels(self, capsys):
        # 200 decades above the scale of the old bracket: the energy search once ran out
        # (exit 3). The levels are the power-law EBK levels of c q^4:
        # (n + 1/2) h = 4 sqrt(2m) B c^(-1/4) E^(3/4), B = int_0^1 sqrt(1 - u^4) du
        code, out = invoke(capsys, "quantize-1d", "--potential", "quartic", "coeff=1e300",
                           "--nmax", "1")
        assert code == 0
        b = math.gamma(1.25) * math.gamma(1.5) / math.gamma(1.75)
        for n, e in enumerate(json.loads(out)["entries"]):
            want = ((n + 0.5) * 2 * math.pi * 1e300 ** 0.25 / (4 * math.sqrt(2) * b)) ** (4 / 3)
            assert e["energy"] == pytest.approx(want, rel=1e-10)

    def test_underflowing_well_scale(self, capsys):
        # C = m omega^2 / 2 underflows to 0 at omega = 1e-300, which once put every
        # start at the bottom, so both levels were skipped as "below the potential
        # minimum"; the levels themselves are normal doubles
        code, out = invoke(capsys, "quantize-1d", "--potential", "harmonic", "omega=1e-300",
                           "--nmax", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["skipped"] == []
        assert [e["energy"] for e in obj["entries"]] == [
            pytest.approx(5e-301, rel=1e-12), pytest.approx(1.5e-300, rel=1e-12)]

    def test_underflowing_level_skipped(self, capsys):
        # the quartic levels at hbar = 1e-300 lie near 1e-401, below every double: each
        # is skipped with a reason that says so
        code, out = invoke(capsys, "quantize-1d", "--potential", "quartic", "--hbar", "1e-300",
                           "--nmax", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"] == []
        assert [s["n"] for s in obj["skipped"]] == [0, 1]
        assert all("E - vmin underflows at E=0.0" in s["reason"] for s in obj["skipped"])

    def test_coefficients_spanning_150_decades(self, capsys):
        # 2 + 1e150 q^2 - q^3 / 4 has turning points near +-1e-38; the companion
        # eigenvalues of V - E read them as 0, and a Newton step from 0 diverged
        # (NoConvergence, exit 3)
        code, out = invoke(capsys, "quantize-1d", "--potential",
                           '{"kind":"polynomial","coeffs":[2,1e-300,1e150,-0.25]}', "--nmax", "1")
        assert code == 0
        assert [e["energy"] for e in json.loads(out)["entries"]] == [
            pytest.approx(2 + (n + 0.5) * math.sqrt(2e150), rel=1e-10) for n in range(2)]

    def test_nonpd_matrix_exit_3(self, capsys):
        m = {"n": 1, "matrix": [1.0, 0.0, 0.0, -1.0]}
        code, out = invoke(capsys, "quantize-quadratic", "--matrix", json.dumps(m), "--n", "0")
        assert code == 3
        assert json.loads(out)["error"] == "NotPositiveDefinite"


class TestOtherCommands:
    def test_williamson(self, capsys):
        m = {"n": 1, "matrix": [1.0, 0.0, 0.0, 4.0]}
        code, out = invoke(capsys, "williamson", "--matrix", json.dumps(m))
        assert code == 0
        obj = json.loads(out)
        assert obj["omegas"] == pytest.approx([2.0])
        assert obj["residual"] < 1e-10

    def test_nonsqueeze(self, capsys):
        code, out = invoke(capsys, "nonsqueeze-ensemble", "--n", "2", "--count", "10",
                           "--seed", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["min_conjugate_det"] >= 1 - 1e-9
        assert obj["conjugate_bound_held"]

    def test_shadow(self, capsys):
        code, out = invoke(capsys, "shadow", "--random", "2", "--seed", "3",
                           "--plane", "conjugate:1")
        assert code == 0
        obj = json.loads(out)
        assert obj["satisfied"] and obj["area"] >= obj["bound"] * (1 - 1e-9)

    def test_dos(self, capsys):
        code, out = invoke(capsys, "dos", "--ndim", "3", "--energy", "2")
        assert code == 0
        assert json.loads(out)["g"] == pytest.approx(2.0)

    @pytest.mark.parametrize("argv,g", [
        # a product of doubles left this about 400 ulp low
        (["--ndim", "200", "--energy", "50", "--hbar", "0.7", "--omega", "1.3"],
         4.907877952232268e-27),
        (["--ndim", "2", "--omega", "1e200", "--energy", "1"], 0.0),  # g = 1e-400
    ])
    def test_dos_correctly_rounded(self, capsys, argv, g):
        code, out = invoke(capsys, "dos", *argv)
        assert code == 0
        assert json.loads(out)["g"] == g

    def test_dos_past_the_factorial_range(self, capsys):
        # 199! is not a double: g = E^199 / 199!, rounded once
        code, out = invoke(capsys, "dos", "--ndim", "200", "--energy", "100")
        assert code == 0
        assert json.loads(out) == {"energy": 100.0, "g": 2.535953906961925e25}

    def test_dos_where_a_factor_underflows(self, capsys):
        # (1 / hbar w)^2 = 1e-400 is below the doubles, and g = 1e-100 rounded once
        code, out = invoke(capsys, "dos", "--ndim", "2", "--energy", "1e300", "--hbar", "1e200")
        assert code == 0
        assert json.loads(out)["g"] == 1.0000000000000001e-100

    def test_dos_anisotropic_matrix(self, capsys):
        # g(E) = E^(N-1) / ((N-1)! prod_j hbar w_j) = 1 / (1 * 2) at E = 1
        m = {"n": 2, "matrix": np.diag([1.0, 2.0, 1.0, 2.0]).ravel().tolist()}
        code, out = invoke(capsys, "dos", "--matrix", json.dumps(m), "--energy", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"energy": 1.0, "g": pytest.approx(0.5, rel=1e-12)}

    def test_blob_check(self, capsys):
        code, out = invoke(capsys, "blob-check", "--value", str(3 * math.pi))
        assert code == 0
        assert json.loads(out) == {"blob_index": 1, "is_blob": True}

    def test_blob_check_infinite_value(self, capsys):
        # inf is the one spelling of an infinite capacity (Infinity, INF,
        # ' inf' and 1e400 once read as inf too, but exited 2, not 3)
        code, out = invoke(capsys, "blob-check", "--value", "inf")
        assert code == 3
        assert json.loads(out) == {"error": "NotABlob",
                                   "message": "infinite capacity has no blob index"}

    def test_bottle_demo(self, capsys):
        code, out = invoke(capsys, "bottle-demo", "--radius", "1", "--neck", "0.5")
        assert code == 0
        obj = json.loads(out)
        assert obj["capacity"]["value"] == pytest.approx(math.pi)
        assert obj["neck_loop_action"] == pytest.approx(math.pi / 4)
        assert obj["neck_action_below_capacity"]

    def test_evolve_csv(self, capsys):
        code, out = invoke(capsys, "evolve", "--potential", "harmonic", "omega=1",
                           "--times", "0,0.5", "--dt", "0.01", "--samples", "20000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "time,plane,area,bound,satisfied"
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] == "q1p1"
            assert abs(float(fields[2]) - math.pi) / math.pi < 0.05
            assert fields[4] == "True"

    def test_evolve_dump_points(self, capsys, tmp_path):
        prefix = str(tmp_path / "cloud")
        code, out = invoke(capsys, "evolve", "--potential", "harmonic", "omega=1",
                           "--times", "0", "--dt", "0.01", "--samples", "1000",
                           "--dump-points", prefix)
        assert code == 0
        dumped = np.loadtxt(f"{prefix}_t0.csv", delimiter=",", skiprows=1)
        # the t = 0 cloud is the unmoved sample of the ball, (q1, p1) of each
        # point, and %.17g reads back to the same bits
        want = ball_points(1000, 2, 1.0, seed=0)
        assert dumped.shape == want.shape and dumped.tobytes() == want.tobytes()

    @pytest.mark.parametrize("potential,what", [(["harmonic", "omega=1e200"], "V"),
                                                (["morse", "D=1e300", "a=1e10"], "V"),
                                                (["quartic", "coeff=1e308"], "dV")],
                             ids=["harmonic", "morse", "quartic"])
    def test_evolve_refuses_values_beyond_range(self, capsys, potential, what):
        # V or the force is inf at the check points. The harmonic force's omega**2 once
        # raised Python's OverflowError, printed as "gradient evaluation failed: (34,
        # 'Numerical result out of range')"; the Morse and quartic analytic forces were
        # blamed as "gradient of V disagrees with finite differences", from inf - inf.
        # quantize-1d runs on all three
        code, out = invoke(capsys, "evolve", "--potential", *potential, "--samples", "10",
                           "--times", "1", "--dt", "0.1")
        assert code == 3
        assert json.loads(out) == {
            "error": "FlowError", "message": f"{what} is not finite at the gradient check points"}
        assert invoke(capsys, "quantize-1d", "--potential", *potential, "--nmax", "1")[0] == 0


class TestBenchmarkHooks:
    """What the benchmark's tracer reads from outside the package: a counting V put on
    what make_potential returns, and evolve_ball_shadow's bound arguments. A refactor
    that bypasses either would read 0 for ebk.potential.V_calls or
    shadows.particle_step_ns without failing anything else."""

    @staticmethod
    def _rebind(monkeypatch, real, replacement):
        """`replacement` at every binding of `real` in sympcap, as the tracer installs it."""
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "sympcap"]:
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, replacement)
        return real

    @pytest.mark.parametrize("argv", [
        ["evolve", "--potential", "quartic", "--samples", "10", "--times", "0.5", "--dt", "0.1"],
        ["quantize-1d", "--potential", "quartic", "--nmax", "2"],
    ], ids=["evolve", "quantize-1d"])
    def test_V_put_on_make_potential_result_is_the_one_called(self, monkeypatch, capsys, argv):
        calls = []

        def counted_potential(desc):
            pot = real(desc)
            V = pot.V
            pot.V = lambda q: calls.append(np.size(q)) or V(q)
            return pot

        real = self._rebind(monkeypatch, ebk.make_potential, counted_potential)
        assert invoke(capsys, *argv)[0] == 0
        assert calls and all(size > 0 for size in calls)

    def test_evolve_binds_flow_samples_and_times(self, monkeypatch, capsys):
        bound = []

        def spy(*args, **kwargs):
            bound.append(inspect.signature(real).bind(*args, **kwargs).arguments)
            return real(*args, **kwargs)

        real = self._rebind(monkeypatch, shadows.evolve_ball_shadow, spy)
        assert invoke(capsys, "evolve", "--potential", "quartic", "--samples", "10",
                      "--times", "0.5,1", "--dt", "0.1")[0] == 0
        [a] = bound
        # the tracer's particle-steps: samples x Verlet steps to the last snapshot
        assert a["samples"] * round(max(a["snapshot_times"]) / a["flow"].dt) == 100


# every real option, with an argv that reads it
REAL_OPTIONS = [
    ("--sigma", ["nonsqueeze-ensemble", "--n", "1", "--count", "1"]),
    ("--radius", ["shadow", "--random", "2"]),
    ("--dt", ["evolve", "--potential", "harmonic", "--samples", "10"]),
    ("--grid-cell", ["evolve", "--potential", "harmonic", "--samples", "10"]),
    ("--hbar", ["quantize-1d", "--potential", "harmonic", "--nmax", "0"]),
    ("--energy", ["dos"]),
    ("--omega", ["dos", "--energy", "1"]),
    ("--hbar", ["dos", "--energy", "1"]),
    ("--tol", ["blob-check", "--value", "1"]),
    ("--neck", ["bottle-demo"]),
]


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["dos", "--ndim", "0", "--energy", "1"],
        ["evolve", "--potential", "harmonic", "omega=1", "--samples", "0"],
        ["quantize-1d", "--potential", "quartic", "coeff=-1", "--nmax", "1"],
        ["nonsqueeze-ensemble", "--n", "2", "--count", "0"],
        ["nonsqueeze-ensemble", "--n", "2", "--count", "-3"],
        ["bottle-demo", "--neck", "2"],
        ["capacity", "--region", '{"type": "bottle", "radius": 1, "neck": 2}'],
        ["dos", "--ndim", "1", "--omega", "-1", "--energy", "2"],
        ["dos", "--ndim", "1", "--omega", "0", "--energy", "2"],
        ["dos", "--ndim", "1", "--omega", "nan", "--energy", "2"],
        ["dos", "--ndim", "1", "--omega", "inf", "--energy", "2"],
        ["blob-check", "--value", "3", "--hbar", "inf"],
        ["dos", "--ndim", "2", "--energy", "1", "--hbar", "inf"],
        ["bottle-demo", "--radius", "nan"],
        ["bottle-demo", "--radius", "inf", "--neck", "1"],
        ["capacity", "--region", '{"type": "bottle", "radius": 1, "neck": NaN}'],
        ["shadow", "--random", "2", "--plane", "conjugate:1,2"],
        ["shadow", "--random", "3", "--plane", "qq:1,2,3"],
        ["shadow", "--random", "2", "--plane", "qp:1,1"],
        ["evolve", "--potential", "harmonic", "--samples", "10", "--plane", "conjugate:1,1"],
        ["blob-check", "--value", "3.5", "--tol", "nan"],
        ["blob-check", "--value", "3.5", "--tol", "-1"],
        ["bottle-demo", "--radius", "1e-200", "--neck", "1e-201"],
        ["capacity", "--region", '{"type": "bottle", "radius": 1e-200, "neck": 1e-201}'],
        ["evolve", "--potential", "harmonic", "--samples", "100", "--grid-cell", "inf"],
        ["evolve", "--potential", "harmonic", "--samples", "100", "--radius", "nan"],
        ["evolve", "--potential", "harmonic", "--samples", "100", "--radius", "inf"],
        ["capacity", "--cylinder", "R=1", "N=2", "plane=foo"],
        ["capacity", "--region", '{"type": "cylinder", "radius": 1, "n": 2, "plane": 1}'],
        ["capacity", "--ball", 'R="1"', "N=2"],
        ["capacity", "--region", '{"type":"ball","radius":"2","n":2}'],
        ["quantize-1d", "--potential", "quartic", 'coeff="0.3"', "--nmax", "1"],
        ["capacity", "--ball", 'R="1e"', "N=2"],
        ["capacity", "--ball", "R=true", "N=2"],
    ])
    def test_exit_2(self, capsys, argv):
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "InvalidInput"

    @pytest.mark.parametrize("argv,message", [
        (["capacity", "--region", '{"type": "ellipsoid"}'],
         "ellipsoid region is missing key 'matrix'"),
        (["capacity", "--ball", "R=1"], "ball region is missing key 'N'"),
        (["quantize-1d", "--potential", "polynomial", "--nmax", "1"],
         "polynomial potential is missing key 'coeffs'"),
        (["quantize-separable", "--potentials", '[{"kind": "polynomial"}]', "--n", "0"],
         "polynomial potential is missing key 'coeffs'"),
    ])
    def test_missing_key_named(self, capsys, argv, message):
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": message}

    @pytest.mark.parametrize("argv,message", [
        (["capacity", "--ball", "R=1", "N=2", "foo=3"], "ball region has unknown key 'foo'"),
        (["capacity", "--ball", "R=1", "N=2", "j=1"], "ball region has unknown key 'j'"),
        (["capacity", "--cylinder", "radius=1", "N=2"],
         "cylinder region has unknown key 'radius'"),
        (["capacity", "--region", '{"type": "ball", "radius": 1, "n": 2, "bogus": 1}'],
         "ball region has unknown key 'bogus'"),
        (["capacity", "--region", '{"type": "bottle", "radius": 1, "neck": 0.5, "extra": 1}'],
         "bottle region has unknown key 'extra'"),
        (["capacity", "--region", '{"type": "ellipsoid", "matrix": {"n": 1, "matrix": '
          '[1, 0, 0, 1]}, "energy": 1, "radius": 5}'],
         "ellipsoid region has unknown key 'radius'"),
        (["capacity", "--cylinder", "R=2", "N=3", "j=2"], "cylinder region has unknown key 'j'"),
    ])
    def test_unknown_key_named(self, capsys, argv, message):
        # unknown keys were once dropped, and the region computed without them
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": message}

    @pytest.mark.parametrize("argv,message", [
        # an unknown key first, then a missing one, then each value in its table's order
        (["capacity", "--ball", "R=x", "foo=1"], "ball region has unknown key 'foo'"),
        (["capacity", "--ball", "R=x"], "ball region is missing key 'N'"),
        (["capacity", "--cylinder", "R=x", "N=y", "plane=foo"],
         "cylinder region key 'R' must be a real number, got 'x'"),
        (["capacity", "--region", '{"type": "ellipsoid", "energy": "1", "matrix": {"n": 0}}'],
         "matrix descriptor is missing key 'matrix'"),
        (["quantize-1d", "--potential", '{"kind": "polynomial", "foo": 1}', "--nmax", "0"],
         "polynomial potential has unknown key 'foo'"),
        (["quantize-1d", "--potential", "harmonic", "mass=x", "omega=y", "--nmax", "0"],
         "harmonic potential key 'omega' must be a real number, got 'y'"),
        # the readers before the factory's range checks
        (["quantize-1d", "--potential", "morse", "D=-1", "a=x", "--nmax", "0"],
         "morse potential key 'a' must be a real number, got 'x'"),
        (["williamson", "--matrix", '{"matrix": [1], "foo": 1}'],
         "matrix descriptor has unknown key 'foo'"),
        (["williamson", "--matrix", '{"n": 0, "matrix": "x"}'],
         "matrix descriptor key 'n' must be positive, got 0"),
        # a dimension below 1 is refused by its reader, named by its key as written
        (["capacity", "--ball", "R=1", "N=0"], "ball region key 'N' must be positive, got 0"),
        (["capacity", "--cylinder", "R=1", "N=0"],
         "cylinder region key 'N' must be positive, got 0"),
        (["capacity", "--region", '{"type": "ball", "radius": 1, "n": 0}'],
         "ball region key 'n' must be positive, got 0"),
        (["capacity", "--cylinder", "R=-1", "N=-3", "plane=qq:1,2"],
         "cylinder region key 'N' must be positive, got -3"),
    ])
    def test_descriptor_fault_precedence(self, capsys, argv, message):
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": message}

    @pytest.mark.parametrize("argv", [
        ["capacity", "--ball", "R=1", "N=3"],
        ["quantize-1d", "--potential", "harmonic", "omega=1", "--nmax", "2", "--format", "csv"],
    ], ids=["json", "csv"])
    def test_out_file_holds_stdout(self, capsys, tmp_path, argv):
        code, want = invoke(capsys, *argv)
        assert code == 0 and want
        path = tmp_path / "result"
        code, out = invoke(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("argv,message", [
        (["capacity", "--cylinder", "R=1", "N=2", "plane=qq:1,3"], "plane index 3 outside 1..2"),
        (["capacity", "--cylinder", "R=1", "N=2", "plane=foo"],
         "plane must be conjugate:j, qq:i,j, pp:i,j or qp:i,j, got 'foo'"),
        (["capacity", "--region", '{"type": "cylinder", "radius": 1, "n": 2, "plane": 1}'],
         "plane must be conjugate:j, qq:i,j, pp:i,j or qp:i,j, got 1"),
    ])
    def test_cylinder_plane_named(self, capsys, argv, message):
        # a plane is read as shadow --plane reads it; a non-string is refused
        # before it reaches str.partition
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": message}

    @pytest.mark.parametrize("argv,message", [
        (["capacity", "--ball", "R=1", "N=2.7"], "ball region key 'N' must be an integer, got 2.7"),
        (["capacity", "--ball", "R=1", "N=true"],
         "ball region key 'N' must be an integer, got True"),
        (["capacity", "--ball", "R=1", "N=NaN"],
         "ball region key 'N' must be an integer, got 'NaN'"),
        (["shadow", "--random", "2", "--plane", "conjugate:1.5"],
         "plane index must be an integer, got '1.5'"),
        (["shadow", "--random", "2", "--plane", "qq:a,2"],
         "plane index must be an integer, got 'a'"),
        (["capacity", "--region", '{"type": "ellipsoid", "matrix": {"n": 1.5, "matrix": '
          '[1, 0, 0, 1]}, "energy": 1}'],
         "matrix descriptor key 'n' must be an integer, got 1.5"),
        (["williamson", "--matrix", '{"n": true, "matrix": [1, 0, 0, 1]}'],
         "matrix descriptor key 'n' must be an integer, got True"),
        (["capacity", "--ball", "R=1", 'N="2"'], "ball region key 'N' must be an integer, got '2'"),
        (["capacity", "--ball", "R=1", 'N="2.7"'],
         "ball region key 'N' must be an integer, got '2.7'"),
        (["williamson", "--matrix", '{"n": "1", "matrix": [1, 0, 0, 1]}'],
         "matrix descriptor key 'n' must be an integer, got '1'"),
        (["capacity", "--ball", "R=1", "N=null"], "ball region key 'N' must be an integer, got None"),
        (["quantize-quadratic", "--matrix", '{"n":1,"matrix":[1,0,0,1]}', "--n", "1.5"],
         "quantum number must be an integer, got '1.5'"),
        (["quantize-quadratic", "--matrix", '{"n":2,"matrix":[1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1]}',
          "--n", "0,,1"], "quantum number must be an integer, got ''"),
        (["quantize-quadratic", "--matrix", '{"n":1,"matrix":[1,0,0,1]}', "--n", "1_0"],
         "quantum number must be an integer, got '1_0'"),
        (["quantize-quadratic", "--matrix", '{"n":1,"matrix":[1,0,0,1]}', "--n", " 1"],
         "quantum number must be an integer, got ' 1'"),
        (["shadow", "--random", "2", "--plane", "qq: 1,2 "],
         "plane index must be an integer, got ' 1'"),
        (["capacity", "--cylinder", "R=1", "N=2", "plane=conjugate:\u0662"],
         "plane index must be an integer, got '\u0662'"),
        # argparse options: a usage error on stderr, as for --nmax abc
        (["nonsqueeze-ensemble", "--n", "1_0", "--count", "1"],
         "argument --n: invalid integer value: '1_0'"),
        (["quantize-1d", "--potential", "harmonic", "--nmax", "\u0663"],
         "argument --nmax: invalid integer value: '\u0663'"),
        (["shadow", "--random", "2", "--seed", "3 "],
         "argument --seed: invalid seed value: '3 '"),
        (["dos", "--ndim", "+", "--energy", "1"], "argument --ndim: invalid integer value: '+'"),
        (["shadow", "--random", "2", "--seed", "-1"], "argument --seed: invalid seed value: '-1'"),
        (["nonsqueeze-ensemble", "--n", "1", "--count", "1", "--seed", "-1"],
         "argument --seed: invalid seed value: '-1'"),
        (["evolve", "--potential", "harmonic", "--samples", "100", "--seed", "-1"],
         "argument --seed: invalid seed value: '-1'"),
        *[(base + [option, token], f"argument {option}: invalid real value: {token!r}")
          for option, base in REAL_OPTIONS for token in ("1_0", " 1.5")],
        *[(["evolve", "--potential", "harmonic", "--samples", "10", "--times", f"0,{token}"],
           f"--times entry must be a real number, got {token!r}") for token in ("1_0", " 1.5")],
    ])
    def test_integer_not_truncated(self, capsys, argv, message):
        # int() once read N=2.7 as 2, true as 1 and the string "2" as 2, and
        # its message for null, and for the plane index or quantum number
        # "1.5", named Python's int(), not the key; it also read digit-group
        # underscores, surrounding whitespace and non-ASCII digits. A usage
        # error names what the option takes, not a private function, and a
        # negative seed is refused by name before numpy sees it. Real tokens
        # follow the same rule: float() once read 1_0 as 10 and ' 1.5' as 1.5
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        if message.startswith("argument --"):
            assert captured.out == "" and captured.err.startswith("usage:")
            assert captured.err.endswith(f" error: {message}\n")
        else:
            assert json.loads(captured.out) == {"error": "InvalidInput", "message": message}

    @pytest.mark.parametrize("argv,message", [
        (["capacity", "--ball", 'R="1"', "N=2"], "ball region key 'R' must be a real number, got '1'"),
        (["capacity", "--region", '{"type":"ball","radius":"2","n":2}'],
         "ball region key 'radius' must be a real number, got '2'"),
        (["capacity", "--ball", 'R="1e"', "N=2"],
         "ball region key 'R' must be a real number, got '1e'"),
        (["capacity", "--ball", "R=1e", "N=2"], "ball region key 'R' must be a real number, got '1e'"),
        (["capacity", "--ball", "R=true", "N=2"],
         "ball region key 'R' must be a real number, got True"),
        (["capacity", "--cylinder", "R=null", "N=2"],
         "cylinder region key 'R' must be a real number, got None"),
        (["capacity", "--region", '{"type": "bottle", "radius": 1, "neck": "0.5"}'],
         "bottle region key 'neck' must be a real number, got '0.5'"),
        (["capacity", "--region", '{"type": "ellipsoid", "matrix": {"n": 1, "matrix": '
          '[1, 0, 0, 1]}, "energy": "1"}'],
         "ellipsoid region key 'energy' must be a real number, got '1'"),
        (["quantize-1d", "--potential", "quartic", 'coeff="0.3"', "--nmax", "1"],
         "quartic potential key 'coeff' must be a real number, got '0.3'"),
        (["quantize-1d", "--potential", "morse", "D=false", "--nmax", "1"],
         "morse potential key 'D' must be a real number, got False"),
        (["quantize-1d", "--potential", "harmonic", 'mass="2"', "--nmax", "1"],
         "harmonic potential key 'mass' must be a real number, got '2'"),
        (["quantize-1d", "--potential", '{"kind": "polynomial", "coeffs": [0, "1", 0.5]}',
          "--nmax", "1"], "polynomial potential key 'coeffs' entry must be a real number, got '1'"),
        (["quantize-separable", "--potentials",
          '[{"kind": "polynomial", "coeffs": [0, 0, 1], "bracket": ["-5", 5]}]', "--n", "0"],
         "polynomial potential key 'bracket' entry must be a real number, got '-5'"),
    ])
    def test_real_not_parsed(self, capsys, argv, message):
        # float() once read the JSON strings "1" and "0.3" as numbers, and its
        # message for "1e" named Python's float(), not the key
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": message}

    @pytest.mark.parametrize("argv", [
        ["capacity", "--ball", "R=2", "N=2"],
        ["capacity", "--ball", "R=2.", "N=2"],
        ["capacity", "--region", '{"type": "ball", "radius": 2, "n": 2}'],
        ["quantize-1d", "--potential", '{"kind": "quartic", "coeff": 1, "mass": 2}', "--nmax", "0"],
        ["nonsqueeze-ensemble", "--n", "+2", "--count", "1", "--seed", "-0"],
        # the real-token rule's other spellings
        ["shadow", "--random", "2", "--sigma", "+.5", "--radius", "2.", "--tol", "1E-9"],
        ["blob-check", "--value", "1e-400"],
    ])
    def test_integer_real_accepted(self, capsys, argv):
        code, out = invoke(capsys, *argv)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["capacity", "--ball", "R=1", "N=2.0"],
        ["capacity", "--region", '{"type": "cylinder", "radius": 1, "n": 2.0}'],
    ])
    def test_integral_float_accepted(self, capsys, argv):
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {"exact": True, "value": math.pi}

    def test_uncertified_normal_form_exit_3(self, capsys):
        # a valid positive-definite M of condition number 1e14 whose computed
        # S fails its symplectic certificate: a numerical failure, not bad input
        M = pd_matrix_with_condition(np.random.default_rng(210), 3, 1e14)
        matrix = json.dumps({"n": 3, "matrix": M.ravel().tolist()})
        code, out = invoke(capsys, "williamson", "--matrix", matrix)
        assert code == 3
        obj = json.loads(out)
        assert obj["error"] == "NumericalDegeneracy"
        assert "symplectic defect" in obj["message"]

    @pytest.mark.parametrize("argv", [
        ["williamson", "--matrix", '{"n": 1, "matrix": [1e-300, 0, 0, 1e300]}'],
        ["dos", "--matrix", '{"n": 1, "matrix": [1e-300, 0, 0, 1e300]}', "--energy", "1"],
    ])
    def test_singular_to_double_precision_exit_3(self, capsys, argv):
        code, out = invoke(capsys, *argv)
        assert code == 3
        obj = json.loads(out)
        assert obj["error"] == "NotPositiveDefinite"
        assert obj["message"].startswith("matrix is singular to double precision")

    @pytest.mark.parametrize("argv", [
        ["capacity", "--ball", "R=1e200", "N=2"],
        ["capacity", "--region", '{"type": "ball", "radius": 1e200, "n": 2}'],
        ["shadow", "--random", "2", "--radius", "1e200"],
        ["dos", "--energy", "1e308", "--ndim", "3"],
        ["capacity", "--cylinder", "R=1e200", "N=2"],
        ["capacity", "--region", '{"type": "ellipsoid", "matrix": {"n": 1, "matrix": '
         '[1, 0, 0, 1]}, "energy": 1e308}'],
        # draws with entries of 1e276 and more, whose certificate S^T J S would
        # overflow: refused before numpy can warn on stderr
        ["shadow", "--random", "2", "--sigma", "1e3", "--seed", "1"],
        ["nonsqueeze-ensemble", "--n", "2", "--count", "5", "--sigma", "1e3", "--seed", "1"],
        # a shadow determinant that overflows, once after numpy's warning
        ["shadow", "--random", "10", "--sigma", "100", "--seed", "1"],
        ["dos", "--energy", "1e4", "--ndim", "200"],  # g = e^975
        # hbar w = 1e-330, below the doubles: once a ZeroDivisionError
        ["dos", "--energy", "1", "--ndim", "2", "--hbar", "1e-320", "--omega", "1e-10"],
        ["dos", "--ndim", "2", "--omega", "1e-200", "--energy", "1"],  # g = 1e400
    ])
    def test_not_finite(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": "result is not finite"}

    def test_overflowing_dets_warn_nothing(self, capsys):
        # exit 0 as before, without numpy's "overflow encountered in multiply"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["nonsqueeze-ensemble", "--n", "3", "--count", "5", "--sigma", "100",
                        "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["conjugate_bound_held"] is True

    @pytest.mark.parametrize("argv,message", [
        (["shadow", "--random", "2", "--sigma", "nan"], "sigma must be finite and positive, got nan"),
        (["nonsqueeze-ensemble", "--n", "2", "--count", "3", "--sigma", "nan"],
         "sigma must be finite and positive, got nan"),
        (["shadow", "--matrix", '{"n": 1, "matrix": [NaN, 0, 0, NaN]}'],
         "matrix descriptor key 'matrix' entry must be a real number, got 'NaN'"),
        (["quantize-1d", "--potential", "harmonic", "--nmax", "1", "--hbar", "nan"],
         "hbar must be finite and positive, got nan"),
        (["capacity", "--region",
          '{"type": "ellipsoid", "matrix": {"n": 1, "matrix": [NaN, 0, 0, 1]}, "energy": 1}'],
         "matrix descriptor key 'matrix' entry must be a real number, got 'NaN'"),
        (["blob-check", "--value", "nan"], "capacity must be nonnegative, got nan"),
        (["evolve", "--potential", "harmonic", "--samples", "100", "--times", "0,nan"],
         "snapshot time nan is not finite"),
        (["evolve", "--potential", "harmonic", "--samples", "100", "--times", "inf"],
         "snapshot time inf is not finite"),
        (["capacity", "--cylinder", "R=nan", "N=2", "plane=qq:1,2"],
         "radius must be finite and positive, got nan"),
        (["capacity", "--cylinder", "R=inf", "N=2"], "radius must be finite and positive, got inf"),
        (["capacity", "--ball", "R=nan", "N=2"], "radius must be finite and positive, got nan"),
        (["capacity", "--ball", "R=inf", "N=2"], "radius must be finite and positive, got inf"),
        (["shadow", "--random", "2", "--radius", "nan"],
         "radius must be finite and positive, got nan"),
        (["shadow", "--random", "2", "--radius", "inf"],
         "radius must be finite and positive, got inf"),
        (["blob-check", "--value=-inf"], "capacity must be nonnegative, got -inf"),
    ])
    def test_nan_refused_before_computing(self, capsys, argv, message):
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": message}

    @pytest.mark.parametrize("entries,defect", [
        ([1e10, 0, 0, 1], "1.000e+00"),
        ([1e200, 0, 0, 1], "1.000e+00"),
        ([1, 0, 0, 1 + 1e-9], "5.000e-10"),
    ])
    def test_not_symplectic_matrix(self, capsys, entries, defect):
        code, out = invoke(capsys, "shadow", "--matrix", json.dumps({"n": 1, "matrix": entries}))
        assert code == 2
        assert json.loads(out) == {
            "error": "InvalidInput",
            "message": f"symplectic defect {defect} exceeds tolerance 1.000e-10"}

    @pytest.mark.parametrize("potential,message", [
        (["harmonic", "omega=0"], "harmonic omega must be finite and positive, got 0.0"),
        (["morse", "a=0"], "morse a must be finite and positive, got 0.0"),
        (['{"kind":"polynomial","coeffs":[]}'],
         "polynomial potential needs at least one coefficient"),
        (["quartic", "coeff=nan"], "quartic coeff must be finite, got nan"),
        (["morse", "D=nan"], "morse D must be finite, got nan"),
        (['{"kind":"polynomial","coeffs":[0,NaN,0.5]}'],
         "polynomial potential key 'coeffs' entry must be a real number, got 'NaN'"),
        (["harmonic", "omega=nan"], "harmonic omega must be finite and positive, got nan"),
        (["harmonic", "omega=inf"], "harmonic omega must be finite and positive, got inf"),
        (["morse", "a=-1"], "morse a must be finite and positive, got -1.0"),
        (["quartic", "coeff=inf"], "quartic coeff must be finite, got inf"),
        (["harmonic", "omega=1", "mass=0"], "mass must be finite and positive, got 0.0"),
        (["quartic", "mass=nan"], "mass must be finite and positive, got nan"),
        # once exit 0, every level "not reached below dissociation" at an energy of
        # the old bracket's
        (["morse", "D=-1"], "morse D must be positive, got -1.0: the potential is not confining"),
        (["morse", "D=0"], "morse D must be positive, got 0.0: the potential is not confining"),
        # refused before math.sqrt(mass / 2) of the harmonic bottom: "math domain error"
        (["harmonic", "mass=-1"], "mass must be finite and positive, got -1.0"),
    ])
    def test_bad_potential_parameter(self, capsys, potential, message):
        code, out = invoke(capsys, "quantize-1d", "--potential", *potential, "--nmax", "1")
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": message}

    def test_infinite_dt(self, capsys):
        code, out = invoke(capsys, "evolve", "--potential", "harmonic", "omega=1",
                           "--times", "0,0.5", "--dt", "inf", "--samples", "50")
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput",
                                   "message": "dt must be finite and positive, got inf"}

    def test_negative_time(self, capsys):
        code, out = invoke(capsys, "evolve", "--potential", "quartic", "coeff=1",
                           "--times=-1,0", "--dt", "0.01", "--samples", "2000")
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput",
                                   "message": "snapshot time -1.0 is negative"}

    def test_too_many_particle_steps_refused_at_once(self, capsys, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("points drawn for a run over the bound")

        monkeypatch.setattr(shadows, "ball_points", draw)
        code, out = invoke(capsys, "evolve", "--potential", "harmonic", "omega=1",
                           "--times", "1e12", "--dt", "1", "--samples", "10")
        assert code == 2
        assert "particle-steps" in json.loads(out)["message"]

    @pytest.mark.parametrize("argv", [
        ["capacity", "--ball", "R=[1]", "N=2"],
        ["capacity", "--ball", "R=1", "N=null"],
        ["capacity", "--region", '{"type": "ball", "radius": {}, "n": 2}'],
    ])
    def test_wrong_json_type(self, capsys, argv):
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "InvalidInput"

    @pytest.mark.parametrize("argv,message", [
        (["capacity", "--region", "[1]"], "--region must be a JSON object"),
        (["quantize-separable", "--potentials", "[1]", "--n", "0"],
         "--potentials must be a JSON array of potential objects"),
        (["quantize-separable", "--potentials", '{"kind": "harmonic"}', "--n", "0"],
         "--potentials must be a JSON array of potential objects"),
        (["capacity", "--region",
          '{"type": "ellipsoid", "matrix": {"matrix": [1, 0, 0, 4]}, "energy": 1}'],
         "matrix descriptor is missing key 'n'"),
        (["williamson", "--matrix", '{"n": 1}'], "matrix descriptor is missing key 'matrix'"),
        (["williamson", "--matrix", "[1, 0, 0, 4]"],
         "matrix descriptor must be a JSON object with keys 'n' and 'matrix'"),
        (["quantize-1d", "--potential", "harmonic", "foo=1", "--nmax", "1"],
         "harmonic potential has unknown key 'foo'"),
        # only a polynomial has a bracket: the other wells are inverted in closed form
        (["quantize-1d", "--potential", "harmonic", "bracket=[-5,5]", "--nmax", "1"],
         "harmonic potential has unknown key 'bracket'"),
        (["capacity", "--region", '{"type": "torus", "radius": 1}'],
         "unknown region type 'torus'"),
        (["capacity", "--region", '{"radius": 1, "n": 2}'], "unknown region type None"),
        (["williamson"], "provide --matrix or --matrix-file"),
    ])
    def test_wrong_shaped_json(self, capsys, argv, message):
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": message}

    @pytest.mark.parametrize("argv,message", [
        (["williamson", "--matrix", '{"n":1,"matrix":[1,0,0]}'],
         "matrix descriptor key 'matrix' must be an array of 4 real numbers, got an array of 3"),
        (["williamson", "--matrix", '{"n":0,"matrix":[]}'],
         "matrix descriptor key 'n' must be positive, got 0"),
        (["shadow", "--matrix", '{"n":0,"matrix":[]}'],
         "matrix descriptor key 'n' must be positive, got 0"),
        (["williamson", "--matrix", '{"n":-1,"matrix":[1,0,0,1]}'],
         "matrix descriptor key 'n' must be positive, got -1"),
        (["williamson", "--matrix", '{"n":1,"matrix":"abcd"}'],
         "matrix descriptor key 'matrix' must be an array of 4 real numbers, got 'abcd'"),
        (["williamson", "--matrix", '{"n":1,"matrix":[true,0,0,true]}'],
         "matrix descriptor key 'matrix' entry must be a real number, got True"),
        (["williamson", "--matrix", '{"n":1,"matrix":[1,0,0,1],"foo":1}'],
         "matrix descriptor has unknown key 'foo'"),
        (["shadow", "--random", "0"], "need N >= 1, got 0"),
        (["quantize-1d", "--potential", "polynomial", "coeffs=[0,0,1]", "bracket=5", "--nmax", "0"],
         "polynomial potential key 'bracket' must be an array of 2 real numbers, got 5"),
        (["quantize-1d", "--potential", "polynomial", "coeffs=[0,0,1]", "bracket=[1]", "--nmax", "0"],
         "polynomial potential key 'bracket' must be an array of 2 real numbers, got an array "
         "of 1"),
        (["quantize-1d", "--potential", "polynomial", "coeffs=[0,0,1]", "bracket=[1,2,3]", "--nmax", "0"],
         "polynomial potential key 'bracket' must be an array of 2 real numbers, got an array "
         "of 3"),
        (["quantize-1d", "--potential", '{"kind":"polynomial","coeffs":5}', "--nmax", "0"],
         "polynomial potential key 'coeffs' must be an array of real numbers, got 5"),
        (["quantize-1d", "--potential", "polynomial", "coeffs=[0,0,1]", "bracket=[-1e400,1]", "--nmax", "0"],
         "polynomial potential key 'bracket' entry must be a real number, got '-1e400'"),
        (["capacity", "--region", '{"type": "ellipsoid", "matrix": {"n": 1, "matrix": '
          '[1, 0, 0, 1]}, "energy": NaN}'],
         "ellipsoid region key 'energy' must be a real number, got 'NaN'"),
        (["dos", "--energy", "nan"], "energy must be finite and positive, got nan"),
        (["shadow", "--random", "2", "--sigma", "inf"],
         "sigma must be finite and positive, got inf"),
        (["capacity", "--ball", "R=1", "N=2", "--out", "{dir}"], "--out '{dir}': Is a directory"),
        (["williamson", "--matrix-file", "{dir}"], "--matrix-file '{dir}': Is a directory"),
        # entries that the exact float and int read passes on to the named refusal
        (["williamson", "--matrix", '{"n":1,"matrix":[1,0,0,false]}'],
         "matrix descriptor key 'matrix' entry must be a real number, got False"),
        (["williamson", "--matrix", '{"n":1,"matrix":[1,0,"1",1]}'],
         "matrix descriptor key 'matrix' entry must be a real number, got '1'"),
        (["williamson", "--matrix", '{"n":1,"matrix":[1,null,0,1]}'],
         "matrix descriptor key 'matrix' entry must be a real number, got None"),
        (["quantize-1d", "--potential", "polynomial", "coeffs=[0,0,1]", "bracket=[-1e200,1e200]", "--nmax", "0"],
         "V must be finite at the bracket ends, got V(-1e+200) = inf and V(1e+200) = inf"),
        (["blob-check", "--value", "x"], "--value must be a real number, got 'x'"),
        (["evolve", "--potential", "harmonic", "--samples", "100", "--times", "0,a"],
         "--times entry must be a real number, got 'a'"),
        (["blob-check", "--value", "Infinity"], "--value must be a real number, got 'Infinity'"),
        (["blob-check", "--value", " inf"], "--value must be a real number, got ' inf'"),
        (["blob-check", "--value", "1_0"], "--value must be a real number, got '1_0'"),
        (["blob-check", "--value", "1e400"], "--value 1e400 overflows a double"),
        (["capacity", "--ball", "R=1_0", "N=2"],
         "ball region key 'R' must be a real number, got '1_0'"),
        # JSON text that does not parse, refused by its option
        (["williamson", "--matrix", "[1"],
         "--matrix: Expecting ',' delimiter: line 1 column 3 (char 2)"),
        (["williamson", "--matrix-file", "{dir}/bad.json"],
         "--matrix-file: Expecting ',' delimiter: line 1 column 3 (char 2)"),
        (["capacity", "--region", "{bad"],
         "--region: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (["quantize-1d", "--potential", '{"kind": "harmonic",}', "--nmax", "0"],
         "--potential: Expecting property name enclosed in double quotes: line 1 column 21 "
         "(char 20)"),
        (["quantize-separable", "--potentials", "[", "--n", "0"],
         "--potentials: Expecting value: line 1 column 2 (char 1)"),
        # JSON is read strictly: Infinity, NaN and 1e400, which Python's json reads as
        # floats, are refused by the rule of the command-line tokens, as INF is
        (["capacity", "--ball", "R=Infinity", "N=2"],
         "ball region key 'R' must be a real number, got 'Infinity'"),
        (["capacity", "--ball", "R=INF", "N=2"], "ball region key 'R' must be a real number, got 'INF'"),
        (["capacity", "--ball", "R=1e400", "N=2"],
         "ball region key 'R' must be a real number, got '1e400'"),
        (["capacity", "--ball", "R=-Infinity", "N=2"],
         "ball region key 'R' must be a real number, got '-Infinity'"),
        (["capacity", "--region", '{"type": "ball", "radius": Infinity, "n": 2}'],
         "ball region key 'radius' must be a real number, got 'Infinity'"),
        (["capacity", "--region", '{"type": "ball", "radius": 1e400, "n": 2}'],
         "ball region key 'radius' must be a real number, got '1e400'"),
        (["williamson", "--matrix", '{"n": 1, "matrix": [1, 0, 0, -1E+999]}'],
         "matrix descriptor key 'matrix' entry must be a real number, got '-1E+999'"),
        (["quantize-1d", "--potential", '{"kind": "harmonic", "omega": Infinity}', "--nmax", "0"],
         "harmonic potential key 'omega' must be a real number, got 'Infinity'"),
        (["quantize-1d", "--potential", "quartic", "coeff=NaN", "--nmax", "0"],
         "quartic potential key 'coeff' must be a real number, got 'NaN'"),
        # a --matrix-file that is not UTF-8 text was the codec's message alone
        (["williamson", "--matrix-file", "{dir}/latin.json"],
         "--matrix-file '{dir}/latin.json': 'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
        # a JSON integer beyond the double range once overflowed float() unnamed, as
        # "result is not finite"; it is refused by its key, as JSON's 1e400 is
        (["capacity", "--ball", f"R={BIG_INT}", "N=2"],
         f"ball region key 'R' must be a real number, got {BIG_INT}"),
        (["williamson", "--matrix", f'{{"n":1,"matrix":[{BIG_INT},0,0,1]}}'],
         f"matrix descriptor key 'matrix' entry must be a real number, got {BIG_INT}"),
        (["quantize-1d", "--potential", "harmonic", f"omega={BIG_INT}", "--nmax", "1"],
         f"harmonic potential key 'omega' must be a real number, got {BIG_INT}"),
        # the Verlet kernel carries (dt / mass) p, which would be subnormal
        (["evolve", "--potential", "harmonic", "--dt", "1e-300", "--samples", "10", "--times", "0"],
         "dt / mass = 1e-300 is below 2^-960: the momentum scaled by it would be subnormal"),
        # oversized sizes once ended in a MemoryError traceback (29.1 TiB for the
        # first two, 745 GiB, 14.9 GiB), or ran past 60 s (--n 300)
        (["nonsqueeze-ensemble", "--n", "1", "--count", "1000000000000"],
         "--count 1000000000000 at --n 1 asks for 4000000000000 stacked matrix entries, "
         "beyond the bound of 8388608"),
        (["nonsqueeze-ensemble", "--n", "300", "--count", "1"],
         "--count 1 at --n 300 asks for 32292090000 squared minors, beyond the bound of "
         "250000000"),
        (["nonsqueeze-ensemble", "--n", "1", "--count", BIG_INT],
         f"--count {BIG_INT} at --n 1 asks for 4{BIG_INT[1:]} stacked matrix entries, beyond "
         "the bound of 8388608"),
        (["shadow", "--random", "1000000"], "--random 1000000 exceeds the bound of 1000"),
        (["dos", "--ndim", "100000000000", "--energy", "1"],
         "--ndim 100000000000 exceeds the bound of 1000"),
        (["evolve", "--potential", "harmonic", "--samples", "2000000000", "--times", "0"],
         "--samples 2000000000 exceeds the bound of 5000000"),
        (["dos", "--ndim", "-3", "--energy", "1"], "--ndim must be positive, got -3"),
        (["dos", "--matrix", '{"n": 1, "matrix": [1e-300, 0, 0, 1e300]}', "--energy", "1",
          "--hbar", "-1"], "hbar must be finite and positive, got -1.0"),
    ])
    def test_refused_by_name(self, capsys, tmp_path, argv, message):
        # once exit 3 (DimensionError), a traceback (a directory for a file),
        # Python's or numpy's own text (numpy's overflow warning on stderr for
        # a bracket whose V overflows, float()'s message naming no option),
        # "result is not finite" (a NaN energy, an infinite sigma), or exit 0
        # (the boolean matrix, the infinite bracket end, the unknown matrix key);
        # JSON that did not parse once gave the JSON reader's message, naming no option
        (tmp_path / "bad.json").write_text("[1")
        (tmp_path / "latin.json").write_bytes(b"\xff\xfe")
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert json.loads(captured.out) == {
            "error": "InvalidInput", "message": message.replace("{dir}", str(tmp_path))}

    @pytest.mark.parametrize("bound,value,largest,argv", [
        ("MAX_MODES", 3, 3, ["shadow", "--random", "{}"]),
        ("MAX_MODES", 3, 3, ["dos", "--ndim", "{}", "--energy", "1"]),
        ("MAX_SAMPLES", 3, 3, ["evolve", "--potential", "harmonic", "--samples", "{}",
                               "--times", "0"]),
        # n = 2: 16 stacked entries and 36 squared minors a member
        ("MAX_ENSEMBLE_ENTRIES", 5 * 16, 5, ["nonsqueeze-ensemble", "--n", "2", "--count", "{}"]),
        ("MAX_ENSEMBLE_MINORS", 5 * 36, 5, ["nonsqueeze-ensemble", "--n", "2", "--count", "{}"]),
    ])
    def test_size_bound_is_inclusive(self, capsys, monkeypatch, bound, value, largest, argv):
        # with the bound at `value`, `largest` runs and one more is refused by its option
        monkeypatch.setattr(cli, bound, value)
        assert invoke(capsys, *[a.format(largest) for a in argv])[0] == 0
        code, out = invoke(capsys, *[a.format(largest + 1) for a in argv])
        assert code == 2 and "bound" in json.loads(out)["message"]

    @pytest.mark.parametrize("error", [TypeError, KeyError])
    def test_fault_is_not_input_error(self, capsys, monkeypatch, error):
        # only ValueError, OSError and OverflowError are bad input
        def broken(args):
            raise error("a fault in the program")

        monkeypatch.setattr(cli, "cmd_capacity", broken)
        with pytest.raises(error, match="a fault in the program"):
            run(["capacity", "--ball", "R=1", "N=2"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["capacity", "--ball", "R=1", "N=3", "--tol", "1e-3"],
        ["williamson", "--matrix", '{"n":1,"matrix":[1,0,0,4]}', "--seed", "1"],
        ["bottle-demo", "--format", "csv"],
        ["dos", "--ndim", "3", "--energy", "2", "--numeric"],
        ["dos", "--ndim", "2", "--mass", "3", "--energy", "1"],  # --mass changed no g
    ])
    def test_unread_options_rejected(self, capsys, argv):
        # the usage shown is the subcommand's, not the list of subcommands
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: sympcap {argv[0]} [-h]")
        assert f"sympcap {argv[0]}: error: unrecognized arguments" in captured.err

    @pytest.mark.parametrize("argv", [["-h"], ["shadow", "--help"], ["evolve", "-h"]])
    def test_help_on_stderr(self, capsys, argv):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: sympcap")


class TestOptionsRead:
    def test_shadow_tol(self, capsys):
        m = json.dumps({"n": 1, "matrix": [1.0, 0.0, 0.0, 1.0 + 1e-9]})
        assert invoke(capsys, "shadow", "--matrix", m)[0] == 2
        assert invoke(capsys, "shadow", "--matrix", m, "--tol", "1e-6")[0] == 0

    @pytest.mark.parametrize("argv,spacing,resolution", [
        (["blob-check", "--value", "1e308"], "1.996e+292", "3.142e-01"),
        (["blob-check", "--value", "1e20", "--tol", "0.001"], "1.638e+04", "6.283e-03"),
    ])
    def test_blob_value_beyond_tolerance_refused(self, capsys, argv, spacing, resolution):
        # once exit 0: a 308-digit blob_index, and 1e20 read as a blob
        code, out = invoke(capsys, *argv)
        assert code == 2
        message = json.loads(out)["message"]
        assert spacing in message and resolution in message

    def test_blob_check_tol(self, capsys):
        value = str(1.2 * math.pi)
        assert json.loads(invoke(capsys, "blob-check", "--value", value)[1])["blob_index"] is None
        _, out = invoke(capsys, "blob-check", "--value", value, "--tol", "0.2")
        assert json.loads(out)["blob_index"] == 0

    def test_evolve_seed(self, capsys, tmp_path):
        clouds = []
        for seed in ("1", "2"):
            prefix = str(tmp_path / f"seed{seed}")
            code, _ = invoke(capsys, "evolve", "--potential", "harmonic", "omega=1",
                             "--times", "0", "--samples", "100", "--seed", seed,
                             "--dump-points", prefix)
            assert code == 0
            clouds.append(np.loadtxt(f"{prefix}_t0.csv", delimiter=",", skiprows=1))
        assert not np.array_equal(*clouds)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["capacity", "--ball", "R=1.5", "N=2"],
        ["nonsqueeze-ensemble", "--n", "2", "--count", "20", "--seed", "7"],
        ["quantize-1d", "--potential", "morse", "D=10", "a=1", "--nmax", "3"],
        ["shadow", "--random", "2", "--seed", "11"],
        ["quantize-1d", "--potential", "harmonic", "omega=1", "--nmax", "2"],
        ["quantize-separable", "--potentials", '[{"kind":"harmonic","omega":1}]',
         "--n", "1"],
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        _, out1 = invoke(capsys, *argv)
        _, out2 = invoke(capsys, *argv)
        assert out1 == out2

    def test_results_reparse_under_schema(self, capsys):
        _, out = invoke(capsys, "capacity", "--ball", "R=1", "N=1")
        obj = json.loads(out)
        assert set(obj) == {"value", "exact"}
        assert isinstance(obj["exact"], bool)
        assert obj["value"] == "inf" or isinstance(obj["value"], float)


# The golden argv lists: each prints its docs/golden file.
GOLDEN_ARGV = [
    ("capacity.json", ["capacity", "--ball", "R=1", "N=3"]),
    ("williamson.json", ["williamson", "--matrix", '{"n":1,"matrix":[1,0,0,4]}']),
    ("shadow.json", ["shadow", "--random", "2", "--seed", "3"]),
    ("nonsqueeze-ensemble.json",
     ["nonsqueeze-ensemble", "--n", "2", "--count", "10", "--seed", "1"]),
    ("evolve.csv", ["evolve", "--potential", "harmonic", "omega=1", "--times", "0",
                    "--dt", "0.01", "--samples", "5000", "--grid-cell", "0.1"]),
    ("quantize-1d.json", ["quantize-1d", "--potential", "harmonic", "omega=1",
                          "--nmax", "2"]),
    ("quantize-quadratic.json",
     ["quantize-quadratic", "--matrix", '{"n":1,"matrix":[1,0,0,1]}', "--n", "0"]),
    ("quantize-separable.json",
     ["quantize-separable", "--potentials",
      '[{"kind":"harmonic","omega":1}]', "--n", "1"]),
    ("dos.json", ["dos", "--ndim", "3", "--energy", "2"]),
    ("blob-check.json", ["blob-check", "--value", "3.141592653589793"]),
    ("bottle-demo.json", ["bottle-demo", "--radius", "1", "--neck", "0.5"]),
]


class TestGoldenFiles:
    @pytest.mark.parametrize("name,argv", GOLDEN_ARGV)
    def test_matches_golden(self, capsys, name, argv):
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert golden_diff(read_golden(name), out) == []


class TestGoldenComparison:
    def test_accepts_measured_ebk_drift(self):
        golden = read_golden("quantize-1d.json")
        drifted = golden
        for old, new in [("0.49999999999999994", "0.4999999999999997"),
                         ("1.4999999999999998", "1.4999999999999993"),
                         ("2.4999999999999996", "2.4999999999999987"),
                         ("3.1415926535897927", "3.1415926535897922"),
                         ("15.707963267948962", "15.707963267948964")]:
            assert old in drifted
            drifted = drifted.replace(old, new)
        assert golden_diff(golden, drifted) == []

    @pytest.mark.parametrize("name,old,new", [
        pytest.param("quantize-1d.json", '"maslov": [2]', '"maslov": [1]', id="integer"),
        pytest.param("quantize-1d.json", '"hbar": 1.0', '"hbar": 1', id="float-to-int"),
        pytest.param("quantize-1d.json", '"n": [0]', '"n": [0.0]', id="int-to-float"),
        pytest.param("quantize-1d.json", '"energy"', '"energies"', id="renamed-key"),
        pytest.param("quantize-1d.json", '"skipped": []', '"skipped": [], "extra": 0',
                     id="added-key"),
        pytest.param("quantize-1d.json", '"hbar": 1.0', '"hbar":1.0', id="separator"),
        pytest.param("quantize-1d.json", "0.49999999999999994",
                     repr(0.49999999999999994 + 1e-13), id="E0+1e-13"),
        pytest.param("quantize-1d.json", "2.4999999999999996",
                     repr(2.4999999999999996 - 1e-13), id="E2-1e-13"),
        pytest.param("quantize-1d.json", "0.49999999999999994", "-0.49999999999999994",
                     id="sign"),
        pytest.param("quantize-1d.json", "[]}\n", "[]}\n0\n", id="trailing-number"),
        pytest.param("evolve.csv", "q1p1", "q1p2", id="csv-plane"),
        pytest.param("evolve.csv", "True", "False", id="csv-boolean"),
        pytest.param("evolve.csv", "time,", "t,", id="csv-header"),
        pytest.param("evolve.csv", "3.0800000000000001", "3.0800000000001",
                     id="csv-float"),
    ])
    def test_rejects_mutation(self, name, old, new):
        golden = read_golden(name)
        assert old in golden
        assert golden_diff(golden, golden.replace(old, new, 1)) != []


def quiet_run(argv):
    """run(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def spy_argv_readers(monkeypatch):
    """The parsers that read an argv from now on, in call order: by their
    option table (a `cli._read_argv` that does not decline) or by parse_args."""
    used = []
    read_argv, parse_args = cli._read_argv, argparse.ArgumentParser.parse_args

    def spy_read(parser, argv):
        args = read_argv(parser, argv)
        if args is not None:
            used.append(parser)
        return args

    def spy_parse(parser, *args, **kwargs):
        used.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(cli, "_read_argv", spy_read)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy_parse)
    return used


class TestSharedParser:
    def test_one_parser_per_command(self, capsys, monkeypatch):
        # every parser is built on the first call; a known command is read by
        # its own parser alone, the same object on every call
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        used = spy_argv_readers(monkeypatch)
        assert invoke(capsys, "capacity", "--ball", "R=1", "N=3")[0] == 0
        assert invoke(capsys, "blob-check", "--value", "1")[0] == 0
        assert invoke(capsys, "capacity", "--ball", "R=2", "N=1")[0] == 0
        commands = cli._parser().commands
        assert built == [1]
        assert used == [commands["capacity"], commands["blob-check"], commands["capacity"]]
        assert cli._parser() not in used

    @pytest.mark.parametrize("argv,code", [(["-h"], 0), ([], 2), (["frobnicate"], 2)])
    def test_top_level_usage_without_a_command(self, capsys, monkeypatch, argv, code):
        used = spy_argv_readers(monkeypatch)
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: sympcap [-h]") and "{capacity," in captured.err
        assert used == [cli._parser()]

    def test_handler_rebound_after_first_call_runs(self, capsys, monkeypatch):
        assert invoke(capsys, "capacity", "--ball", "R=1", "N=3")[0] == 0  # parser built
        seen = []
        monkeypatch.setattr(cli, "cmd_capacity", lambda args: seen.append(args.ball) or 3)
        assert invoke(capsys, "capacity", "--ball", "R=2", "N=1") == (3, "")
        assert seen == [["R=2", "N=1"]]


# Vocabulary of the one-process fuzz test: per subcommand, a valid argv and
# the options it takes. A fuzzed argv is one of these (or an unknown
# subcommand) followed by options and values, valid and not, plus the odd
# unknown flag.
FUZZ_COMMANDS = [
    (["capacity", "--ball", "R=1", "N=2"], ["--ball", "--cylinder", "--region"]),
    (["williamson", "--matrix", '{"n":1,"matrix":[1,0,0,4]}'], ["--matrix", "--matrix-file"]),
    (["shadow", "--random", "2", "--seed", "5"],
     ["--matrix", "--random", "--sigma", "--radius", "--plane", "--seed", "--tol"]),
    (["nonsqueeze-ensemble", "--n", "2", "--count", "2"], ["--n", "--count", "--sigma", "--seed"]),
    (["evolve", "--potential", "harmonic", "omega=1", "--times", "0,0.5", "--dt", "0.05",
      "--samples", "50"],
     ["--potential", "--radius", "--dt", "--samples", "--grid-cell", "--times", "--plane",
      "--seed"]),
    (["quantize-1d", "--potential", "morse", "D=2", "a=1", "--nmax", "2"],
     ["--potential", "--nmax", "--hbar", "--format"]),
    (["quantize-quadratic", "--matrix", '{"n":1,"matrix":[1,0,0,1]}', "--n", "0"],
     ["--matrix", "--n", "--hbar", "--format"]),
    (["quantize-separable", "--potentials", '[{"kind":"harmonic","omega":1}]', "--n", "1"],
     ["--potentials", "--n", "--hbar", "--format"]),
    (["dos", "--energy", "2"],
     ["--ndim", "--omega", "--energy", "--matrix", "--hbar"]),
    (["blob-check", "--value", "3.14"], ["--value", "--tol", "--hbar"]),
    (["bottle-demo", "--neck", "0.5"], ["--radius", "--neck"]),
    (["frobnicate"], []),
    # a descriptor option last: a value drawn alone is then its descriptor
    (["quantize-1d", "--nmax", "0", "--potential"], ["--potential", "--nmax", "--hbar"]),
    (["quantize-1d", "--nmax", "0", "--potential", "polynomial"], ["--potential", "--nmax"]),
    (["quantize-separable", "--n", "0", "--potentials"], ["--potentials", "--n", "--format"]),
    (["williamson", "--matrix"], ["--matrix", "--matrix-file"]),
    (["capacity", "--region"], ["--region", "--ball"]),
]
FUZZ_UNKNOWN = ["--bogus", "-h"]
# Values by kind, valid and not; "." is a directory for --matrix-file. Each
# option draws from its own kind's pool half the time (FUZZ_OWN) and from
# the shared pool, every kind together, the other half.
FUZZ_INTEGERS = ["0", "1", "2", "-1", "+2", "1_0", " 3", "2.5", "0,1", "1,2"]
FUZZ_REALS = ["0.5", "-0.5", "1e-3", "1e308", "nan", "inf", "-inf", "x", "", "1_0", "Infinity",
              "1e400"]
FUZZ_PLANES = ["conjugate:1", "qq:1,2", "qp:2", "pp:1,1"]
FUZZ_KEY_VALUES = [
    "R=1", "N=2", "R=-1", "N=0", "R=nan", "R=[1]", "N=null", "j=3", "plane=qq", "N=2.5",
    "j=true", "foo=1", "plane=qq:1,2", "plane=conjugate:3", "plane=qp:1,1",
]
# potential tokens and descriptors, their bracket and coeffs in each wrong shape
FUZZ_POTENTIALS = [
    "harmonic", "quartic", "morse", "polynomial", "coeff=1", "omega=0", "omega=[1]", "D=null",
    "coeffs=[0,0,1]", "omega=nan", "a=0", "coeff=1e300", '{"kind":"polynomial","coeffs":[]}',
    "omega=1", "D=2", "a=1",
    "bracket=5", "bracket=[1]", "bracket=[1,2,3]", "bracket=[-1e400,1]", "bracket=[2,1]",
    "bracket=[true,1]", 'bracket="ab"', "bracket=null", "bracket={}", "bracket=[[1],2]",
    "bracket=[-1e200,1e200]",
    "coeffs=5", 'coeffs="ab"', "coeffs=[true]", "coeffs=null", "coeffs={}", "coeffs=[[1]]",
    '{"kind":"polynomial","coeffs":[0,0,1],"bracket":[1,2,3]}',
    '{"kind":"polynomial","coeffs":"ab"}', '{"kind":"polynomial","coeffs":[0,0,1],"bracket":null}',
    '{"kind":"polynomial","coeffs":5}',
]
FUZZ_SEPARABLE = [
    '[{"kind":"morse"}]', '[{"kind":"harmonic","omega":null}]',
    '[{"kind":"polynomial","coeffs":[0,0,1],"bracket":5}]',
    '[{"kind":"polynomial","coeffs":{"a":1}}]',
    '[{"kind":"polynomial","coeffs":null}]', '[{"kind":"harmonic","omega":2}]',
]
FUZZ_MATRICES = [
    '{"n":1,"matrix":[1,0,0]}', '{"n":1,"matrix":[NaN,0,0,1]}', '{"n":null,"matrix":[1,0,0,1]}',
    '{"n":1,"matrix":"abcd"}', '{"n":1,"matrix":[true,0,0,true]}', '{"n":0,"matrix":[]}',
    '{"n":-1,"matrix":[1,0,0,1]}', '{"n":1,"matrix":[1,0,0,1],"foo":1}', '{"n":1,"matrix":5}',
    '{"n":1,"matrix":[[1,0],[0,1]]}', '{"n":1,"matrix":null}', '{"n":1,"matrix":{}}',
    '{"n":1,"matrix":[1,null,0,false]}', '{"n":1,"matrix":[2,0,0,0.5]}', ".",
]
FUZZ_REGIONS = [
    '{"type":"ball"}', '{"type":"ball","radius":[1],"n":2}',
    '{"type":"cylinder","radius":1,"n":2,"axis":"x"}',
    '{"type":"cylinder","radius":1,"n":2,"plane":1}',
    '{"type":"ellipsoid","matrix":{"n":1,"matrix":[1,0,0,-1]},"energy":1}',
    '{"type":"ellipsoid","matrix":{"n":1,"matrix":[NaN,0,0,1]},"energy":1}',
    '{"type":"ellipsoid","matrix":[1,0,0,1],"energy":1}',
    '{"type":"ellipsoid","matrix":{"n":1,"matrix":[1,0,0,1]},"energy":NaN}',
    '{"type":"bottle","radius":1,"neck":0.5}',
]
FUZZ_OWN = {
    **dict.fromkeys(["--random", "--n", "--count", "--seed", "--samples", "--nmax", "--ndim"],
                    FUZZ_INTEGERS),
    **dict.fromkeys(["--sigma", "--radius", "--tol", "--dt", "--grid-cell", "--times", "--hbar",
                     "--omega", "--energy", "--value", "--neck"], FUZZ_REALS),
    **dict.fromkeys(["--ball", "--cylinder"], FUZZ_KEY_VALUES),
    **dict.fromkeys(["--matrix", "--matrix-file"], FUZZ_MATRICES),
    "--plane": FUZZ_PLANES, "--potential": FUZZ_POTENTIALS, "--potentials": FUZZ_SEPARABLE,
    "--region": FUZZ_REGIONS, "--format": ["json", "csv"],
}
FUZZ_VALUES = [*dict.fromkeys(value for pool in FUZZ_OWN.values() for value in pool),
               "{}", "[]", "null"]


@st.composite
def fuzz_argv(draw):
    base, options = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = list(base)
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):  # an option and a value; a value alone extends a list
            argv.append(draw(st.sampled_from(options + FUZZ_UNKNOWN)))
        # the value's kind is that of the last option before it
        option = next((a for a in reversed(argv) if a.startswith("--")), None)
        own = [st.sampled_from(FUZZ_OWN[option])] if option in FUZZ_OWN else []
        argv.append(draw(st.one_of(*own, st.sampled_from(FUZZ_VALUES))))
    return argv


# runs on the defaults of --sigma, --radius, --plane and --tol, which a
# fuzzed call overrides on its own namespace only
FUZZ_GOLDEN = ("shadow.json", ["shadow", "--random", "2", "--seed", "3"])


@functools.cache
def fuzz_golden_output():
    name, argv = FUZZ_GOLDEN
    code, out, _ = quiet_run(argv)
    assert code == 0 and golden_diff(read_golden(name), out) == []
    return out


CSV_HEADER = re.compile(r"[a-z]+(,[a-z]+)*")


def stdout_contract(code, out, err):
    """Why the stdout of one exit breaks the contract, or None: exit 0 prints
    one JSON object or one CSV table, exit 2 or 3 one JSON error object, and
    a usage error or --help (argparse's, on stderr) nothing."""
    if not out:
        return None if err.startswith("usage:") and code in (0, 2) else "nothing printed"
    if code == 0 and not out.startswith("{"):
        rows = list(csv.reader(io.StringIO(out)))
        if not (CSV_HEADER.fullmatch(out.split("\n", 1)[0]) and out.endswith("\n")
                and all(len(row) == len(rows[0]) for row in rows)):
            return "not one CSV table"
        if any(cell in ("inf", "-inf", "nan") for row in rows[1:] for cell in row):
            return "a non-finite CSV cell"
        return None
    if out.count("\n") != 1 or not out.endswith("\n"):
        return "not one line"
    obj = json.loads(out)  # raises on anything but one JSON value
    if not isinstance(obj, dict):
        return "not a JSON object"
    if code in (2, 3) and sorted(obj) != ["error", "message"]:
        return "not an error object"
    return None


@settings(max_examples=200, deadline=None)
@given(argv=fuzz_argv())
def test_fuzzed_argv_in_one_process(argv):
    """Any argv exits 0, 2 or 3 without raising, prints by the stdout
    contract, and leaves nothing behind in the shared parser: the golden
    argv run next prints the same bytes."""
    want = fuzz_golden_output()
    code, out, err = quiet_run(argv)
    assert code in (0, 2, 3)
    assert code == 2 or out or "-h" in argv  # a silent exit 0 is --help only
    assert stdout_contract(code, out, err) is None, (code, out, err)
    assert quiet_run(FUZZ_GOLDEN[1]) == (0, want, "")


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_contract_refuses_non_finite_csv_cell(cell):
    # `evolve --grid-cell inf` once printed this table with exit 0
    out = f"time,plane,area,bound,satisfied\n1,q1p1,{cell},3.1415926535897931,True\n"
    assert stdout_contract(0, out, "") == "a non-finite CSV cell"
    assert stdout_contract(0, out.replace(cell, "3.5"), "") is None


# One argv per subcommand that names every option of its parser, each with a
# value it takes (read only, never run).
ONE_MODE = '{"n":1,"matrix":[1,0,0,4]}'
EVERY_OPTION_ARGV = [
    ["capacity", "--ball", "R=1", "N=2", "--cylinder", "R=1", "N=2", "plane=conjugate:2",
     "--region", '{"type":"bottle","radius":1,"neck":0.5}', "--out", "o.json"],
    ["williamson", "--matrix", ONE_MODE, "--matrix-file", "m.json", "--out", "o.json"],
    ["shadow", "--matrix", ONE_MODE, "--matrix-file", "m.json", "--random", "2", "--sigma", "0.5",
     "--radius", "2", "--plane", "qq:1,2", "--seed", "3", "--tol", "1e-6", "--out", "o.json"],
    ["nonsqueeze-ensemble", "--n", "2", "--count", "3", "--sigma", "2", "--seed", "1",
     "--out", "o.json"],
    ["evolve", "--potential", "harmonic", "omega=1", "--radius", "0.5", "--dt", "0.01",
     "--samples", "10", "--grid-cell", "0.1", "--times", "0,1", "--plane", "conjugate:1",
     "--dump-points", "d", "--seed", "2", "--out", "o.csv"],
    ["quantize-1d", "--potential", "morse", "D=2", "a=1", "--nmax", "2", "--hbar", "0.5",
     "--format", "csv", "--out", "o.csv"],
    ["quantize-quadratic", "--matrix", ONE_MODE, "--matrix-file", "m.json", "--n", "0,1", "--hbar", "2",
     "--format", "csv", "--out", "o.csv"],
    ["quantize-separable", "--potentials", '[{"kind":"harmonic","omega":1}]', "--n", "1",
     "--hbar", "2", "--format", "json", "--out", "o.json"],
    ["dos", "--ndim", "2", "--omega", "2", "--energy", "4", "--matrix", ONE_MODE,
     "--matrix-file", "m.json", "--hbar", "1", "--out", "o.json"],
    ["blob-check", "--value", "3.14", "--tol", "0.1", "--hbar", "2", "--out", "o.json"],
    ["bottle-demo", "--radius", "2", "--neck", "1", "--out", "o.json"],
]
# argv that parse_args refuses or reads in a spelling other than the usual one
UNUSUAL_ARGV = [
    ["quantize-1d", "--potential", "harmonic"],  # a required option missing
    ["quantize-1d", "--potential", "harmonic", "--nmax", "1", "--format", "xml"],  # choices
    ["shadow", "--plane", "-x"],  # a value starting with "-"
    ["shadow", "--sigma", "-1"],
    ["capacity", "--ball", "R=1", "N=2", "--bogus"],
    ["capacity", "--region"],  # no value
    ["blob-check", "--value", "1", "2"],  # an extra value
    ["nonsqueeze-ensemble", "--n", "2", "--cou", "2"],  # an abbreviation
    ["blob-check", "--value=1"],
    ["nonsqueeze-ensemble", "--n", "x", "--count", "1"],  # the option's type refuses it
    ["shadow", "-h"],
]


def parse_args_or_exit(parser, argv):
    """parser.parse_args(argv), or None where argparse exits with a usage error or help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


def read_as_argparse(argv):
    """cli._read_argv on a command's argv: it declines or gives the namespace of
    parse_args, each value of the same type (2 is not 2.0), and it declines
    wherever argparse exits. Returns what it read."""
    parser = cli._parser().commands.get(argv[0])
    if parser is None:  # no command: the top-level parser reads it
        return None
    read, parsed = cli._read_argv(parser, argv[1:]), parse_args_or_exit(parser, argv[1:])
    if read is not None:
        assert parsed is not None, argv
        # repr tells int from float and str, lists by their items, and NaN from nothing
        assert {k: repr(v) for k, v in vars(read).items()} == {
            k: repr(v) for k, v in vars(parsed).items()}, argv
    return read


def test_every_option_argv_names_every_option():
    for argv in EVERY_OPTION_ARGV:
        parser = cli._parser().commands[argv[0]]
        options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert {a for a in argv if a.startswith("--")} == options, argv[0]


@pytest.mark.parametrize("argv", [argv for _, argv in GOLDEN_ARGV] + EVERY_OPTION_ARGV)
def test_reader_reads_usual_argv_as_parse_args(argv):
    assert read_as_argparse(argv) is not None


@pytest.mark.parametrize("argv", UNUSUAL_ARGV)
def test_reader_declines_unusual_argv(argv):
    assert read_as_argparse(argv) is None


@settings(max_examples=300, deadline=None)
@given(argv=fuzz_argv())
def test_reader_agrees_with_parse_args_on_fuzzed_argv(argv):
    read_as_argparse(argv)
