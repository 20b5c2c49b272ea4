import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympcap import cli, ebk, shadows
from sympcap.cli import run


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
# (2.2e-16, 2 eps relative) and the actions by 1 ULP. `ebk._solve_level`
# now stops at a Newton step of 4 ULP; here it lands within 1 ULP of the
# golden energies and 4 ULP of the golden actions. 64 eps (1.4e-14) is at
# least 16 times either. The absolute floor covers values that are pure
# rounding noise, such as the Williamson residual of 2.2e-16.
GOLDEN_FLOAT_TOL = 64 * sys.float_info.epsilon

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
        code, out = invoke(capsys, "capacity", "--cylinder", "j=2", "R=2", "N=3")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(4 * math.pi)

    def test_ellipsoid_region(self, capsys):
        region = {"type": "ellipsoid",
                  "matrix": {"n": 1, "matrix": [1.0, 0.0, 0.0, 4.0]},
                  "energy": 1.0}
        code, out = invoke(capsys, "capacity", "--region", json.dumps(region))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi)

    def test_nonconjugate_cylinder_exit_3(self, capsys):
        code, out = invoke(capsys, "capacity", "--cylinder", "j=1", "R=1", "N=2", "plane=qq")
        assert code == 3
        assert json.loads(out)["error"] == "UnsupportedRegion"

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
        # the scan cannot resolve a well this narrow: the bottom lands far above the
        # ground state, and the solver must stop at its evaluation cap, not loop
        action_period, calls = ebk._action_period, []
        monkeypatch.setattr(ebk, "_action_period",
                            lambda *args: calls.append(1) or action_period(*args))
        code, out = invoke(capsys, "quantize-1d", "--potential", "quartic", "coeff=1e300",
                           "--nmax", "1")
        assert code in (0, 3)
        assert len(calls) <= 2 * ebk._MAX_EVALUATIONS
        if code == 3:
            assert json.loads(out)["error"] == "NoConvergence"

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

    def test_blob_check(self, capsys):
        code, out = invoke(capsys, "blob-check", "--value", str(3 * math.pi))
        assert code == 0
        assert json.loads(out) == {"blob_index": 1, "is_blob": True}

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
        assert dumped.shape == (1000, 2)


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["dos", "--ndim", "0", "--energy", "1"],
        ["evolve", "--potential", "harmonic", "omega=1", "--samples", "0"],
        ["quantize-1d", "--potential", "quartic", "coeff=-1", "--nmax", "1"],
        ["nonsqueeze-ensemble", "--n", "2", "--count", "0"],
        ["nonsqueeze-ensemble", "--n", "2", "--count", "-3"],
        ["bottle-demo", "--neck", "2"],
        ["capacity", "--region", '{"type": "bottle", "radius": 1, "neck": 2}'],
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

    @pytest.mark.parametrize("argv", [
        ["capacity", "--ball", "R=1e200", "N=2"],
        ["capacity", "--ball", "R=nan", "N=2"],
        ["shadow", "--random", "2", "--radius", "1e200"],
        ["dos", "--energy", "1e308", "--ndim", "3"],
    ])
    def test_not_finite(self, capsys, argv):
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": "result is not finite"}

    @pytest.mark.parametrize("argv,message", [
        (["shadow", "--random", "2", "--sigma", "nan"], "need sigma > 0, got nan"),
        (["nonsqueeze-ensemble", "--n", "2", "--count", "3", "--sigma", "nan"],
         "need sigma > 0, got nan"),
        (["shadow", "--matrix", '{"n": 1, "matrix": [NaN, 0, 0, NaN]}'],
         "symplectic defect nan exceeds tolerance 1.000e-10"),
        (["quantize-1d", "--potential", "harmonic", "--nmax", "1", "--hbar", "nan"],
         "hbar must be positive, got nan"),
        (["capacity", "--region",
          '{"type": "ellipsoid", "matrix": {"n": 1, "matrix": [NaN, 0, 0, 1]}, "energy": 1}'],
         "matrix entries must be finite"),
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
         "polynomial coefficient must be finite, got nan"),
        (["harmonic", "omega=nan"], "harmonic omega must be finite and positive, got nan"),
        (["harmonic", "omega=inf"], "harmonic omega must be finite and positive, got inf"),
        (["morse", "a=-1"], "morse a must be finite and positive, got -1.0"),
        (["quartic", "coeff=inf"], "quartic coeff must be finite, got inf"),
        (["harmonic", "omega=1", "mass=0"], "mass must be finite and positive, got 0.0"),
        (["quartic", "mass=nan"], "mass must be finite and positive, got nan"),
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
    ])
    def test_wrong_shaped_json(self, capsys, argv, message):
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "InvalidInput", "message": message}

    @pytest.mark.parametrize("argv", [
        ["capacity", "--ball", "R=1", "N=3", "--tol", "1e-3"],
        ["williamson", "--matrix", '{"n":1,"matrix":[1,0,0,4]}', "--seed", "1"],
        ["bottle-demo", "--format", "csv"],
    ])
    def test_unread_options_rejected(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

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


class TestGoldenFiles:
    @pytest.mark.parametrize("name,argv", [
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
    ])
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


class TestSharedParser:
    def test_one_parser_for_every_call(self, capsys, monkeypatch):
        used = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            used.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        assert invoke(capsys, "capacity", "--ball", "R=1", "N=3")[0] == 0
        assert invoke(capsys, "blob-check", "--value", "1")[0] == 0
        assert len(used) == 2 and used[0] is used[1]

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
    (["williamson", "--matrix", '{"n":1,"matrix":[1,0,0,4]}'], ["--matrix"]),
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
     ["--ndim", "--omega", "--mass", "--energy", "--matrix", "--numeric", "--hbar"]),
    (["blob-check", "--value", "3.14"], ["--value", "--tol", "--hbar"]),
    (["bottle-demo", "--neck", "0.5"], ["--radius", "--neck"]),
    (["frobnicate"], []),
]
FUZZ_UNKNOWN = ["--bogus", "-h"]
FUZZ_VALUES = [
    "0", "1", "2", "-1", "0.5", "-0.5", "1e-3", "1e308", "nan", "inf", "-inf", "x", "",
    "R=1", "N=2", "R=-1", "N=0", "R=nan", "R=[1]", "N=null", "j=3", "plane=qq",
    "conjugate:1", "qq:1,2", "qp:2", "pp:1,1", "0,1", "1,2",
    "harmonic", "quartic", "morse", "polynomial", "coeff=1", "omega=0", "omega=[1]", "D=null",
    "coeffs=[0,0,1]", "json", "csv", "{}", "[]", "null",
    '{"type":"ball"}', '{"type":"ball","radius":[1],"n":2}',
    '{"type":"cylinder","radius":1,"n":2,"axis":"x"}',
    '{"type":"ellipsoid","matrix":{"n":1,"matrix":[1,0,0,-1]},"energy":1}',
    '{"type":"ellipsoid","matrix":{"n":1,"matrix":[NaN,0,0,1]},"energy":1}',
    '{"n":1,"matrix":[1,0,0]}', '{"n":1,"matrix":[NaN,0,0,1]}', '{"n":null,"matrix":[1,0,0,1]}',
    '[{"kind":"morse"}]', '[{"kind":"harmonic","omega":null}]',
    "omega=nan", "a=0", "coeff=1e300", '{"kind":"polynomial","coeffs":[]}',
]


@st.composite
def fuzz_argv(draw):
    base, options = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = list(base)
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):  # an option and a value; a value alone extends a list
            argv.append(draw(st.sampled_from(options + FUZZ_UNKNOWN)))
        argv.append(draw(st.sampled_from(FUZZ_VALUES)))
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
