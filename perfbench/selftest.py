"""The benchmark's own tests. Kept out of the repository's test suite, so
run them explicitly from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They run every workload three times for about a second each.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, build  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNTS = re.compile(r"(\.calls|V_calls|V_points|calls_per_level|ebk\.levels|spans_per_pass)$")


def run_bench(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [result(run_bench(w, 1)) for _ in range(2)] for w in WORKLOADS}


def test_metric_names_and_units():
    declared = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for m in declared:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)


def test_seed_changes_inputs_not_request_count():
    for w in WORKLOADS:
        a, b = build(w, 1), build(w, 2)
        assert [r.argv for r in a] != [r.argv for r in b]
        assert [r.check for r in a] == [r.check for r in b]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    res = result(run_bench(workload, 0))
    assert res["correct"] is True
    assert res["attempted"] == len(build(workload, 7))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload, traced_twice):
    first, second = traced_twice[workload]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    counts = [k for k in first["metrics"] if COUNTS.search(k)]
    assert len(counts) > 20
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_separation(workload, traced_twice):
    m = traced_twice[workload][0]["metrics"]
    assert m["trace.separation_violations"]["value"] == 0
    if workload != "ebk-spectra":
        assert m["ebk.turning_points.calls"]["value"] == 0
    if workload != "shadow-flow":
        assert m["shadows.evolve_ball_shadow.calls"]["value"] == 0
    else:
        assert m["core.williamson.calls"]["value"] == 0


def test_refuses_without_sources():
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench("linear-ensemble", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_only_known_defects_keep_the_run_correct():
    from checks import judge

    shadow = {"radius": 1.0, "j": 1, "n": 1, "sigma": 3.0}
    tol_exit = json.dumps({"error": "InvalidInput",
                           "message": "symplectic defect 2.1e-08 exceeds tolerance 1.000e-09"})
    assert judge("conjugate_shadow", shadow, 2, tol_exit)[:2] == (True, False)
    assert judge("williamson", {}, 2, tol_exit)[:2] == (True, True)
    assert judge("conjugate_shadow", shadow, 2, '{"error": "InvalidInput", "message": "x"}'
                 )[:2] == (True, True)
    assert judge("conjugate_shadow", shadow, -1, "Traceback ...")[:2] == (True, True)
    short = json.dumps({"plane": "q1p1", "area": 3.0, "bound": 3.141592653589793,
                        "satisfied": False, "method": "exact-ellipse"})
    assert judge("conjugate_shadow", shadow, 0, short)[:2] == (True, False)
    assert judge("conjugate_shadow", dict(shadow, sigma=1.0), 0, short)[:2] == (True, True)
    assert judge("conjugate_shadow", dict(shadow, n=2), 0, short)[:2] == (True, True)
