"""sympcap benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload linear-ensemble --seed 1 --seconds 25 --trace 0

The workload's request list is generated from --seed. A fresh Python
process (worker.py) imports sympcap from ./src and sends the requests
through ``sympcap.cli.run`` one at a time, repeating the list for
--seconds. Outputs are checked here, after the worker has exited. With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy

import checks
from calibrate import speed_factor
from workloads import WORKLOADS, build

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
IMPORT_MODULES = ("sympcap", "numpy", "scipy.linalg", "scipy.optimize", "scipy.stats")

# The separation check: functions each workload must bypass, and the ones
# it is meant to exercise (every traced function appears in some list).
MUST_BYPASS = {
    "shadow-flow": ("ebk.turning_points", "core.williamson"),
    "ebk-spectra": ("shadows.evolve_ball_shadow",),
    "linear-ensemble": ("ebk.turning_points", "shadows.evolve_ball_shadow"),
}
EXERCISES = {
    "shadow-flow": ("cli.run", "cli.cmd_evolve", "sampling.ball_points",
                    "shadows.evolve_ball_shadow", "shadows.grid_shadow_area", "ebk.potential.V"),
    "ebk-spectra": ("cli.run", "cli.cmd_quantize_1d", "cli.cmd_quantize_separable",
                    "ebk.turning_points", "ebk.action_integral", "ebk.spectrum_1d",
                    "ebk.spectrum_separable", "ebk.potential.V"),
    "linear-ensemble": ("cli.run", "cli.cmd_capacity", "cli.cmd_williamson", "cli.cmd_shadow",
                        "cli.cmd_nonsqueeze", "cli.cmd_bottle_demo", "sampling.ball_points",
                        "sampling.box_points", "core.williamson", "core.symplectic_eigenvalues",
                        "core.random_symplectic", "capacity.capacity_ellipsoid",
                        "capacity.capacity_sandwich", "shadows.nonsqueeze_ensemble",
                        "shadows.linear_shadow_area"),
}

# Per-layer rate suffixes: (seconds summed, divided by, scale, unit). "work"
# is the span's own unit: points drawn, particle-steps or ensemble members.
RATES = {
    "us_per_call": ("total_s", "calls", 1e6, "us"),
    "ms_per_call": ("total_s", "calls", 1e3, "ms"),
    "self_us": ("self_s", "calls", 1e6, "us"),
    "self_ms": ("self_s", "calls", 1e3, "ms"),
    "ns_per_point": ("total_s", "work", 1e9, "ns"),
    "us_per_member": ("total_s", "work", 1e6, "us"),
}

# Per-layer figures from the ROADMAP baseline table (2 cores, Python 3.11,
# OpenBLAS; library calls timed ad hoc). Reported as ratios, never gated.
BASELINE = {
    "shadows.particle_step_ns": 2.5,  # analytic q^3 force, library path
    "shadows.grid_shadow_area.ns_per_point": 151e6 / 1e5,
    "core.williamson.us_per_call": 387.0,  # N = 3
    "core.symplectic_eigenvalues.us_per_call": 64.0,
    "ebk.turning_points.us_per_call": 475.0,
    "ebk.action_integral.us_per_call": 528.0,
    "shadows.nonsqueeze_ensemble.us_per_member": 410.0,  # n = 3
}


def fail(msg: str, code: int) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def environment(root: str) -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def probe(cmd, env):
    """(wall seconds of a fresh process, speed factor around it, its stderr)."""
    before = speed_factor("interp")
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=20)
    elapsed = perf_counter() - t0
    speed = 0.5 * (before + speed_factor("interp"))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr.strip()[-500:]}")
    return elapsed, speed, proc.stderr


def import_times(env) -> dict:
    """Median normalized cumulative import time per module from -X importtime, ms."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_PROBES):
        _, speed, err = probe([sys.executable, "-X", "importtime", "-c", "import sympcap"], env)
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1000.0 / speed)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def judge_outcomes(requests, outcomes):
    """(indices of failed requests, wrong output count, reasons)."""
    failed, wrong = [], 0
    reasons = []
    for i, (req, seen) in enumerate(zip(requests, outcomes)):
        verdicts = [checks.judge(req.check, req.params, rc, out) for rc, out, _ in seen]
        if len(seen) > 1:
            verdicts.append((True, True, "output differs between passes"))
        bad = [v for v in verdicts if v[0]]
        wrong += any(v[1] for v in verdicts)
        if bad:
            failed.append(i)
            reasons.append(f"request {i} ({' '.join(req.argv[:2])}): {bad[0][2]}")
    return failed, wrong, reasons


def end_to_end(passes, failed, seconds, setup, rss_mb, ok_frac, tail_pct):
    """A failed request misses every latency limit: in the percentiles it
    counts as taking the whole run, longer than any request that answers."""
    is_failed = np.isin(np.arange(len(passes[0]["lat_s"])), failed)
    lat_ms = np.concatenate([np.where(is_failed, seconds, np.asarray(p["lat_s"]) / p["speed"])
                             for p in passes]) * 1e3
    return {
        "wall_s": (statistics.median(p["wall_s"] / p["speed"] for p in passes), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_ok_frac": (ok_frac, "fraction"),
        "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_tail_ms": (float(np.percentile(lat_ms, tail_pct)), "ms"),
    }


def per_layer(workload, trace, plain, traced, imports):
    P = len(traced)
    speed = statistics.median(p["speed"] for p in traced)
    agg = {name: dict(v, total_s=v["total_s"] / speed, self_s=v["self_s"] / speed)
           for name, v in trace["agg"].items()}

    def a(name, key):
        return agg.get(name, {}).get(key, 0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    def calls(name):
        return a(name, "calls") / P

    cli_self = a("cli.run", "self_s") + sum(v["self_s"] for k, v in agg.items()
                                            if k.startswith("cli.cmd_"))
    levels = a("ebk.spectrum_1d", "work") + a("ebk.spectrum_separable", "work")
    level_s = a("ebk.spectrum_1d", "total_s") + a("ebk.spectrum_separable", "total_s")
    wall_plain = statistics.median(p["wall_s"] / p["speed"] for p in plain)
    wall_traced = statistics.median(p["wall_s"] / p["speed"] for p in traced)
    m = {
        "cli.run.calls": (calls("cli.run"), "count"),
        "cli.run.self_ms": (ratio(cli_self, a("cli.run", "calls"), 1e3), "ms"),
    }
    for mod in IMPORT_MODULES:
        m["setup.import_ms." + mod.replace(".", "_")] = (imports[mod], "ms")
    for name in ("sampling.ball_points", "sampling.box_points", "core.williamson",
                 "core.symplectic_eigenvalues", "core.random_symplectic",
                 "capacity.capacity_ellipsoid", "capacity.capacity_sandwich",
                 "shadows.evolve_ball_shadow", "shadows.grid_shadow_area",
                 "shadows.nonsqueeze_ensemble", "shadows.linear_shadow_area",
                 "ebk.turning_points", "ebk.action_integral", "ebk.spectrum_1d",
                 "ebk.spectrum_separable"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name, rate in (
        ("sampling.ball_points", "ns_per_point"), ("sampling.box_points", "ns_per_point"),
        ("core.williamson", "us_per_call"), ("core.symplectic_eigenvalues", "us_per_call"),
        ("core.random_symplectic", "us_per_call"), ("capacity.capacity_ellipsoid", "self_us"),
        ("capacity.capacity_sandwich", "self_ms"), ("shadows.grid_shadow_area", "ms_per_call"),
        ("shadows.grid_shadow_area", "ns_per_point"),
        ("shadows.nonsqueeze_ensemble", "us_per_member"),
        ("shadows.linear_shadow_area", "us_per_call"), ("ebk.turning_points", "us_per_call"),
        ("ebk.action_integral", "self_us"),
    ):
        t, den, scale, unit = RATES[rate]
        m[f"{name}.{rate}"] = (ratio(a(name, t), a(name, den), scale), unit)
    m["shadows.particle_step_ns"] = (
        ratio(a("shadows.evolve_ball_shadow", "self_s"),
              a("shadows.evolve_ball_shadow", "work"), 1e9), "ns")
    m["ebk.action_integral.calls_per_level"] = (
        ratio(a("ebk.action_integral", "calls"), levels, 1.0), "count")
    m["ebk.levels"] = (levels / P, "count")
    m["ebk.ms_per_level"] = (ratio(level_s, levels, 1e3), "ms")
    m["ebk.potential.V_calls"] = (trace["V_calls"] / P, "count")
    m["ebk.potential.V_points"] = (trace["V_points"] / P, "count")
    m["trace.spans_per_pass"] = (trace["spans"] / P, "count")
    m["trace.wall_s_untraced"] = (wall_plain, "s")
    m["trace.wall_s_traced"] = (wall_traced, "s")
    m["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    m["trace.speed_factor"] = (speed, "ratio")

    seen = {k: v["calls"] for k, v in agg.items()}
    seen["ebk.potential.V"] = trace["V_calls"]
    violations = [f"{n} called on {workload}" for n in MUST_BYPASS[workload] if seen.get(n)]
    violations += [f"{n} not called on {workload}" for n in EXERCISES[workload]
                   if not seen.get(n)]
    m["trace.separation_violations"] = (len(violations), "count")

    measured = {k: v for k, (v, _) in m.items()}
    measured["ebk.action_integral.us_per_call"] = ratio(
        a("ebk.action_integral", "total_s"), a("ebk.action_integral", "calls"), 1e6)
    ratios = {k: round(measured[k] / base, 3) for k, base in BASELINE.items() if measured[k]}
    return m, violations, ratios


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sympcap", "cli.py")):
        return fail("no sympcap sources under ./src; run from the repository root", 2)

    # One core for this process and its children, so the reference task
    # and the work it normalizes run on the same CPU.
    env_info = environment(root)
    env_info["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env_info["pinned_cpu"]})
    workload = WORKLOADS[args.workload]
    requests = build(args.workload, args.seed)
    # One BLAS thread: the matrices are at most 20 x 20, and a second
    # OpenBLAS thread competing for a shared core slows them many-fold.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = {"src": src, "argvs": [list(r.argv) for r in requests],
           "seconds": args.seconds, "trace": args.trace, "reference": workload.reference}

    try:
        speed_factor("interp")  # warm up the reference task once
        if args.trace:
            imports = import_times(env)
        else:
            probes = [probe([sys.executable, "-c", "import sympcap"], env)
                      for _ in range(SETUP_PROBES)]
            setup = statistics.median(t / speed for t, speed, _ in probes)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(job), capture_output=True, text=True, env=env,
                              cwd=root, timeout=args.seconds + 60)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc), 3)
    if proc.returncode != 0:
        return fail(f"worker failed:\n{proc.stderr.strip()[-2000:]}", 3)
    res = json.loads(proc.stdout)

    failed, wrong, reasons = judge_outcomes(requests, res["outcomes"])
    passes = res["passes"]
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}[args.workload]
    speeds = [p["speed"] for p in passes]
    info = {"workload": args.workload, "why": why, "seed": args.seed,
            "seconds": args.seconds, "requests_per_pass": len(requests),
            "passes": len(passes), "failed_requests": reasons[:10],
            "speed_factor": [min(speeds), statistics.median(speeds), max(speeds)],
            "raw_wall_s": statistics.median(p["wall_s"] for p in passes)}
    if args.trace:
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        metrics, violations, ratios = per_layer(args.workload, res["trace"], plain, traced,
                                                imports)
        info.update(traced_passes=len(traced), separation_violations=violations,
                    crosscheck_vs_roadmap_baseline=ratios)
    else:
        metrics = end_to_end(passes, failed, args.seconds, setup, res["peak_rss_mb"],
                             1 - len(failed) / len(requests), workload.tail_pct)
        n_lat = len(requests) * len(passes)
        info.update(latency_samples=n_lat, tail_pct=workload.tail_pct,
                    beyond_tail=int(n_lat * (1 - workload.tail_pct / 100)),
                    raw_setup_s=statistics.median(t for t, _, _ in probes))
    info["environment"] = dict(env_info, blas_threads=res["blas_threads"])

    result = {"correct": wrong == 0, "attempted": len(requests), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    for k, (v, u) in metrics.items():
        print(f"{k:45s} {v:14.6g} {u}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
