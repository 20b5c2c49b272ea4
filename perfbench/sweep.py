"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 15 [--trace 1] [--workload NAME ...]

For every workload and metric it prints the values, their median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json. With one seed it is the
one command that prints every metric of every workload by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append",
                    default=None, choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    worst = 0.0
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        values, units = {}, {}
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
        for k, vals in values.items():
            med = statistics.median(vals)
            spread = 0.0
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            bound = bounds.get(k)
            if bound and k != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {w:16s} {k:42s} {med:12.6g} {units[k]:8s} spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound else "")
                  + ("" if len(vals) < 2 else "  " + " ".join(f"{v:.5g}" for v in vals)),
                  flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
