"""Closed-loop client: one fresh process running a workload's requests.

Reads a job from stdin: the request argv lists, the seconds to run, the
reference task and whether to trace. Imports sympcap from the checkout's
``src``, then sends the requests one after another through
``sympcap.cli.run``, repeating the whole list (a pass) until the time is
used up. Every pass completes, so each pass has the same request mix. The
reference task of calibrate.py runs between and within passes, so each
pass carries the machine's speed factor. Writes the timings and the
distinct outputs of each request as one JSON object to stdout.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from calibrate import speed_factor

# The machine's speed drifts within a pass, so the reference task is
# sampled this often (seconds of request time) rather than only between
# passes; at 20 to 25 ms a run this costs some 5% of the run.
REFERENCE_EVERY_S = 0.5


def blas_threads():
    """OpenBLAS thread count of this process, or None if it cannot be read."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return fn()
    return None


def run_passes(cli, argvs, seconds, outcomes, kind, tracer=None):
    """Whole passes until `seconds` have elapsed; at least one.

    A pass's time is the sum of its request latencies. The reference task
    runs at each pass boundary and after every REFERENCE_EVERY_S of
    requests; the pass's speed factor is the mean of those runs.
    """
    passes = []
    start = perf_counter()
    speeds = [speed_factor(kind)]
    while not passes or perf_counter() - start < seconds:
        lat = []
        since_ref = 0.0
        for i, argv in enumerate(argvs):
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.run(list(argv))
                except Exception:  # a traceback is a failed request, not a crashed run
                    rc, err = -1, io.StringIO(traceback.format_exc())
            lat.append(perf_counter() - t0)
            key = (rc, out.getvalue() or err.getvalue())
            outcomes[i][key] = outcomes[i].get(key, 0) + 1
            since_ref += lat[-1]
            if since_ref >= REFERENCE_EVERY_S and i + 1 < len(argvs):
                speeds.append(speed_factor(kind))
                since_ref = 0.0
        speeds.append(speed_factor(kind))
        passes.append({"wall_s": sum(lat), "lat_s": lat, "traced": tracer is not None,
                       "speed": sum(speeds) / len(speeds)})
        speeds = speeds[-1:]
    return passes


def main():
    job = json.load(sys.stdin)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    import sympcap.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"sympcap imported from {cli.__file__}, not from {src}")

    kind = job["reference"]
    speed_factor(kind)  # warm up the reference task once
    argvs = job["argvs"]
    outcomes = [{} for _ in argvs]
    result = {}
    if job["trace"]:
        from tracer import Tracer

        half = job["seconds"] / 2.0
        passes = run_passes(cli, argvs, half, outcomes, kind)
        tracer = Tracer()
        tracer.install()
        passes += run_passes(cli, argvs, half, outcomes, kind, tracer)
        result["trace"] = {"agg": tracer.aggregate(), "V_calls": tracer.v_calls,
                           "V_points": tracer.v_points, "spans": len(tracer.spans)}
    else:
        passes = run_passes(cli, argvs, job["seconds"], outcomes, kind)
    result["passes"] = passes
    result["blas_threads"] = blas_threads()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["outcomes"] = [[[rc, out, n] for (rc, out), n in o.items()] for o in outcomes]
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
