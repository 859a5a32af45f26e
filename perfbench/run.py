#!/usr/bin/env python3
"""Build and run the service benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady [--runs R] [--seconds S] [--first-seed N]

Run from the root of a checkout.  The first form builds
perfbench/bench.exe with dune (incrementally) and runs one workload; the
last line of standard output is the result object.  The second form is the
steadiness mode: it runs every workload BENCHMARK.json names R times,
alternating their order, each run on its own seed, and prints the median
and interquartile range of every end-to-end metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["check-stream", "reason-mix", "edit-session", "http-pipelined", "reason-race"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("%s not found: run from the root of a checkout of the repository" % need)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("the build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("the build failed")


# http-pipelined's client and server domain hand every burst back and
# forth; on one CPU they no longer wait on each other's wake-ups across
# CPUs, which made its figures follow the host's other load (README,
# "Steadiness").
ONE_CPU = {"http-pipelined"}


def run_once(workload, seed, seconds, trace, capture):
    """Runs bench.exe once; returns its last stdout line (capture) or its exit code."""
    args = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--spawn-ns", str(time.monotonic_ns())]
    pin = None
    if workload in ONE_CPU and hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    proc = subprocess.Popen(args, stdout=subprocess.PIPE if capture else None, preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    if not capture:
        return 0
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("%s printed no result" % workload)
    return json.loads(lines[-1])


def steady(runs, seconds, first_seed):
    with open("BENCHMARK.json") as f:
        gated = [w["name"] for w in json.load(f)["workloads"]]
    results = {w: [] for w in gated}
    for i in range(runs):
        order = gated if i % 2 == 0 else list(reversed(gated))
        for w in order:
            t0 = time.monotonic()
            res = run_once(w, first_seed + i, seconds, 0, capture=True)
            results[w].append(res)
            print("run %d %s (%.1f s): %s" % (i, w, time.monotonic() - t0, json.dumps(res)),
                  file=sys.stderr, flush=True)
    summary = {}
    for w in gated:
        rows = {}
        for name in results[w][0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results[w]]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            rows[name] = {"median": med, "q1": q[0], "q3": q[2],
                          "iqr_share": (q[2] - q[0]) / med if med else 0.0,
                          "unit": results[w][0]["metrics"][name]["unit"]}
        summary[w] = {"runs": len(results[w]),
                      "attempted": [r["attempted"] for r in results[w]],
                      "failed": [r["failed"] for r in results[w]],
                      "correct": all(r["correct"] for r in results[w]),
                      "metrics": rows}
        print("%s" % w)
        for name, row in rows.items():
            print("  %-22s median %12.4f %-6s IQR/median %.3f" %
                  (name, row["median"], row["unit"], row["iqr_share"]))
    print(json.dumps(summary))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    build()
    if a.steady:
        steady(a.runs, a.seconds, a.first_seed)
        return
    if a.workload is None or a.seed is None:
        fail("--workload and --seed are required")
    sys.exit(run_once(a.workload, a.seed, a.seconds, a.trace, capture=False))


if __name__ == "__main__":
    main()
