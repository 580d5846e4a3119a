#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its result.

usage: python3 e2e/run.py --workload W --seed N --seconds S --trace 0|1

Builds e2e/e2e.exe from source in the release profile, runs the workload
in its own process, and prints the benchmark's output followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.  The metric
names and units come from BENCHMARK.json: its end_to_end metrics
without tracing, its per_layer metrics with --trace 1.

A traced run is two processes of S/2 seconds each: one untraced, one
traced.  The per-layer metrics come from the traced one;
trace.overhead_pct compares their ops_per_s.  Outputs, including the
Perfetto trace, go to .e2e/ at the repository root.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "e2e", "e2e.exe")
OUT = os.path.join(ROOT, ".e2e")
WORKLOADS = ["router-churn", "install-storm", "sim-hot", "codegen"]


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release", "--cache", "disabled",
           "--display", "quiet", "./e2e/e2e.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed (exit %d)" % r.returncode)


def run_e2e(workload, seed, seconds, trace=None):
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-%d%s" % (workload, seed, "-traced" if trace else "")
    out = os.path.join(OUT, tag + ".json")
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--json", out]
    if trace:
        cmd += ["--trace", os.path.join(OUT, tag + ".trace.json")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=170, stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("%s: %s" % (workload, e))
    sys.stdout.write(r.stdout)
    if r.returncode != 0:
        die("%s exited with %d" % (workload, r.returncode))
    with open(out) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    if a.trace:
        plain = run_e2e(a.workload, a.seed, a.seconds / 2)
        res = run_e2e(a.workload, a.seed, a.seconds / 2, trace=True)
        base = plain["metrics"]["ops_per_s"]
        traced = res["metrics"]["ops_per_s"]
        res["metrics"]["trace.overhead_pct"] = (base - traced) / base * 100 if base else None
        runs = [plain, res]
        wanted = spec["per_layer"]
    else:
        res = run_e2e(a.workload, a.seed, a.seconds)
        runs = [res]
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        v = res["metrics"].get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            die("%s: metric %s missing or not finite" % (a.workload, m["name"]))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
