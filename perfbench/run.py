#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload sim_tagging --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds perfbench/ (the driver
binary, linked against the repository's own library) into the directory
named by $CARGO_TARGET_DIR, or .bench_build, then runs the workload. The
driver prints its report lines; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
(--trace 0) carry the end_to_end metrics of BENCHMARK.json, traced runs
(--trace 1) its per_layer metrics. A result whose metric names or units
differ from BENCHMARK.json is refused: the run then prints no result and
exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_tagging", "loopback_read", "gateway_http", "paper_pipeline")


def build():
    """Configures and builds the driver; returns its path."""
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bdir = os.path.join(out, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def declared(trace):
    """Metric name -> unit that BENCHMARK.json declares for this run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    """Returns the list of ways \\p result breaks the declared metric set."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append("missing key " + key)
    metrics = result.get("metrics", {})
    want = declared(trace)
    for name, unit in want.items():
        if name not in metrics:
            problems.append("missing metric " + name)
        elif metrics[name].get("unit") != unit:
            problems.append("metric %s has unit %r, declared %r"
                            % (name, metrics[name].get("unit"), unit))
    for name in metrics:
        if name not in want:
            problems.append("unknown metric " + name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: the driver printed no result (exit %d)" % proc.returncode)
    problems = check(result, args.trace)
    if problems:
        sys.exit("perfbench: result refused: " + "; ".join(problems))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
