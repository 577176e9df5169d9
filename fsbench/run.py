#!/usr/bin/env python3
"""FS-Join benchmark: builds the harness and runs one workload.

Run from the repository root:

    python3 fsbench/run.py --workload email-cluster --seed 1 --seconds 45 --trace 0

The first call configures and builds fsbench/ (and the library sources it
links) into $CARGO_TARGET_DIR/fsbench, default .bench_build/fsbench; later
calls only re-check the build. The harness generates the workload's corpus
from --seed, loads it, runs FS-Join for --seconds and checks every join
against the serial PPJoin oracle. This script prints the metrics that
BENCHMARK.json names for the mode (end_to_end with --trace 0, per_layer with
--trace 1) by name and unit, then one JSON line: correct, attempted, failed
and metrics. It exits non-zero, without a result line, when the build or the
run fails, and non-zero after the result line when any join's digest
differed from the oracle. --trace 1 also writes a Chrome trace-event file
under <build dir>/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BENCHMARK.json gates pubmed-rs-auto and email-cluster. wiki-self, the
# COST yardstick, runs the same way but is not gated: host memory
# contention spreads its inline join's run medians nearly as wide as the
# largest bound allowed (see README.md).
WORKLOADS = ("wiki-self", "pubmed-rs-auto", "email-cluster")
DEFAULT_SEED = 1
# Beyond --seconds: set-up, the oracle and the join in flight at the
# deadline. A run that takes longer is treated as hung.
RUN_SLACK_S = 120


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "fsbench")


def build(out):
    """Configures (once) and builds the harness; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "fsbench"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the result stream.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("fsbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "fsbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="record-count multiplier (smoke runs use < 1)")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    declared = declared_metrics(args.trace)

    data_dir = os.path.join(out, "run-%d" % os.getpid())
    os.makedirs(data_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--data-dir", data_dir]
    if args.trace:
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s.seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print("fsbench: run exceeded %gs" % (args.seconds + RUN_SLACK_S), file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("fsbench: harness exited %d without a result" % proc.returncode, file=sys.stderr)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    measured = result["metrics"]

    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print("fsbench: harness did not report %s in %s" % (m["name"], m["unit"]),
                  file=sys.stderr)
            return 5
        metrics[m["name"]] = got
    print("# %s seed=%d trace=%d: %d measured joins" % (
        args.workload, args.seed, args.trace, measured["join_s.samples"]["value"]))
    for name, m in metrics.items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
