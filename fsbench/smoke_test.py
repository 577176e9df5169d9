#!/usr/bin/env python3
"""Smoke test of the FS-Join benchmark at tiny scale.

Run from the repository root:

    python3 fsbench/smoke_test.py

Runs every workload run.py knows (BENCHMARK.json's and wiki-self) at 5%
of its record count for half a second, untraced and traced, through
fsbench/run.py (which builds the harness first), and checks that:
  * every run exits 0 with correct = true and no failed join;
  * every metric BENCHMARK.json names for the mode is reported, with its
    unit, and no other;
  * core.driver_s >= 0: the job walls never exceed the FsJoin::Run wall;
  * the traced run's Chrome trace nests: every span lies inside its
    parent's interval and keeps its parent's join id, and every FsJoin::Run
    span has its three derived job spans.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import run  # noqa: E402  (build_dir, WORKLOADS)

SCALE = "0.05"
SECONDS = "0.5"
SEED = "7"


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run_bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("%s trace=%d exited %d" % (workload, trace, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload, trace, result, declared):
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s trace=%d: not correct: %s" % (workload, trace, result))
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("%s trace=%d: metric set/units differ: missing %s, extra %s" % (
            workload, trace, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, name))


def check_trace(workload):
    path = os.path.join(run.build_dir(), "traces", "%s.seed%s.json" % (workload, SEED))
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_id = {e["args"]["span_id"]: e for e in events}
    for e in events:
        parent_id = e["args"]["parent"]
        if parent_id == 0:
            continue
        p = by_id.get(parent_id)
        if p is None:
            fail("%s: span %s has no parent %d" % (workload, e["name"], parent_id))
        if e["ts"] < p["ts"] or e["ts"] + e["dur"] > p["ts"] + p["dur"]:
            fail("%s: span %s [%d,+%d] escapes %s [%d,+%d]" % (
                workload, e["name"], e["ts"], e["dur"], p["name"], p["ts"], p["dur"]))
        if p["args"]["join_id"] and e["args"]["join_id"] != p["args"]["join_id"]:
            fail("%s: span %s left the join of %s" % (workload, e["name"], p["name"]))
    runs = [e for e in events if e["name"] == "FsJoin::Run"]
    if not runs:
        fail("%s: no FsJoin::Run span" % workload)
    for r in runs:
        jobs = [e for e in events if e["args"]["parent"] == r["args"]["span_id"]
                and e["args"]["derived"]]
        if len(jobs) != 3:
            fail("%s: FsJoin::Run span has %d derived job spans" % (workload, len(jobs)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(run.WORKLOADS):
        fail("BENCHMARK.json workloads %s not all in run.py %s" % (names, run.WORKLOADS))
    for workload in run.WORKLOADS:
        check_metrics(workload, 0, run_bench(workload, 0), spec["end_to_end"])
        traced = run_bench(workload, 1)
        check_metrics(workload, 1, traced, spec["per_layer"])
        if traced["metrics"]["core.driver_s"]["value"] < 0:
            fail("%s: core.driver_s < 0" % workload)
        check_trace(workload)
        print("ok  %s" % workload)
    print("PASS")


if __name__ == "__main__":
    main()
