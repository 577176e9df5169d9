#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes how steady it is.

Run from the repository root:

    python3 fsbench/collect.py --seeds 1-10 --out fsbench/baseline/seed.json
    python3 fsbench/collect.py --workloads wiki-self --seeds 1-5 --no-traced

For each workload it makes one untraced run per seed (end-to-end metrics)
and, unless --no-traced, one traced run on the first seed (per-layer
metrics), all through fsbench/run.py with BENCHMARK.json's run_seconds. It
prints, per end-to-end metric, the median of the per-seed values and their
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. --out writes every run's result plus that summary as JSON:
the committed baseline later changes are compared against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("collect: %s seed %d trace %d exited %d" % (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    result["elapsed_s"] = round(time.time() - start, 1)
    return result


def host():
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    return {"cpus": os.cpu_count(), "cpu": cpu, "machine": platform.machine()}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--no-traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    report = {"host": host(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            med, sp = spread([r["metrics"][m["name"]]["value"] for r in runs])
            summary[m["name"]] = {"median": med, "spread": round(sp, 4), "bound": m["bound"]}
            print("  %-14s median %-10.4g spread %.3f (bound %.2f)" % (m["name"], med, sp, m["bound"]),
                  flush=True)
        entry = {"untraced": runs, "summary": summary}
        if not args.no_traced:
            entry["traced"] = {"seed": seeds[0], **run_once(workload, seeds[0], seconds, 1)}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
