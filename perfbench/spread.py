#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.sh once per seed on each workload and prints, for
every end-to-end metric, the median and quartiles of the runs (as
statistics.quantiles(n=4) gives them) and the interquartile distance as
a share of the median, next to the metric's bound in BENCHMARK.json.
Run it from the repository root:

    python3 perfbench/spread.py --runs 10 msg-sim jobs
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result: {result}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        values = {}
        for i in range(args.runs):
            result = run_once(name, args.first_seed + i, seconds)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        for metric, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2
            flag = "" if spread < bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"{name:10s} {metric:11s} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:6.3f}  bound {bounds[metric]}{flag}", flush=True)


if __name__ == "__main__":
    main()
