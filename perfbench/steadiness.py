#!/usr/bin/env python3
"""Steadiness report: run every workload of BENCHMARK.json ten times, with
seeds 1 to 10, and print each end-to-end metric's median, quartiles and
min-max against its bound.

    python3 perfbench/steadiness.py

The spread is (Q3 - Q1) / median with Python's statistics.quantiles(n=4);
a metric is steady when its spread stays under a third of its bound. The
exit code is 0 only if every metric of every workload is steady and no op
failed. Run from the root of a checkout; each run goes through
perfbench/run.py exactly as a single benchmark run does.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
# The (workload, metric) pairs whose run-to-run disagreement got the first
# attempt at this benchmark rejected.
WATCHED = {("live_control", "setup_s"), ("fleet_soak", "rate_per_s"),
           ("fleet_soak", "op_ms_tail"), ("staged_campaign", "rate_per_s")}


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for seed in SEEDS:
            r = run_once(workload, seed, spec["run_seconds"])
            failed += r["failed"] + (0 if r["correct"] else 1)
            for name in values:
                values[name].append(r["metrics"][name]["value"])
        print("%s: %d runs, seeds %d..%d, %d failed ops"
              % (workload, len(SEEDS), SEEDS[0], SEEDS[-1], failed))
        print("  %-12s %12s %12s %12s %12s %12s %8s %6s"
              % ("metric", "min", "q1", "median", "q3", "max", "spread",
                 "bound"))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < m["bound"] / 3
            flag = "" if ok else "  <-- over a third of the bound"
            if (workload, m["name"]) in WATCHED:
                flag += "  [watched]"
            steady = steady and ok
            print("  %-12s %12.5g %12.5g %12.5g %12.5g %12.5g %7.2f%% %5.0f%%%s"
                  % (m["name"], min(v), q1, med, q3, max(v), 100 * spread,
                     100 * m["bound"], flag))
        steady = steady and failed == 0
        sys.stdout.flush()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
