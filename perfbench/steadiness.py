#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--seconds S]

Runs perfbench/run.py (untraced) for two sets of the same seeds. The runs go
round-robin, seed by seed and workload by workload within each set, so a slow
stretch of the host falls on every workload rather than on one. Then, for
every workload and end-to-end metric, it prints each set's median and spread
(q3 - q1) / median over the seeds (statistics.quantiles(n=4)), and the shift
of the second set's median against the first's, as a share of the first and
signed so that positive is worse, next to the metric's bound from
BENCHMARK.json.

A bound is shown to hold when, for every workload, each spread except that
of setup_s stays within the bound and the shift, either way, does not exceed
it: the sets could as well have run in the other order. The command exits
non-zero otherwise, or when a run fails or reports "correct": false. A spread
above a third of its bound is flagged: the bound should sit well clear of
the run-to-run noise. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    # values[workload][metric][set] -> one value per seed
    values = {w: {n: [[] for _ in range(SETS)] for n in metrics}
              for w in workloads}
    ok = True
    for s in range(SETS):
        for seed in seeds:
            for workload in workloads:
                result = run_once(workload, seed, args.seconds)
                if result is None or not result["correct"]:
                    print("set %d %s seed %d: run failed or incorrect"
                          % (s + 1, workload, seed), flush=True)
                    ok = False
                    continue
                for name in metrics:
                    values[workload][name][s].append(
                        result["metrics"][name]["value"])
                print("set %d %s seed %d: %s" % (
                    s + 1, workload, seed, " ".join(
                        "%s=%.6g" % (n, result["metrics"][n]["value"])
                        for n in metrics)), flush=True)

    for workload in workloads:
        print("\n%s (%d seeds x %d sets)" % (workload, len(seeds), SETS))
        print("  %-24s %12s %7s %12s %7s %7s %6s" %
              ("metric", "median1", "spread1", "median2", "spread2",
               "shift", "bound"))
        for name, m in metrics.items():
            sets = values[workload][name]
            if min(len(v) for v in sets) < 2:
                continue
            (med1, spread1), (med2, spread2) = (summary(v) for v in sets)
            worse = (med2 - med1) if m["better"] == "lower" else (med1 - med2)
            shift = worse / med1 if med1 else float("inf")
            spread = max(spread1, spread2)
            flags = []
            if spread > m["bound"] and name == "setup_s":
                flags.append("spread above bound (not gated)")
            elif spread > m["bound"]:
                flags.append("spread above bound")
                ok = False
            elif spread > m["bound"] / 3:
                flags.append("spread above bound/3")
            if abs(shift) > m["bound"]:
                flags.append("shift above bound")
                ok = False
            print("  %-24s %12.6g %7.4f %12.6g %7.4f %+7.4f %6.3f  %s" %
                  (name, med1, spread1, med2, spread2, shift, m["bound"],
                   ", ".join(flags)))
    print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
