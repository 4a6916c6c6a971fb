#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
libraries from ../src together with rc_perfbench (perfbench/CMakeLists.txt)
under .bench_build/perfbench; later runs rebuild incrementally. Build
output goes to standard error. rc_perfbench's report goes to standard
output. rc_perfbench ends with every value it computed; this script keeps
the metrics BENCHMARK.json names (end_to_end with --trace 0, per_layer with
--trace 1), takes their units from there, and prints the result object last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A per-layer metric of a layer the workload does not run reads 0. Debug and
sanitizer builds are refused when configuring (CMakeLists.txt) and again by
rc_perfbench at run time. A missing end-to-end value, a build failure or a
run that overstays its time limit exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "rc_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: error: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def select_metrics(values, trace):
    """The BENCHMARK.json metrics of this run, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        if m["name"] not in values and not trace:
            fail("no value for end-to-end metric " + m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"], 0),
                              "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative to the repository root, so the unix socket path stays
           # short of the 108-byte sun_path limit wherever the checkout is.
           "--work-dir", os.path.relpath(os.path.join(BUILD_DIR, "work"),
                                         ROOT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail("the last output line is not a JSON result")
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    result["metrics"] = select_metrics(result.pop("values"), args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
