#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload seq2seq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds the benchmark and the library
sources it measures (CMake, Release) under .bench_build/perfbench; later
runs only confirm the build is up to date. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON
result. That line carries the metrics BENCHMARK.json lists for the mode:
its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1. Each run also writes every metric it measured to
.bench_build/reports/<workload>-seed<seed>-trace<t>.json.

--self-test builds and runs the tests of the benchmark's own output
checks instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REPORTS = os.path.join(ROOT, ".bench_build", "reports")

# A run measures for --seconds, plus set-up and checks; it is stopped
# if it has not finished by then.
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def configured_source(cache):
    """Returns the source directory a CMake cache was configured for."""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build(target):
    """Configures (once) and builds @target; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at " + os.path.join(ROOT, "src"))
        return None
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache) and configured_source(cache) != SOURCE:
        shutil.rmtree(BUILD)  # a tree configured elsewhere cannot be reused
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["seq2seq", "vgg"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if args.self_test:
        binary = build("perfbench_selftest")
        if binary is None:
            return 1
        return subprocess.run([binary]).returncode

    binary = build("perfbench")
    if binary is None:
        return 1
    os.makedirs(REPORTS, exist_ok=True)
    report = os.path.join(REPORTS, "%s-seed%d-trace%s.json" %
                          (args.workload, args.seed, args.trace))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--report", report]
    try:
        proc = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the benchmark and waited for it.
        log("run did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        return proc.returncode
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace == "1" else
                               "end_to_end"]
    missing = [m["name"] for m in listed
               if result["metrics"].get(m["name"], {}).get("value") is None]
    if missing:
        log("run did not measure " + ", ".join(missing))
        return 1
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in listed}
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
