#!/usr/bin/env python3
"""Measures how steady the benchmark is on this host.

Runs the benchmark N times per workload, each run with its own seed,
alternating the order of the workloads from one pass to the next, and
prints for every end-to-end metric its median, quartiles and spread
(interquartile distance over median) against the bound BENCHMARK.json
fixes, next to the host's own speed probe (host.spin_ms). A metric is
steady enough when its spread stays under a third of its bound.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --commit HEAD~1 --seed-base 500

With --commit, the sources of that commit are exported (git archive)
into .bench_build/steady/<commit>, the working tree's benchmark
(BENCHMARK.json and perfbench/) is copied over them, and the runs
build and measure there: the program of that commit under today's
benchmark. Without it, the working tree itself is measured.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_commit(commit):
    """Exports @commit with the current benchmark overlaid; returns its root."""
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", commit],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    tree = os.path.join(ROOT, ".bench_build", "steady", rev)
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("git archive %s failed" % rev)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    shutil.rmtree(os.path.join(tree, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(tree, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def run_once(tree, spec, workload, seed):
    """Runs one untraced run; returns (result, report) dicts."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s" %
                 (workload, seed, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    report_path = os.path.join(tree, ".bench_build", "reports",
                               "%s-seed%d-trace0.json" % (workload, seed))
    with open(report_path) as f:
        report = json.load(f)
    return result, report


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--commit", help="measure this commit's program")
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tree = export_commit(args.commit) if args.commit else ROOT
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed_base + i
            result, report = run_once(tree, spec, w, seed)
            results[w].append((result, report))
            print("run %2d %-8s seed %d: correct %s, failed %d/%d" %
                  (i, w, seed, result["correct"], result["failed"],
                   result["attempted"]), file=sys.stderr, flush=True)

    print("%-8s %-22s %12s %12s %12s %8s %7s %7s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound",
           "steady"))
    for w in workloads:
        runs = results[w]
        spin = [r["per_layer"]["host.spin_ms"]["value"] for _, r in runs]
        med, q1, q3, spread = summary(spin)
        print("%-8s %-22s %12.5g %12.5g %12.5g %8.3f %7s %7s" %
              (w, "host.spin_ms", med, q1, q3, spread, "-", "-"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [res["metrics"][name]["value"] for res, _ in runs]
            med, q1, q3, spread = summary(values)
            steady = "yes" if spread < metric["bound"] / 3 else "NO"
            print("%-8s %-22s %12.5g %12.5g %12.5g %8.3f %7.3f %7s" %
                  (w, name, med, q1, q3, spread, metric["bound"], steady))
        shares = {res["failed"] / res["attempted"] for res, _ in runs}
        print("%-8s %-22s %s" % (w, "failed share", sorted(shares)))


if __name__ == "__main__":
    main()
