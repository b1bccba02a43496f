#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/ (always a
Release build of ../src plus perfbench/src). The last line of standard
output is the run's JSON result; see perfbench/README.md for the workloads
and metrics. Exits non-zero without a result when the build or the run
fails, or when the run's metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pagerank_bulk", "cc_workset", "serve_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def source_id():
    """A hash of the sources, prefixed by the git commit when there is one."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    tree = "tree-" + digest.hexdigest()[:16]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return f"git-{sha.stdout.strip()}+{tree}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return tree


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    try:
        if not build(build_dir):
            return 1
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1
    state_dir = os.path.join(build_dir, "perfbench-state")
    os.makedirs(state_dir, exist_ok=True)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--source-id", source_id(), "--state-dir", state_dir]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        log(f"perfbench exited with code {run.returncode}")
        return run.returncode or 1

    result = json.loads(lines[-1])
    reported = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if reported != declared_metrics(args.trace):
        log("the run's metrics do not match BENCHMARK.json")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
