#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S \
        --trace 0|1

Run from the repository root. The first run configures and builds the
library and the perfbench binary into .bench_build/ (Release, through the
repository's own CMakeLists.txt); later runs only rebuild what changed.
Standard output is the binary's report, then one line of host context,
then, as the last line, the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is non-zero, and no result line is printed, when the
sources are missing, the build fails, the binary fails or times out, or
the result does not carry exactly the metrics BENCHMARK.json declares.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["route-square", "route-wide-mixed", "serve-zipf"]
LIBRARY_DIRS = ["graph", "perm", "pops", "routing", "serve", "support"]
# Every run must end within this many seconds (the first may also build).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def check_sources():
    needed = ["CMakeLists.txt", "routing/engine.h", "serve/traffic_server.h"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("library sources not found next to perfbench/ (missing: "
             + ", ".join(missing) + "); run from a full checkout")


def build():
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout; concurrent runs wait here.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", "3"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                fail("build failed: " + " ".join(step))


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def first_line(command):
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        lines = done.stdout.strip().splitlines()
        return lines[0] if done.returncode == 0 and lines else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, so two results can
    be matched to the code they measured even outside a git checkout."""
    digest = hashlib.sha256()
    for top in LIBRARY_DIRS + ["perfbench", "CMakeLists.txt"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if name.endswith((".h", ".cc", ".txt", ".py")):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as source:
                    digest.update(source.read())
    return digest.hexdigest()


def host_context(args):
    git_sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git_sha = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    compiler = cache_value("CMAKE_CXX_COMPILER")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": first_line([compiler, "--version"]),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "git_sha": git_sha,
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as spec:
        declared = json.load(spec)
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


def run_workload(args, workload, deadline):
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-dir", traces]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} did not end with a JSON result")
    declared = declared_metrics(args.trace)
    if declared is not None and list(result["metrics"]) != declared:
        fail(f"{workload} metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(declared))}")
    print("\n".join(lines[:-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    check_sources()
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        results[workload] = run_workload(args, workload, deadline)

    print(json.dumps({"context": host_context(args)}))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
