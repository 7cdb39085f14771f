#!/usr/bin/env python3
"""Builds and runs the CAESAR repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload lr-serial --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The benchmark is built from source with CMake into the directory named by
CARGO_TARGET_DIR (default .bench_build, relative to the checkout root).
Build output goes to stderr, so the last line of stdout is the result
object of the run. The traced run (--trace 1) writes its Chrome trace to
<build dir>/traces/<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace, extra=(), capture=False):
    out = build_dir()
    work = os.path.join(out, "work")
    traces = os.path.join(out, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work,
               "--trace-out",
               os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    command += list(extra)
    pipe = subprocess.PIPE if capture else None
    return subprocess.run(command, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=pipe, stderr=pipe)


def self_test(binary):
    """Tiny runs of every workload: each passes its output check and prints
    exactly the declared metrics with their units, and a wrong reference
    digest makes each fail."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            done = run(binary, workload, 1, 1, trace, ["--tiny"], True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            where = "%s --trace %d" % (workload, trace)
            if done.returncode != 0 or not result["correct"]:
                problems.append(where + ": failed: " + done.stderr.strip())
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(where + ": operations failed")
            if printed != declared[trace]:
                problems.append(where + ": metrics differ from BENCHMARK.json")
        done = run(binary, workload, 1, 1, 0,
                   ["--tiny", "--corrupt-reference"], True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode == 0 or result["correct"] or result["metrics"]:
            problems.append(workload + ": a wrong reference digest passed")
        print("self-test: %s done" % workload, file=sys.stderr)
    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no CAESAR sources under %s" % ROOT, file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("run.py: build failed: %s" % error, file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(binary)
    return run(binary, args.workload, args.seed, args.seconds,
               args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
