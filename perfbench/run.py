#!/usr/bin/env python3
"""Build and run the crmd benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (the library from src/ plus
the benchmark, Release) under .bench_build/, runs one workload, checks the
result against BENCHMARK.json, and prints it as the last stdout line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Provenance (commit, source digest, compiler, build type, nproc, workers,
seed) is printed on an earlier line and saved with the result under
.bench_build/results/. The exit status is 0 only when every check passed.

--selftest builds and runs the decorator-equivalence test instead.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    configured = False
    if os.path.isfile(cache):
        with open(cache) as f:
            configured = "CMAKE_BUILD_TYPE:STRING=Release\n" in f.read()
    steps = []
    if not configured:
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840, check=False)
        if done.returncode != 0:
            die("build step failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def source_digest():
    """SHA-256 over the library and benchmark sources (path and content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except OSError:
        return "none"
    return done.stdout.strip() or "none"


def check_result(line, contract, trace):
    """The result line must match BENCHMARK.json's metric list exactly."""
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        die("result keys %s" % sorted(result))
    wanted = contract["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        die("metrics differ from BENCHMARK.json: missing %s, extra %s, "
            "or a unit differs" % (missing, extra))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        die("attempted must be a positive integer")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_tests")
        sys.exit(subprocess.run([test], timeout=600, check=False).returncode)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            contract = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        die("--workload must be one of %s" % ", ".join(names))
    if args.seed < 0 or not 0 < args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in (0, 600]")

    binary = build("crmd_perfbench")
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + RESULTS, "--commit=" + commit(),
           "--source=" + source_digest()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(170.0, 4 * args.seconds + 60),
                              check=False)
    except subprocess.TimeoutExpired:
        die("the benchmark did not finish in time")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        die("crmd_perfbench exited with status %d" % done.returncode)
    check_result(lines[-1], contract, args.trace == 1)
    print("\n".join(lines), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
