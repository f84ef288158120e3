#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_proactive --seed 1 \\
        --seconds 55 --trace 0

Builds perfbench/ (a CMake project over src/) into .bench_build/, runs the
self-tests, then the workload: those of BENCHMARK.json, or
fleet_reactive_large and login_durable, which are left out of it (see
perfbench/NOTES.md).  The benchmark's own lines go to stdout and its last
line is one JSON object with "correct", "attempted", "failed" and
"metrics": the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1.  Exits non-zero, without that line, when the
build, a self-test or the metric set fails, and non-zero after it when an
output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("fleet_proactive", "fleet_reactive_large", "login_buffered",
             "login_durable")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, log_name):
    """Runs a build step with its output in a log file under .bench_build."""
    log_path = os.path.join(ROOT, ".bench_build", log_name)
    with open(log_path, "w") as log:
        code = subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("%s failed (log: %s)" % (" ".join(cmd[:2]), log_path))


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure.log")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
               "-j", jobs], "build.log")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    if args.workload not in WORKLOADS:
        fail("unknown workload " + args.workload)
    build()

    selftest = subprocess.run([BINARY, "--selftest"], capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("self-tests failed")

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", work],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    # Journals are large and of no use after the run; span dumps stay.
    for name in os.listdir(work):
        path = os.path.join(work, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("\n".join(lines))
        fail("no result line (exit code %d)" % proc.returncode)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        print("\n".join(lines[:-1]))
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(expected) - set(got)),
              sorted(set(got) - set(expected))))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
