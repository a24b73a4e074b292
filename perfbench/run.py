#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload paper_cold --seed 7 --seconds 30 --trace 0

Builds perfbench/ (its own CMake project over the repository's src/) into
.bench_build/ at the repository root, runs one workload in its own process
with a scratch directory under .bench_work/, and relays the workload's
output: a metric table, then one JSON line with the keys correct,
attempted, failed and metrics. Exits non-zero, printing no result, when the
build or the run fails. Workloads and metrics are described in
perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("paper_cold", "serve_cold_mix", "dispatch_warm")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ tree next to perfbench/: nothing to benchmark")

    binary = build()
    work_dir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    log_path = os.path.join(work_dir, "stderr.log")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--source-root", ROOT,
               "--digests", os.path.join(BENCH, "paper_digests.txt")]
    try:
        with open(log_path, "w") as log:
            result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=log, text=True,
                                    timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    with open(log_path) as log:
        diagnostics = log.read()
    lines = result.stdout.strip().splitlines()
    try:
        parsed = json.loads(lines[-1]) if lines else None
    except ValueError:
        parsed = None
    if result.returncode != 0 or not isinstance(parsed, dict):
        sys.stderr.write(diagnostics[-4000:])
        fail("workload %s failed (exit %d)" % (args.workload, result.returncode))

    for line in lines[:-1]:
        print(line)
    # Keep the traced run's Chrome trace; drop the rest of the scratch tree.
    trace = os.path.join(work_dir, "trace_%s.json" % args.workload)
    if os.path.exists(trace):
        kept = os.path.join(WORK, os.path.basename(trace))
        shutil.copy(trace, kept)
        print("chrome trace: " + os.path.relpath(kept, ROOT))
    shutil.rmtree(work_dir, ignore_errors=True)
    print(lines[-1])


if __name__ == "__main__":
    main()
