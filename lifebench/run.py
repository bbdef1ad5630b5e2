#!/usr/bin/env python3
"""Build and run the fleet lifecycle benchmark (see README.md beside this file).

    python3 lifebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lifebench/run.py --selfcheck [--workload NAME] [--seed N]

The first form builds the benchmark from the checkout's sources (CMake,
Release) into $CARGO_TARGET_DIR/lifebench (default .bench_build/lifebench),
runs one workload and forwards its output; the last stdout line is the JSON
result.  The second form is the determinism self-check: two runs of one seed
must print identical simulated metrics and counts, and the next seed must
change them.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lifecycle_star", "rw_tree_lossy", "model_fanout")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"lifebench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "deployment.h")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"no micropnp sources beside the benchmark (missing {needed})")
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_dir, "lifebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "lifebench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(step)}")
    binary = os.path.join(build_dir, "lifebench")
    if not os.path.isfile(binary):
        fail("build produced no lifebench binary")
    return binary, build_dir


def run(binary, workload, seed, seconds, trace, spans=None):
    """Runs one workload; returns (returncode, stdout lines, stderr)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", code=1)
    return done.returncode, done.stdout.splitlines(), done.stderr


def sim_line(lines):
    for line in lines:
        if line.startswith("sim {"):
            return line[len("sim "):]
    return None


def selfcheck(binary, workloads, seed):
    ok = True
    for workload in workloads:
        outputs = []
        for s in (seed, seed, seed + 1):
            code, lines, err = run(binary, workload, s, 1, 0)
            if code != 0:
                sys.stderr.write(err)
                fail(f"{workload} seed {s} exited {code}", code=1)
            outputs.append(sim_line(lines))
        same = outputs[0] is not None and outputs[0] == outputs[1]
        moved = outputs[0] != outputs[2]
        print(f"{workload}: same seed identical={same}, next seed differs={moved}")
        ok = ok and same and moved
    print("determinism self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    binary, build_dir = build()
    if args.selfcheck:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return selfcheck(binary, workloads, args.seed)

    spans = None
    if args.trace:
        spans = os.path.join(build_dir, f"spans-{args.workload}-seed{args.seed}.csv")
    code, lines, err = run(binary, args.workload, args.seed, args.seconds, args.trace, spans)
    sys.stderr.write(err)
    if code != 0:
        fail(f"{args.workload} failed (exit {code}); no result reported", code=1)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no JSON result", code=1)
    if not result.get("correct") or result.get("attempted", 0) < 1:
        fail("benchmark reported an incorrect run", code=1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
