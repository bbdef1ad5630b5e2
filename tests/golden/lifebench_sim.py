#!/usr/bin/env python3
"""Gate the fleet benchmark's simulated metrics on a committed golden.

    python3 tests/golden/lifebench_sim.py            # check
    python3 tests/golden/lifebench_sim.py --update   # rewrite the golden

lifebench prints one `sim {...}` line per run: every simulated metric and
count of the run's first repetition, which the same seed reproduces byte for
byte.  This script runs `python3 lifebench/run.py --workload W --seed S
--seconds 1 --trace T` for every line of lifebench_sim.txt (beside this
file; three workloads x seeds 1-3 x --trace 0/1) and fails unless each run's
`sim` line equals the golden's.  On a difference it prints the workload, the
seed, the trace switch and the first field that moved.  A change that moves
a simulated metric on purpose rewrites the golden with --update and says why.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "lifebench_sim.txt")
WORKLOADS = ("lifecycle_star", "rw_tree_lossy", "model_fanout")
SEEDS = (1, 2, 3)
TRACES = (0, 1)


def key_of(workload, seed, trace):
    return f"{workload} seed={seed} trace={trace}"


def run_sim_line(workload, seed, trace):
    """Runs one workload; returns its `sim {...}` line, or exits on failure."""
    cmd = [sys.executable, os.path.join("lifebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"lifebench_sim: {key_of(workload, seed, trace)} exited {done.returncode}")
    for line in done.stdout.splitlines():
        if line.startswith("sim {"):
            return line
    sys.exit(f"lifebench_sim: {key_of(workload, seed, trace)} printed no sim line")


def first_difference(expected, actual):
    """The first field (in the golden's order) whose value differs."""
    want = json.loads(expected[len("sim "):])
    got = json.loads(actual[len("sim "):])
    for field, value in want.items():
        if field not in got:
            return f"{field}: {value} -> (missing)"
        if got[field] != value:
            return f"{field}: {value} -> {got[field]}"
    extra = [field for field in got if field not in want]
    if extra:
        return f"{extra[0]}: (missing) -> {got[extra[0]]}"
    return "formatting only"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--update", action="store_true", help="rewrite the golden")
    args = parser.parse_args()

    keys = [(w, s, t) for w in WORKLOADS for s in SEEDS for t in TRACES]
    if args.update:
        with open(GOLDEN, "w") as out:
            for workload, seed, trace in keys:
                out.write(f"{key_of(workload, seed, trace)} {run_sim_line(workload, seed, trace)}\n")
        print(f"lifebench_sim: wrote {len(keys)} lines to {GOLDEN}")
        return 0

    golden = {}
    with open(GOLDEN) as f:
        for line in f:
            key, sep, sim = line.rstrip("\n").partition(" sim ")
            if sep:
                golden[key] = "sim " + sim
    failures = 0
    for workload, seed, trace in keys:
        key = key_of(workload, seed, trace)
        if key not in golden:
            print(f"MISSING {key}: no golden line")
            failures += 1
            continue
        actual = run_sim_line(workload, seed, trace)
        if actual == golden[key]:
            print(f"ok {key}")
        else:
            print(f"DIFFERS {key}: {first_difference(golden[key], actual)}")
            failures += 1
    print(f"lifebench sim golden: {len(keys) - failures}/{len(keys)} identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
