#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 lifebench/spread.py --workload NAME [--seeds 1-10] [--seconds 15]

Runs run.py once per seed and prints, per metric, the median and the
inter-quartile distance as a share of the median (statistics.quantiles,
n=4), next to the metric's bound from BENCHMARK.json.  A benchmark is steady
when every spread but setup_s's stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}")
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name, 0.0)
        ok = name == "setup_s" or spread < bound / 3
        steady = steady and ok
        print(f"  {name:24s} median {median:12.6g}  spread {spread:7.4f}  bound {bound:5.3f}"
              f"  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
