#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
spread (interquartile range as a share of the median, from
statistics.quantiles(values, n=4)) — the steadiness check BENCHMARK.json's
bounds are set against.

    python3 perfbench/spread.py --workload macro_batch --seeds 1-10 [--trace 0]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        start = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print("seed %d (%.1f s): correct=%s failed=%d/%d" % (
            seed, time.time() - start, result["correct"], result["failed"],
            result["attempted"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, v in values.items():
        med = statistics.median(v)
        line = "%-40s median %14.6g" % (name, med)
        if len(v) >= 2 and med != 0:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / abs(med)
            line += "  spread %.4f" % spread
            if bounds.get(name):
                line += "  (bound %.2f)" % bounds[name]
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
