#!/usr/bin/env python3
"""Reduced-size self-check of the perfbench harness (about 15 seconds).

    python3 perfbench/selfcheck.py

Checks, on small datasets:
  * the generator is deterministic: the same seed generated twice gives
    byte-identical files (SHA-256 of every file);
  * whole-second records are written as plain BGP4MP and the rest as
    BGP4MP_ET;
  * both workloads run untraced and traced, report exactly the metrics
    BENCHMARK.json lists with their units, and fail no operation;
  * macro_batch and macro_stream reach the same nine-report digest, and
    so does each run's job on the other ingest path;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""
import gzip
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile

import run as bench

SEED = 3


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def mrt_record_types(path):
    """(plain BGP4MP count, BGP4MP_ET count, ET records on a whole second)."""
    with gzip.open(path, "rb") as f:
        data = f.read()
    plain = et = et_whole = 0
    pos = 0
    while pos < len(data):
        _, rtype, _, length = struct.unpack_from(">IHHI", data, pos)
        if rtype == 17:
            et += 1
            (micros,) = struct.unpack_from(">I", data, pos + 12)
            et_whole += micros == 0
        elif rtype == 16:
            plain += 1
        pos += 12 + length
    return plain, et, et_whole


def run_bench(workload, trace):
    cmd = [sys.executable, os.path.join(bench.HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=300)
    check(proc.returncode == 0, "%s trace=%d exits 0" % (workload, trace))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = bench.build()

    # 1. Deterministic generation, and the BGP4MP / BGP4MP_ET split.
    workdir = os.path.join(bench.ROOT, ".bench_data", "selfcheck")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        trees = []
        for copy in ("a", "b"):
            out = os.path.join(workdir, copy)
            os.makedirs(out)
            stats = bench.generate(binary, SEED, True, out)
            trees.append(bench.hash_tree(out))
        check(trees[0] == trees[1] and len(trees[0]) > 2,
              "seed %d generated twice is byte-identical (%d files, "
              "%d records)" % (SEED, len(trees[0]), stats["records"]))
        archives = os.path.join(workdir, "a", "archives")
        plain = et = et_whole = 0
        for name in sorted(os.listdir(archives)):
            p, e, w = mrt_record_types(os.path.join(archives, name))
            plain, et, et_whole = plain + p, et + e, et_whole + w
        check(plain > 0 and et > 0 and et_whole == 0,
              "macro archives: %d BGP4MP (whole-second) + %d BGP4MP_ET records"
              % (plain, et))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # 2. Every workload, untraced and traced: metrics, units, no failures.
    check(bench.WORKLOADS == [w["name"] for w in spec["workloads"]],
          "run.py and BENCHMARK.json list the same workloads")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = bench.expected_metrics(trace)
        check(want == {m["name"]: m["unit"] for m in spec[key]},
              "trace=%d metrics match BENCHMARK.json %s" % (trace, key))
        for workload in bench.WORKLOADS:
            result = run_bench(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, "%s trace=%d reports all %d metrics with "
                  "units" % (workload, trace, len(want)))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  "%s trace=%d correct, failed 0 of %d" % (
                      workload, trace, result["attempted"]))

    # 3. The batch and windowed paths agree on the same bytes.
    digests = set()
    for workload in bench.WORKLOADS:
        path = os.path.join(bench.OUT, "%s-small-s%d-trace0.json"
                            % (workload, SEED))
        with open(path) as f:
            harness = json.load(f)["harness"]
        digests.update((harness["report_digest"],
                        harness["other_path_report_digest"]))
    check(len(digests) == 1, "macro_batch and macro_stream report digests "
          "agree (%s)" % ", ".join(sorted(digests)))

    # 4. Without the source tree, run.py refuses without a result.
    bare = tempfile.mkdtemp(dir=os.path.join(bench.ROOT, ".bench_data"))
    try:
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "macro_batch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=170)
        check(proc.returncode != 0 and "{" not in proc.stdout,
              "bare directory: exit %d, no result" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
