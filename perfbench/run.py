#!/usr/bin/env python3
"""perfbench: end-to-end, layer-by-layer benchmark of the bgpcc pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload macro_batch --seed 1 --seconds 40 --trace 0

Steps, each outside the timed regions of the next:
  1. build   perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build
  2. data    generate the archives for --seed in a separate process,
             once per (seed, size); later runs reuse them after checking
             every file against its recorded SHA-256
  3. measure run the harness in a fresh process that generated nothing
  4. check   (in the harness) every job's digests equal the run's
             single-thread job's, cleaned record counts match the
             generator, and one job on the other workload's ingest path
             reaches the same nine final reports
The last stdout line is one JSON object: correct, attempted, failed, and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
See perfbench/NOTES.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
DATA = os.path.join(ROOT, ".bench_data")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ["macro_batch", "macro_stream"]

END_TO_END = {
    "records_per_s": "records/s",
    "records_per_s_1t": "records/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PASSES = ["classifier", "per_session_types", "tomography", "community_stats",
          "duplicate_burst", "anomaly", "revealed", "exploration", "usage"]
STAGES = ["frame", "decode", "clean", "observe", "merge", "spill",
          "run_merge", "prefetch_wait"]
PER_LAYER = dict(
    [("mrt.inflate_s", "s"), ("mrt.frame_s", "s"),
     ("mrt.sources_opened", "count"), ("mrt.compressed_bytes", "bytes"),
     ("bgp.decode_s", "s"),
     ("core.explode_s", "s"), ("core.clean_s", "s"), ("core.ingest_s", "s")]
    + [("core.stage.%s_s" % s, "s") for s in STAGES]
    + [("core.pool.queue_wait_s", "s"), ("core.windows", "count"),
       ("core.spilled_runs", "count")]
    + [("analytics.observe_s.%s" % p, "s") for p in PASSES]
    + [("analytics.report_s", "s"), ("analytics.snapshot_clone_s", "s"),
       ("analytics.snapshot_merge_s", "s")]
    + [("analytics.merge_s.%s" % p, "s") for p in PASSES]
    + [("analytics.snapshot_ms", "ms"), ("analytics.checkpoint_ms", "ms"),
       ("analytics.checkpoint_bytes", "bytes"), ("analytics.restore_ms", "ms"),
       ("obs.overhead_share", "share")])

HARNESS_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def worker_threads():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the harness; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(worker_threads())],
                   check=True, stdout=sys.stderr)
    binary = os.path.join(out, "bgpcc_bench")
    if not os.path.exists(binary):
        raise RuntimeError("build produced no %s" % binary)
    return binary


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def hash_tree(directory):
    """SHA-256 of every generated file, keyed by relative path."""
    hashes = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, directory)
            if rel not in ("hashes.json", "gen.json"):
                hashes[rel] = sha256(path)
    return dict(sorted(hashes.items()))


def generate(binary, seed, small, directory):
    """Generates one dataset into `directory`; returns the generator stats."""
    cmd = [binary, "gen", "--seed", str(seed), "--out", directory]
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def dataset(binary, seed, small):
    """Returns the dataset directory for (seed, size), generating it when
    absent or when a file no longer matches its recorded hash."""
    key = "%s-s%d" % ("small" if small else "full", seed)
    final = os.path.join(DATA, key)
    recorded = os.path.join(final, "hashes.json")
    if os.path.exists(recorded):
        with open(recorded) as f:
            if json.load(f) == hash_tree(final):
                return final, key
        log("dataset %s changed on disk; regenerating" % key)
    shutil.rmtree(final, ignore_errors=True)
    staging = os.path.join(DATA, "staging-%d" % os.getpid())
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    try:
        stats = generate(binary, seed, small, staging)
        with open(os.path.join(staging, "gen.json"), "w") as f:
            json.dump(stats, f, indent=1)
        with open(os.path.join(staging, "hashes.json"), "w") as f:
            json.dump(hash_tree(staging), f, indent=1)
        os.rename(staging, final)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    log("generated %s: %s" % (key, json.dumps(stats)))
    return final, key


def measure(binary, workload, data_dir, seconds, trace, trace_out):
    tmp = os.path.join(DATA, "tmp-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "run", "--workload", workload, "--data", data_dir,
           "--tmp", tmp, "--seconds", str(seconds),
           "--threads", str(worker_threads()), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("harness exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_metrics(trace):
    """The metrics a run's last line carries, name -> unit."""
    return PER_LAYER if trace else END_TO_END


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced datasets for the self-check")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no bgpcc source tree at %s/src: nothing to build" % ROOT)
        return 2
    binary = build()
    os.makedirs(DATA, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    data_dir, key = dataset(binary, args.seed, args.small)

    stem = os.path.join(OUT, "%s-%s-trace%d" % (args.workload, key, args.trace))
    result = measure(binary, args.workload, data_dir, args.seconds, args.trace,
                     stem + "-spans.json" if args.trace else None)
    expected = expected_metrics(args.trace)
    correct = bool(result["correct"])
    failed = int(result["failed"])
    metrics = {}
    for name, unit in expected.items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            log("metric %s missing or not in %s" % (name, unit))
            correct = False
            continue
        metrics[name] = {"value": got["value"], "unit": unit}

    with open(os.path.join(data_dir, "gen.json")) as f:
        gen = json.load(f)
    with open(stem + ".json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "threads": result["threads"], "generator": gen,
                   "harness": result}, f, indent=1)
    for name, m in metrics.items():
        print("%-40s %16.6f %s" % (name, m["value"], m["unit"]))
    print("failed_share %d/%d = %.6f" % (
        failed, result["attempted"], failed / max(1, result["attempted"])))
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as e:
        log("error: %s" % e)
        sys.exit(1)
