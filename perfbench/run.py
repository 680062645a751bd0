#!/usr/bin/env python3
"""Run one memcomm benchmark workload and print its result as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|engine|serve --seed N \
        --seconds T --trace 0|1

Builds the `perfbench` measurement binary (release profile, into
$CARGO_TARGET_DIR or perfbench/target), then runs it in separate processes:

* --trace 0: `perfbench run` measures the workload's own load for its share
  of T seconds (and its set-up time and peak RSS, so that process runs
  nothing else); `perfbench companion` then measures the other two loads,
  interleaved, for what is left of T, so every end-to-end metric of
  BENCHMARK.json is reported for every workload.
* --trace 1: `perfbench trace` runs every load once with spans around each
  call into a layer and reports the per-layer metrics of BENCHMARK.json.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Every result is also appended, with the host fingerprint, to
perfbench/out/results.jsonl. Exits non-zero without a result when the
build or a measurement process fails, or a metric is missing.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
PROCESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the sources the benchmark builds (stands in for the
    commit id where the checkout is not a git repository)."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass

    def output(cmd):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": output(["rustc", "-V"]),
        "profile": "release",
        "commit": output(["git", "-C", ROOT, "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user and nice.
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(BENCH_DIR, "target")))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def measure(binary, mode, args, seconds):
    cmd = [binary, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--out", OUT_DIR]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: `{mode}` exceeded {PROCESS_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: `{mode}` failed with code {done.returncode}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["sweep", "engine", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    host = fingerprint()
    log(f"host {json.dumps(host)}")
    binary = build()
    modes = ["trace"] if args.trace else ["run", "companion"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    attempted = failed = 0
    metrics = {}
    ticks = cpu_ticks()
    start = time.monotonic()
    for mode in modes:
        # The companion gets what the own load left of the run's seconds.
        left = args.seconds - (time.monotonic() - start)
        part = measure(binary, mode, args, max(left, 0.0))
        attempted += part["attempted"]
        failed += part["failed"]
        metrics.update(part["metrics"])
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in metrics]
    bad = [n for n in names if n in metrics
           and not (math.isfinite(metrics[n]["value"]) and metrics[n]["value"] > 0)]
    if missing or bad:
        sys.exit(f"perfbench: missing metrics {missing}, non-positive metrics {bad}")
    for m in wanted:
        v = metrics[m["name"]]
        log(f"{m['name']:<34} {v['value']:>14.6g} {v['unit']}")
    for name, v in metrics.items():
        if name not in names:
            log(f"{name:<34} {v['value']:>14.6g} {v['unit']}  (not in this result)")
    # The share of host CPU time the hypervisor gave to other guests while
    # this run measured; the wall-clock serve figures move with it.
    after = cpu_ticks()
    steal = None
    if ticks and after and after[1] > ticks[1]:
        steal = (after[0] - ticks[0]) / (after[1] - ticks[1])
        log(f"host steal during the run: {steal:.1%} of CPU time")

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in names},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        record = {"host": host, "steal": steal, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "result": result}
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
