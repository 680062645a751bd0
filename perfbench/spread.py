#!/usr/bin/env python3
"""Check that the benchmark is steady: run it on several seeds per workload
and report each end-to-end metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

For each workload, runs `perfbench/run.py` once per seed and prints, per
end-to-end metric, the median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json. `setup_s` is exempt from
the spread rule. Exits non-zero if a run fails, a result is incorrect, or
a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("workloads", nargs="*")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit code {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{w} seed {seed}: incorrect ({result['failed']} of "
                      f"{result['attempted']} ops failed)")
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            steal = next((l.rsplit(": ", 1)[1] for l in done.stderr.splitlines()
                          if "host steal" in l), "?")
            print(f"{w} seed {seed} (steal {steal}): " + " ".join(
                f"{n}={v['value']:.4g}" for n, v in result["metrics"].items()), flush=True)
        print(f"\n{w}: {args.runs} runs")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = spread <= m["bound"] / 3
            if m["name"] != "setup_s" and spread > m["bound"]:
                ok = False
            flag = "" if steady or m["name"] == "setup_s" else "  <-- above bound/3"
            print(f"  {m['name']:<28} median {med:>12.6g} {m['unit']:<10} "
                  f"spread {spread:6.3f} (bound/3 {m['bound'] / 3:.3f}){flag}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
