#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--workloads a,b] [--runs 10]

Run it from the root of a checkout. For each workload it runs two sets
of `--runs` runs of perfbench/run.py at BENCHMARK.json's run_seconds,
each run with its own seed: set 1 uses the seeds from workloads.json's
default_seed on, set 2 the next `--runs` seeds. Per end-to-end metric it
reports the spread of each set (distance between the first and third
quartile, as a share of the median) and how much worse the second set's
median is than the first's. A metric passes when both spreads and the
worsening stay within its bound; setup_s is held to the same test.
Raw results go to .bench_out/steady.json. Exits non-zero when any metric
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        sys.exit(f"steady: {workload} seed {seed} failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join("perfbench", "workloads.json")) as f:
        seed0 = json.load(f)["default_seed"]

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    ok = True
    print(f"{'workload':15s} {'metric':12s} {'bound':>6s} "
          f"{'median1':>11s} {'spread1':>8s} {'median2':>11s} {'spread2':>8s} "
          f"{'worse':>7s}  verdict")
    for workload in args.workloads.split(","):
        sets = []
        for k in range(2):
            seeds = range(seed0 + k * args.runs, seed0 + (k + 1) * args.runs)
            sets.append([run_once(workload, s, bench["run_seconds"]) for s in seeds])
        raw[workload] = sets
        for name, spec in metrics.items():
            stats = [spread([r[name] for r in runs]) for runs in sets]
            (first, _), (second, _) = stats
            worse = (second - first) / first if spec["better"] == "lower" else (first - second) / first
            bound = spec["bound"]
            good = worse <= bound and all(s <= bound for _, s in stats)
            steady = all(s < bound / 3 for _, s in stats)
            ok = ok and good
            verdict = ("ok" if steady else "ok, spread above bound/3") if good else "FAIL"
            print(f"{workload:15s} {name:12s} {bound:6.2f} "
                  + " ".join(f"{med:11.5g} {s:8.3f}" for med, s in stats)
                  + f" {worse:7.3f}  {verdict}", flush=True)
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
