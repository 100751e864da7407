#!/usr/bin/env python3
"""Build the benchmark program and run one workload, or all of them.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It builds perfbench/main.exe from
source into .bench_build/, then:

- with --trace 0, times the workload's set-up in several fresh
  processes started apart (reporting the median as setup_s) and measures the
  end-to-end metrics for --seconds;
- with --trace 1, measures the per-layer metrics and writes a Perfetto
  trace and a per-layer summary under .bench_out/.

Every metric is printed by name with its unit, and the last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}. The
exit status is non-zero when any output was wrong or any request failed.
Workload parameters come from perfbench/workloads.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
SETUP_REPS = 15
# Set-up processes start this far apart. Started back to back they all
# land in the same few hundred ms of host state, and the median moves
# with it; spaced out, each starts from an idle CPU.
SETUP_GAP_S = 0.15


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a dphls checkout "
                 "(no dune-project or lib/ in the current directory)")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    # the shared dune cache lives outside the checkout; build without it
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=850)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({' '.join(cmd)})")


def main_args(workload, spec, seed):
    args = ["--workload", workload, "--seed", str(seed)]
    for key, value in spec["params"].items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        args += ["--set", f"{key}={value}"]
    return args


def setup_runs(workload, spec, seed):
    """Medians of cold set-up seconds and peak RSS over SETUP_REPS fresh
    processes, or None when one of them failed."""
    times, rss = [], []
    for _ in range(SETUP_REPS):
        time.sleep(SETUP_GAP_S)
        done = subprocess.run([EXE, "setup"] + main_args(workload, spec, seed),
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return None
        seconds, mb = done.stdout.strip().splitlines()[-1].split()
        times.append(float(seconds))
        rss.append(float(mb))
    return statistics.median(times), statistics.median(rss)


def run_workload(workload, spec, seed, seconds, trace):
    """Returns main.exe's result object, or None when it produced none."""
    setup = None
    if not trace:
        setup = setup_runs(workload, spec, seed)
        if setup is None:
            return None
    cmd = [EXE, "run", "--seconds", str(seconds), "--trace", str(trace)] \
        + main_args(workload, spec, seed)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=150)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if setup is not None:
        setup_s, rss_mb = setup
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        # batch workloads take their peak RSS from the set-up processes
        result["metrics"].setdefault("rss_peak_mb", {"value": rss_mb, "unit": "MB"})
    if done.returncode != 0 and result["failed"] == 0:
        return None
    return result


def main():
    bench = load_json("BENCHMARK.json") if os.path.isfile("BENCHMARK.json") else {}
    specs = load_json(os.path.join(HERE, "workloads.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(specs["workloads"]))
    parser.add_argument("--seed", type=int, default=specs["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    names = list(specs["workloads"]) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        sys.stderr.write(f"perfbench: {name} seed={args.seed} "
                         f"seconds={args.seconds} trace={args.trace}\n")
        t0 = time.time()
        result = run_workload(name, specs["workloads"][name], args.seed,
                              args.seconds, args.trace)
        if result is None:
            sys.exit(f"perfbench: {name} produced no result")
        results[name] = result
        for metric, v in result["metrics"].items():
            print(f"{name:15s} {metric:40s} {v['value']:14.6g} {v['unit']}")
        print(f"{name:15s} {'fail_share':40s} "
              f"{result['failed'] / result['attempted']:14.6g} share "
              f"({result['failed']} of {result['attempted']}, "
              f"{time.time() - t0:.1f} s)")

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(0 if final["failed"] == 0 and final["correct"] else 1)


if __name__ == "__main__":
    main()
