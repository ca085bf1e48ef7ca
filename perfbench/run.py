#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

    python3 perfbench/run.py --workload single_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. The build goes to .bench_build/perfbench;
each run's full report (every metric with its sample count, the run stamp)
and, when traced, its chrome://tracing file go to .bench_out/. The last
line of stdout is the result: correct, attempted, failed, and the metrics
BENCHMARK.json lists (end_to_end untraced, per_layer traced). A build
failure, a crash or a missing metric exits non-zero without a result; a
failed output check prints the result with "correct": false and exits 1.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")

# Kernel pool width per workload (TBNET_THREADS), fixed so runs compare.
THREADS = {"single_stream": "2", "poisson_server": "1", "protect_pipeline": "1"}
# Environment that would change what is measured: the deterministic scalar
# mode and fault injection stay off.
CLEARED = ("TBNET_DETERMINISTIC", "TBNET_FAULT_SEED", "TBNET_FAULT_RATE",
           "TBNET_FAULT_PERMANENT", "TBNET_FAULT_CORRUPTION")
# Injected world-switch stalls busy-wait for their whole length. No workload
# runs more dispatch workers than the 4 cores it was sized on, and a stall
# that sleeps pays the host's wake-up latency on top, which made the
# poisson_server rate and tail move by 30-50% between runs on a shared host.
FIXED_ENV = {"TBNET_SPIN_STALLS": "1"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="prove every output check rejects a bad input")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not build():
        return 2
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env.update(FIXED_ENV)
    if args.selftest:
        return subprocess.run([BINARY, "--selftest"], env=env).returncode

    names = metric_names(args.trace)
    env["TBNET_THREADS"] = THREADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("perfbench: program exited with %d" % proc.returncode)
        return 3
    report = json.loads(lines[-1])
    metrics = {}
    for name in names:
        m = report["metrics"].get(name)
        if m is None or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            log("perfbench: metric %s missing or not finite" % name)
            return 3
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    result = {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    for line in lines[:-1]:
        log(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
