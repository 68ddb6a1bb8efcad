#!/usr/bin/env python3
"""Repository benchmark entry point (see BENCHMARK.json and README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the simulator from ../src and the benchmark binary (svsim_perfbench) into
.bench_build/perfbench under the checkout root (incremental after the first
run), runs one closed-loop workload, and relays svsim_perfbench's output. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no simulator sources at {os.path.join(ROOT, 'src')}")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 2

    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode

    cmd = [os.path.join(BUILD, "svsim_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run has killed and reaped svsim_perfbench.
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    # svsim_perfbench prints its result line only when it exits 0.
    sys.stdout.write(proc.stdout)
    if proc.returncode:
        log(f"svsim_perfbench exited with {proc.returncode}")
        return proc.returncode
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        log("svsim_perfbench printed no result line")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
