#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload library_batch --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the repository's `diffpattern` library
(through the root CMakeLists.txt) and the benchmark binary into
.bench_build/, trains the fixture checkpoint once (cached in
.bench_build/fixture/, excluded from every timing), then runs one workload.
The last line of stdout is the result object; the exit status is 0 only
when every correctness check passed.

    --held-out      draw a fresh seed at random instead of --seed (printed,
                    so the run can be repeated), for re-checking a claim on
                    a seed nobody tuned against
    --self-test     build and run the tests of the benchmark's arithmetic
"""
import argparse
import json
import os
import secrets
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIBRARY_BUILD = os.path.join(BUILD, "repo")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
FIXTURE = os.path.join(BUILD, "fixture", "fixture.ckpt")
WORKLOADS = ("library_batch", "online_mixed", "train")
RUN_TIMEOUT_S = 170
# Development seeds stay below this; --held-out draws above it.
HELD_OUT_BASE = 1 << 32


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def step(command, log_file):
    with open(log_file, "a") as out:
        done = subprocess.run(command, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT)
    if done.returncode != 0:
        with open(log_file) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        log(f"failed: {' '.join(command)} (log: {log_file})")
        sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(LIBRARY_BUILD, "CMakeCache.txt")):
        log("configuring the library build")
        step(["cmake", "-S", ROOT, "-B", LIBRARY_BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], build_log)
    step(["cmake", "--build", LIBRARY_BUILD, "--target", "diffpattern",
          "-j", jobs], build_log)
    if not os.path.exists(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BENCH_BUILD,
              "-DCMAKE_BUILD_TYPE=Release",
              f"-DDP_LIBRARY_BUILD={LIBRARY_BUILD}"], build_log)
    step(["cmake", "--build", BENCH_BUILD, "-j", jobs], build_log)
    return os.path.join(BENCH_BUILD, "perfbench")


def ensure_fixture(binary):
    if os.path.exists(FIXTURE):
        return
    log("training the fixture checkpoint (once per checkout)")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    partial = FIXTURE + ".partial"
    done = subprocess.run([binary, "fixture", "--out", partial], cwd=ROOT,
                          stdout=sys.stderr)
    if done.returncode != 0:
        log("fixture training failed")
        sys.exit(1)
    os.replace(partial, FIXTURE)


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(BENCH_BUILD, "perfbench_tests")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.held_out:
        args.seed = HELD_OUT_BASE + secrets.randbelow(1 << 48)
        log(f"held-out seed {args.seed}")
    ensure_fixture(binary)

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)["digests"]
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--fixture", FIXTURE,
               "--trace-dir", trace_dir, "--git-describe", git_describe()]
    for name, digest in expected.items():
        command += ["--expect", f"{name}={digest}"]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = done.stdout.rstrip("\n").split("\n")
    result_line = lines[-1] if lines else ""
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(result_line)
    except json.JSONDecodeError:
        log("the benchmark printed no result")
        sys.exit(1)
    wanted = declared_metrics(args.trace == 1)
    if list(result["metrics"]) != wanted:
        log("metrics printed differ from those BENCHMARK.json declares")
        sys.exit(1)
    print(result_line, flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
