#!/usr/bin/env python3
"""Builds the geodns benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) that depends on the repository's crates by path;
it is built into $CARGO_TARGET_DIR (default .bench_build). Each
invocation runs the workload in a fresh process, and the last line of
standard output is that process's JSON result. Build output goes to
standard error. A failed build or run exits non-zero without a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim_paper", "sim_wide", "dns_query", "dns_control"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
# glibc's default mmap threshold moves with the sizes of blocks freed so
# far, so which large blocks stay resident after a free, and with it the
# peak RSS and the cost of rebuilding a world, depended on the order of
# frees: identical code read 13 to 19 MiB peak on sim_paper across seeds.
# Fixed thresholds return every block of 128 KiB or more to the kernel
# when freed and never trim the heap, so peak_rss_mib tracks live data.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=131072:glibc.malloc.trim_threshold=1073741824"


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"perfbench: build failed with exit code {done.returncode}", file=sys.stderr)
        return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload to a smoke-test size")
    args = p.parse_args()

    target = target_dir()
    if not build(target):
        return 1
    binary = os.path.join(target, "release", "geodns-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans-dir", os.path.join(target, "perfbench-spans")]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
