#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny run of every workload, untraced and
traced, must pass its correctness checks and print exactly the metrics
BENCHMARK.json declares, each with its declared unit.

    python3 perfbench/smoke.py

Run from the repository root; exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace}: exit code {done.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tables = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, table in tables.items():
            result = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                raise SystemExit(f"{workload} trace={trace}: checks failed: {result}")
            want = {m["name"]: m["unit"] for m in table}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                raise SystemExit(f"{workload} trace={trace}: missing {missing}, "
                                 f"unexpected {extra}, wrong units {wrong}")
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} attempted, 0 failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
