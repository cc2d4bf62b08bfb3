#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of the repository.  The build goes to $CARGO_TARGET_DIR
(default: .bench_build); inputs, results and spans go to .bench_work.  The
last line of stdout is the run's JSON result; with `--workload all` every
workload runs in turn and the last line merges their results, metric names
prefixed by workload.  Cargo's output goes to stderr.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1-rwf", "table1-text", "racy-stream", "service"]


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: the build failed")
    return os.path.join(target, "release", "perfbench")


def run_one(exe, args, workload):
    """Runs one workload; returns (exit code, last stdout line)."""
    command = [exe, *args, "--workload", workload, "--work-dir", os.path.join(ROOT, ".bench_work")]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    lines = result.stdout.strip().splitlines()
    return result.returncode, lines[-1] if lines else ""


def main(argv):
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        sys.exit("usage: run.py --workload <%s|all> --seed N --seconds S --trace 0|1" % "|".join(WORKLOADS))
    at = argv.index("--workload")
    workload = argv[at + 1]
    rest = argv[:at] + argv[at + 2:]
    exe = build()
    if workload != "all":
        code, _ = run_one(exe, rest, workload)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        code, last = run_one(exe, rest, name)
        if code != 0:
            return code
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][name + "." + metric] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
