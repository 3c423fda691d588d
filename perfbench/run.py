#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`). The workload runs in one process pinned to
one rayon thread. The last line of standard output is the result JSON;
the lines before it are notes (build environment, run shape, the exact
quality figures). Exits non-zero, printing no result, if the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["paper-figs", "churn-100k", "queue-10k"]
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def git_describe():
    try:
        out = subprocess.run(
            ["git", "-C", HERE, "describe", "--always", "--dirty"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["RAYON_NUM_THREADS"] = "1"
    build_cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        build = subprocess.run(build_cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError as e:
        print(f"perfbench: malformed result line: {e}", file=sys.stderr)
        return 1

    build_env = {
        "nproc": os.cpu_count(),
        "rayon_threads": int(env["RAYON_NUM_THREADS"]),
        "profile": "release",
        "git_describe": git_describe(),
    }
    print("# env " + json.dumps(build_env, sort_keys=True))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
