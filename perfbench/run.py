#!/usr/bin/env python3
"""Builds and runs the pricing-protocol benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs all four workloads, each in its own process so
that peak memory is per workload. Run it from the root of a checkout; it
builds `perfbench/` with cargo into $CARGO_TARGET_DIR (default
`.bench_build`) and writes each result, with the seed, nproc and a digest
of the measured sources, under `.bench_out/`. The last line of standard
output is the last workload's JSON result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["cold-ba256", "churn-ba128", "observed-hier256", "chaos-er64"]
# Sources whose content is measured; their digest stands in for a commit
# id, since a checkout need not be a git repository.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if not any(part in ("target", "__pycache__") for part in d.split(os.sep))
            for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def build(target_dir):
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr: standard output carries only results.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, workload, args, record):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", stem + ".spans.jsonl"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.exit(f"perfbench: {workload} failed ({done.returncode})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(stem + ".json", "w") as f:
        json.dump(dict(record, workload=workload, seed=args.seed, seconds=args.seconds,
                       trace=args.trace, result=result), f, indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(ROOT, target_dir))
    record = {"nproc": len(os.sched_getaffinity(0)), "source_sha256": source_digest()}
    print(f"nproc = {record['nproc']}, source_sha256 = {record['source_sha256']}")
    workloads = [args.workload] if args.workload else WORKLOADS
    results = [run(binary, w, args, record) for w in workloads]
    if len(workloads) > 1:
        for w, r in zip(workloads, results):
            print(f"{w}: correct = {r['correct']}, failed {r['failed']} of {r['attempted']}")
        print(json.dumps(results[-1]))


if __name__ == "__main__":
    main()
