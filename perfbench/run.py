#!/usr/bin/env python3
"""Build and run the ASV benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <ism_qhd|dnn_qhd|serve_loopback> \
        --seed <n> --seconds <s> --trace <0|1>

Builds two variants of the benchmark package (perfbench/Cargo.toml) from
source: the repository's default parallel build, which measures, and the
sequential build (--no-default-features), which the traced run (--trace 1)
uses for its exclusive-time sum check.  Both are built on every call (a
no-op once built), so the first call of a checkout pays for both builds.
Build output goes to stderr; the measuring binary's stdout passes through,
and its last line is the result object.  In a traced run the sequential
check's residual is added to that object as asv.exclusive_residual_pct, and
a failed check marks the result incorrect.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target_dir, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target_dir] + extra
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(target_dir, "release", "asv-perfbench")


def main():
    args = sys.argv[1:]
    # The package builds against the repository's crates; without them
    # there is nothing to measure.
    if not os.path.isfile(os.path.join(ROOT, "crates", "asv", "Cargo.toml")):
        fail("run from a checkout of the repository (crates/ not found)")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    parallel = build(os.path.join(target, "parallel"), [])
    sequential = build(os.path.join(target, "sequential"), ["--no-default-features"])

    trace = "1" in [b for a, b in zip(args, args[1:]) if a == "--trace"]
    residual = None
    if trace:
        check = subprocess.run([sequential, "--check-exclusive"] + args,
                               stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        lines = check.stdout.strip().splitlines()
        residual = json.loads(lines[-1]) if lines else None
        if check.returncode != 0 or residual is None:
            residual = dict(residual or {}, failed=True)

    run = subprocess.run([parallel] + args, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"the benchmark printed no result (exit code {run.returncode})")
    result = json.loads(lines[-1])
    if residual is not None:
        result["metrics"]["asv.exclusive_residual_pct"] = {
            "value": residual.get("exclusive_residual_pct", 100.0), "unit": "%"}
        if residual.get("failed"):
            result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    code = run.returncode
    if code == 0 and not result["correct"]:
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
