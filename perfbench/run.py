#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root); build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. Per-invocation
result files and span traces are written to <target dir>/perfbench-out.
Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = tool_output(["git", "rev-parse", "HEAD"])
    exe = os.path.join(target, "release", "mvbc-perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    return subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
