#!/usr/bin/env python3
"""Build and run the streamcalc benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the unmodified `serve` binary from
the repository's workspace and this benchmark package (a workspace of
its own), both into $CARGO_TARGET_DIR (default `.bench_build`), then
runs the benchmark. The last line of standard output is the JSON result;
build output goes to standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "nc-serve", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    out_dir = os.path.relpath(os.path.join(target, "perfbench"), ROOT)
    cmd = [os.path.join(target, "release", "perfbench"),
           "--serve-bin", os.path.join(target, "release", "serve"),
           "--out-dir", out_dir] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
