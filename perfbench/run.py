#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <serve-short|batch-long|maspar-mixed> \
        --seed N --seconds S --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode,
offline, into $CARGO_TARGET_DIR (default: .bench_build at the repository
root); every argument is passed through to the built binary, whose exit
code this script returns. The last line of standard output is the result
object.
"""

import os
import subprocess
import sys

# A first run builds from source; the two together stay under 15 minutes,
# and a run on its own under 3.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
    ]
    try:
        # Build output goes to stderr: stdout carries only the result.
        built = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        ran = subprocess.run([binary, *sys.argv[1:]], cwd=root, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
