#!/usr/bin/env python3
"""Build asap-server and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`); scratch
files go to `.bench_work`. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(os.getcwd(), target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The shipped server binary, built by the repository's own
        # workspace and release profile.
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "asap-server", "--bin", "asap-server"],
        # The load generator, oracle and layer replay.
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        status = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode
        if status != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return status or 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--server",
        os.path.join(release, "asap-server"),
        "--work",
        os.path.join(root, ".bench_work"),
    ]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
