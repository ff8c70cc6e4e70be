#!/usr/bin/env python3
"""Builds the benchmark and the `maras` CLI from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <year_ingest|quarter_signals|serve_session> \
        --seed <n> --seconds <s> --trace <0|1>

Build output goes to $CARGO_TARGET_DIR (default: .bench_build in the
repository root); inputs and artifacts go to .bench_work/ and are removed
when the run ends. The last line of standard output is the JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

WORKLOADS = ("year_ingest", "quarter_signals", "serve_session")


def parse(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if not flag.startswith("--"):
            sys.exit(f"run.py: unexpected argument {flag!r}")
        try:
            opts[flag[2:]] = next(it)
        except StopIteration:
            sys.exit(f"run.py: {flag} needs a value")
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in opts:
            sys.exit(f"run.py: missing --{key}")
    if opts["workload"] not in WORKLOADS:
        sys.exit(f"run.py: --workload must be one of {', '.join(WORKLOADS)}")
    return opts


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = (
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(root, "Cargo.toml"), "--bin", "maras"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(root, "perfbench", "Cargo.toml")],
    )
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    opts = parse(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("run.py: no Cargo.toml at the repository root; nothing to build")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    build(root, target)
    work = os.path.join(root, ".bench_work", f"{opts['workload']}-{os.getpid()}")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", opts["workload"],
        "--seed", opts["seed"],
        "--seconds", opts["seconds"],
        "--trace", opts["trace"],
        "--maras", os.path.join(target, "release", "maras"),
        "--work", work,
    ]
    try:
        code = subprocess.run(cmd, cwd=root).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
