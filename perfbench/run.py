#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload hot|cold|capped|routed \\
        [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds a Release tree in .bench_build/ (the
library, schedule_server, schedule_router and the perfbench binary);
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout stays the benchmark's JSON result. The exit code is
perfbench's: 0 when every answer was right, 1 on a wrong answer, 2 when a
step (the build, a spawn, a drain, ...) failed.

Seed 1 is the default; use seed 2 to check a claim on a seed that was not
used while the change was written.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BUILD = pathlib.Path(".bench_build")
TARGETS = ["perfbench", "schedule_server", "schedule_router"]
RUN_TIMEOUT_S = 170


def build() -> None:
    def step(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: step failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)

    if not (BUILD / "CMakeCache.txt").exists():
        step(["cmake", "-S", "perfbench", "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
          "--target", *TARGETS])


def revision() -> str:
    """The git commit when there is one, and always a digest of the
    sources the run was built from."""
    digest = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "examples", "perfbench"]
    for root in roots:
        path = pathlib.Path(root)
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f).encode())
                digest.update(f.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True, check=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return f"git:{commit},sources:{digest.hexdigest()[:12]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot", "cold", "capped", "routed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    workdir = BUILD / "run"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--server", str(BUILD / "treesched" / "schedule_server"),
           "--router", str(BUILD / "treesched" / "schedule_router"),
           "--workdir", str(workdir),
           "--revision", revision()]
    sys.stdout.flush()
    try:
        # perfbench's servers die with it (PR_SET_PDEATHSIG), so killing
        # it on a timeout leaves no process behind.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: step failed: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
