#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload unsat-proof --seed 1 --seconds 15 --trace 0

Builds perfbench/bench.exe and the fpgasat CLI with dune (shared dune cache
off, so every file written stays under the checkout), then runs the
benchmark with the given arguments. The benchmark's standard output is
passed through; its last line is the JSON result. Build output goes to
standard error. Exits non-zero, without a result, when the build fails.
"""

import os
import signal
import subprocess
import sys

BENCH = "./perfbench/bench.exe"
FPGASAT = "./bin/fpgasat.exe"
OUT_DIR = ".perfbench"
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", BENCH, FPGASAT],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [
        os.path.join("_build", "default", BENCH),
        *sys.argv[1:],
        "--fpgasat",
        os.path.join("_build", "default", FPGASAT),
        "--out-dir",
        OUT_DIR,
    ]
    # its own process group, so a hung run is killed together with the
    # server child it started
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
