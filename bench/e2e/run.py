#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

    python3 bench/e2e/run.py --workload gateway_mirai --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/ (configured
once, then incremental); its output is shown only on failure. Every argument is
passed to lumen_bench unchanged, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, without printing a result, when
the build fails (for example when src/ is missing).
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
SOURCE_DIR = os.path.join("bench", "e2e")
TARGETS = ["lumen_bench", "lumen_bench_compare"]
RUN_TIMEOUT_S = 175


def step(cmd):
    """Run one build command; show its output only when it fails."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise subprocess.CalledProcessError(done.returncode, cmd)


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD_DIR, "-j4", "--target"] + TARGETS)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("lumen_bench build failed: %s" % e, file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "lumen_bench")
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("lumen_bench timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
