#!/usr/bin/env bash
# Single entry point for the verify recipe: the tier-1 build-and-test pass,
# then the ThreadSanitizer, AddressSanitizer, and UBSanitizer checks, the
# end-to-end benchmark's correctness checks (every workload, traced and
# untraced, at smoke size), and finally the micro-bench regression gates
# (judged against bench/baseline.jsonl).
# Usage:
#   tools/check_all.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc)"
(cd "$BUILD" && ctest --output-on-failure -j)

tools/check_tsan.sh
tools/check_asan.sh
tools/check_ubsan.sh
python3 bench/e2e/run.py --workload all --smoke
tools/check_bench.sh "$BUILD"

echo "check_all: tier-1 tests + TSan + ASan + UBSan + e2e smoke + bench gate clean"
