#!/usr/bin/env bash
# Single entry point for the verify recipe: the tier-1 build-and-test pass,
# then the ThreadSanitizer, AddressSanitizer, and UBSanitizer checks,
# and finally the throughput regression gates. Usage:
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
tools/check_bench.sh "$BUILD"

echo "check_all: tier-1 tests + TSan + ASan + UBSan + bench gate clean"
