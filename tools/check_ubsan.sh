#!/usr/bin/env bash
# UB-check the whole suite: build with UndefinedBehaviorSanitizer
# (LUMEN_SANITIZE=undefined plus float-cast-overflow, which GCC's
# -fsanitize=undefined leaves out; non-recoverable) and run every ctest
# target. The dense-kernel library's pointer arithmetic over strided panels,
# the exponent-bit 2^n construction in the vector exp, and float -> integer
# casts of spec parameters (window indices, column names) are the prime
# suspects this exists to watch. Usage:
#   tools/check_ubsan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-ubsan}"

cmake -B "$BUILD" -S . -DLUMEN_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc)"

export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"

(cd "$BUILD" && ctest --output-on-failure -j)

echo "UBSan: full ctest suite clean"
