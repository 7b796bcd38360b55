#!/usr/bin/env bash
# Race-check the threading layer: build the pool/sweep tests with
# ThreadSanitizer and run them on an oversubscribed pool, whose loops
# claim their indices from one shared atomic counter, plus the random
# forest's tree workers, which read one shared rank encoding of the
# training table, also when an AutoML fit's candidates or an ensemble's
# members share that encoding (ml_train_oracle_test), and concurrent
# ensemble and AutoML grid cells (sweep_test). Usage:
#   tools/check_tsan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-tsan}"

cmake -B "$BUILD" -S . -DLUMEN_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc)" --target parallel_test sweep_test ingest_test ingest_batch_equiv_test ingest_shard_test frontend_test spsc_ring_test stream_engine_test flat_map_test dense_test compiled_model_test telemetry_test ml_train_oracle_test

# Oversubscribe the pool past hardware_concurrency to shake out races;
# LUMEN_THREADS_FORCE bypasses the default clamp to the core count.
export LUMEN_THREADS="${LUMEN_THREADS:-4}"
export LUMEN_THREADS_FORCE="${LUMEN_THREADS_FORCE:-1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

"$BUILD/tests/parallel_test"
"$BUILD/tests/sweep_test"
"$BUILD/tests/ingest_test"
"$BUILD/tests/ingest_batch_equiv_test"
"$BUILD/tests/ingest_shard_test"
"$BUILD/tests/frontend_test"
"$BUILD/tests/spsc_ring_test"
"$BUILD/tests/stream_engine_test"
"$BUILD/tests/flat_map_test"
"$BUILD/tests/dense_test"
"$BUILD/tests/compiled_model_test"
"$BUILD/tests/telemetry_test"
"$BUILD/tests/ml_train_oracle_test"

echo "TSan: parallel_test + sweep_test + ingest_test + ingest_batch_equiv_test + ingest_shard_test + frontend_test + spsc_ring_test + stream_engine_test + flat_map_test + dense_test + compiled_model_test + telemetry_test + ml_train_oracle_test clean"
