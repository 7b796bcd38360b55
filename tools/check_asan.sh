#!/usr/bin/env bash
# Memory-check the capture and ingestion path: build the netio/pcap/ingest
# tests with AddressSanitizer and run them (the malformed-packet corpus and
# the fault-injecting source are designed to catch out-of-bounds parser
# reads here), plus the extractor's chunked context tables and eviction,
# the online detector training and scoring over that state (stream_test),
# the model width contract (ops_test drives predict on tables narrower
# and wider than the training table, and on untrained models), and the
# other byte-input decoders: the parser and JSON fuzzers (property_test),
# the JSON reader (json_test) and persisted models (persist_test), and the
# evaluation protocol (ModelValue::train/transform/predict) as the engine,
# the benchmarking suite and the synthesis search drive it: row caps and
# the correlation filter's column selection (engine_test, benchmark_test,
# synthesis_test), and model training against its oracles: the tree
# builder's rank indexing and column-major rank offsets, and the SGD loop's
# standardized copy of the table (ml_train_oracle_test), and the evaluation
# grid's held memory under a replaced global operator new / delete
# (grid_memory_test), and the live hand-off's recycled frame buffers under
# the same replacement (handoff_alloc_test).
# Usage:
#   tools/check_asan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-asan}"

cmake -B "$BUILD" -S . -DLUMEN_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc)" --target netio_test pcap_test ingest_test ingest_batch_equiv_test ingest_shard_test frontend_test spsc_ring_test stream_engine_test dense_test compiled_model_test ops_test telemetry_test extractor_golden_test stream_test flat_map_test property_test json_test persist_test engine_test benchmark_test synthesis_test ml_train_oracle_test grid_memory_test handoff_alloc_test

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"

"$BUILD/tests/netio_test"
"$BUILD/tests/pcap_test"
"$BUILD/tests/ingest_test"
"$BUILD/tests/ingest_batch_equiv_test"
"$BUILD/tests/ingest_shard_test"
"$BUILD/tests/frontend_test"
"$BUILD/tests/spsc_ring_test"
"$BUILD/tests/stream_engine_test"
"$BUILD/tests/dense_test"
"$BUILD/tests/compiled_model_test"
"$BUILD/tests/ops_test"
"$BUILD/tests/telemetry_test"
"$BUILD/tests/extractor_golden_test"
"$BUILD/tests/stream_test"
"$BUILD/tests/flat_map_test"
"$BUILD/tests/property_test"
"$BUILD/tests/json_test"
"$BUILD/tests/persist_test"
"$BUILD/tests/engine_test"
"$BUILD/tests/benchmark_test"
"$BUILD/tests/synthesis_test"
"$BUILD/tests/ml_train_oracle_test"
"$BUILD/tests/grid_memory_test"
"$BUILD/tests/handoff_alloc_test"

echo "ASan: netio_test + pcap_test + ingest_test + ingest_batch_equiv_test + ingest_shard_test + frontend_test + spsc_ring_test + stream_engine_test + dense_test + compiled_model_test + ops_test + telemetry_test + extractor_golden_test + stream_test + flat_map_test + property_test + json_test + persist_test + engine_test + benchmark_test + synthesis_test + ml_train_oracle_test + grid_memory_test + handoff_alloc_test clean"
