#!/usr/bin/env bash
# Micro-benchmark regression gates. Runs each gated bench three times and
# judges the fresh records against bench/baseline.jsonl with
# lumen_bench_compare and the bounds in bench/gates.json (WORSE = a gate's
# median moved past its bound). A guard first fails if a gate is missing
# from the fresh records (a renamed metric would silently skip its gate),
# has fewer than 10 baseline values, or if the baseline's own spread is
# above a bound. Fresh records go to <build-dir>/bench_gates.jsonl.
# Usage: tools/check_bench.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
BENCHES=(bench_ingest bench_ml bench_telemetry bench_stream)
COMPARE=.bench_build/lumen_bench_compare

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target "${BENCHES[@]}"
[ -f .bench_build/CMakeCache.txt ] ||
  cmake -S bench/e2e -B .bench_build -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build .bench_build -j "$(nproc)" --target lumen_bench_compare >/dev/null

FRESH="$BUILD/bench_gates.jsonl"
: >"$FRESH"
for round in 1 2 3; do
  for b in "${BENCHES[@]}"; do
    echo "check_bench: $b round $round"
    "$BUILD/bench/$b" >"$BUILD/$b.log"
    tail -n 1 "$BUILD/$b.log" >>"$FRESH"
  done
done

python3 - "$FRESH" <<'EOF'
import json, sys
def load(path):
    return [json.loads(line) for line in open(path) if line.strip()]
fresh, base = load(sys.argv[1]), load("bench/baseline.jsonl")
nproc = min(r["host"]["nproc"] for r in fresh)
bad = False
for gate in json.load(open("bench/gates.json"))["end_to_end"]:
    name, n = gate["name"], sum(gate["name"] in r["metrics"] for r in base)
    if not any(name in r["metrics"] for r in fresh):
        if name == "ingest.drain_4_vs_1" and nproc < 4:
            print(f"check_bench: {name} skipped ({nproc} hardware threads < 4)")
            continue
        print(f"check_bench: FAIL — gate {name} missing from the fresh records")
        bad = True
    if n < 10:
        print(f"check_bench: FAIL — gate {name} has {n} baseline values (< 10)")
        bad = True
sys.exit(1 if bad else 0)
EOF

"$COMPARE" --bench bench/gates.json --summary bench/baseline.jsonl \
  >"$BUILD/bench_baseline_summary.txt" || {
  cat "$BUILD/bench_baseline_summary.txt"
  echo "check_bench: FAIL — baseline spread above a bound in bench/gates.json"
  exit 1
}
"$COMPARE" --bench bench/gates.json bench/baseline.jsonl "$FRESH"
