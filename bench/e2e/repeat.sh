#!/usr/bin/env bash
# Run the end-to-end benchmark repeatedly and summarise its spread.
#
#   bench/e2e/repeat.sh [-n RUNS] [-t SECONDS] [-s "SEEDS"] [-o FILE] [WORKLOAD...]
#
# Each workload runs RUNS times (default 10), cycling through SEEDS
# (default "1 2": seed 1 and the held-out seed 2, alternating), appending
# every result to FILE (default .bench_build/repeat.jsonl). Then prints each
# end-to-end metric's median and quartiles and flags any metric whose spread
# (q3 - q1) / median exceeds its bound in BENCHMARK.json. A flagged metric
# needs longer runs (-t) before it is dropped; the bounds are set from this
# output. Run from the repository root.
set -euo pipefail

runs=10
seconds=""
seeds="1 2"
out=".bench_build/repeat.jsonl"
while getopts "n:t:s:o:" opt; do
  case "$opt" in
    n) runs="$OPTARG" ;;
    t) seconds="$OPTARG" ;;
    s) seeds="$OPTARG" ;;
    o) out="$OPTARG" ;;
    *) sed -n '2,12p' "$0"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(gateway_mirai replay_synflood stream_epochs batch_eval)
fi
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
read -r -a seed_list <<< "$seeds"

mkdir -p "$(dirname "$out")"
for w in "${workloads[@]}"; do
  for ((i = 0; i < runs; i++)); do
    seed=${seed_list[$((i % ${#seed_list[@]}))]}
    echo "== $w run $((i + 1))/$runs seed $seed" >&2
    python3 bench/e2e/run.py --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace 0 --out "$out" | tail -n 1 >&2
  done
done
.bench_build/lumen_bench_compare --bench BENCHMARK.json --summary "$out"
