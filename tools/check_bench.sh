#!/usr/bin/env bash
# Throughput regression gates:
#  * bench_ingest — fail if the 4-consumer configuration scores fewer
#    packets per second than the 1-consumer one (the de-serialized ingest
#    path must never make adding consumers a loss); fail if the
#    micro-batched online scoring path is slower than the row-at-a-time
#    baseline, or if its alert set diverged from the row-at-a-time run;
#    fail the shard-scaling gate if the sharded path regresses (multi-core
#    hosts: 4-shard drain must reach 2x the 1-shard drain; single-core
#    hosts: the 1-shard drain must stay within 10% of the single-queue
#    drain), if the sharded record stream diverged from the single-queue
#    one, or if the hot-swap run lost packets or never applied a swap;
#    fail the socket gate if the loopback TCP gateway drain falls below
#    0.8x the in-process replay drain, if the socket-ingested record
#    stream diverged from replay, or if per-connection accounting lost
#    frames.
#  * bench_ml — fail if any model's batched dense-kernel scoring path is
#    slower than the pre-PR per-row path it replaced.
#  * bench_telemetry — fail if full instrumentation costs the ingest
#    runtime more than 2% of its uninstrumented drain throughput.
#  * bench_stream — fail if the compiled per-packet streaming chain costs
#    more than 1.3x the bare KitsuneScorer path on the same stream (the
#    operator plumbing must stay a thin wrapper around the model math).
# Usage:
#   tools/check_bench.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

# ---- tolerant JSON field extraction --------------------------------------
# The artifacts come from telemetry::json::Writer, which may legitimately
# split any object or array across lines (pretty-printing). These helpers
# therefore never assume one-object-per-line: the whole document is folded
# into a token stream (structural characters stripped) and keys are matched
# as exact "key": tokens, so layout changes cannot silently break a gate.

# json_num FILE KEY -> the value after the first "KEY": token.
json_num() {
  awk -v k="\"$2\":" '
    { buf = buf " " $0 }
    END {
      gsub(/[,{}\[\]]/, " ", buf)
      n = split(buf, t, /[ \t\r\n]+/)
      for (i = 1; i < n; i++) if (t[i] == k) { print t[i + 1]; exit }
    }' "$1"
}

# json_pair FILE KEY1 VAL1 KEY2 -> the value after "KEY2": in the object
# where "KEY1": VAL1 (keys in Writer emission order).
json_pair() {
  awk -v k1="\"$2\":" -v v1="$3" -v k2="\"$4\":" '
    { buf = buf " " $0 }
    END {
      gsub(/[,{}\[\]]/, " ", buf)
      n = split(buf, t, /[ \t\r\n]+/)
      for (i = 1; i < n; i++) {
        if (t[i] == k1 && t[i + 1] == v1) armed = 1
        else if (armed && t[i] == k2) { print t[i + 1]; exit }
      }
    }' "$1"
}

# json_named_nums FILE NAMEKEY NUMKEY -> "name value" per object, for
# sweeping arrays of {"NAMEKEY": "...", ..., "NUMKEY": N} objects.
json_named_nums() {
  awk -v nk="\"$2\":" -v vk="\"$3\":" '
    { buf = buf " " $0 }
    END {
      gsub(/[,{}\[\]]/, " ", buf)
      n = split(buf, t, /[ \t\r\n]+/)
      name = ""
      for (i = 1; i < n; i++) {
        if (t[i] == nk) { name = t[i + 1]; gsub(/"/, "", name) }
        else if (t[i] == vk && name != "") { print name, t[i + 1]; name = "" }
      }
    }' "$1"
}

# Parser self-test against a deliberately pretty-printed fixture: if the
# Writer ever changes layout, this is the failure mode the helpers must
# survive — catch parser rot here, not as a silently-passing gate.
selftest() {
  local fx="$BUILD/check_bench_selftest.json"
  mkdir -p "$BUILD"
  cat >"$fx" <<'EOF'
{
  "configs": [
    {
      "consumers": 1,
      "pkts_per_sec":
        1111.5
    },
    { "consumers": 4, "pkts_per_sec": 4444.0 }
  ],
  "online_models": [
    { "model": "KitNET",
      "speedup": 2.5, "compiled_vs_reference": 1.9 },
    {
      "model": "AutoEncoder", "speedup": 1.5,
      "compiled_vs_reference":
        0.97
    }
  ],
  "online_compiled": [
    { "precision": "f64", "score_ns_per_pkt": 905.0,
      "max_rel_divergence": 0.000000, "alerts_identical": true },
    {
      "precision": "f32",
      "score_ns_per_pkt": 478.1,
      "speedup_vs_reference": 1.97,
      "max_rel_divergence": 0.000001,
      "alerts_identical": true
    }
  ],
  "online":
  {
    "row_score_ns_per_pkt": 2000.0,
    "batched_score_ns_per_pkt":
      900.25,
    "alerts_identical": true
  }
}
EOF
  [ "$(json_pair "$fx" consumers 1 pkts_per_sec)" = "1111.5" ] &&
    [ "$(json_pair "$fx" consumers 4 pkts_per_sec)" = "4444.0" ] &&
    [ "$(json_num "$fx" batched_score_ns_per_pkt)" = "900.25" ] &&
    [ "$(json_num "$fx" alerts_identical)" = "true" ] &&
    [ "$(json_pair "$fx" precision '"f32"' score_ns_per_pkt)" = "478.1" ] &&
    [ "$(json_pair "$fx" precision '"f32"' max_rel_divergence)" = "0.000001" ] &&
    [ "$(json_pair "$fx" precision '"f64"' alerts_identical)" = "true" ] &&
    [ "$(json_named_nums "$fx" model speedup)" = "$(printf 'KitNET 2.5\nAutoEncoder 1.5')" ] &&
    [ "$(json_named_nums "$fx" model compiled_vs_reference)" = "$(printf 'KitNET 1.9\nAutoEncoder 0.97')" ] || {
    echo "check_bench: JSON parser self-test FAILED" >&2
    exit 1
  }
  rm -f "$fx"
}
selftest
echo "check_bench: JSON parser self-test passed"

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j --target bench_ingest bench_ml bench_telemetry bench_stream

"$BUILD/bench/bench_ingest"

# bench_ingest writes its JSON artifact into the working directory.
JSON="BENCH_ingest.json"
[ -f "$JSON" ] || { echo "check_bench: $JSON not produced" >&2; exit 1; }

rate_for() {
  # Extract pkts_per_sec for a consumer count from the configs array.
  json_pair "$JSON" consumers "$1" pkts_per_sec
}

ONE="$(rate_for 1)"
FOUR="$(rate_for 4)"
[ -n "$ONE" ] && [ -n "$FOUR" ] || {
  echo "check_bench: could not parse consumer rates from $JSON" >&2
  exit 1
}

if awk -v a="$FOUR" -v b="$ONE" 'BEGIN { exit !(a < b) }'; then
  echo "check_bench: FAIL — 4-consumer ($FOUR pkts/s) below 1-consumer ($ONE pkts/s)" >&2
  exit 1
fi

if [ "$(json_num "$JSON" paced_deterministic)" != "true" ]; then
  echo "check_bench: FAIL — paced replay was not deterministic" >&2
  exit 1
fi

echo "check_bench: 4-consumer $FOUR pkts/s >= 1-consumer $ONE pkts/s"

# --- online path: micro-batched scoring must beat row-at-a-time ----------
ROW_NS="$(json_num "$JSON" row_score_ns_per_pkt)"
BATCHED_NS="$(json_num "$JSON" batched_score_ns_per_pkt)"
[ -n "$ROW_NS" ] && [ -n "$BATCHED_NS" ] || {
  echo "check_bench: could not parse online score costs from $JSON" >&2
  exit 1
}

if awk -v b="$BATCHED_NS" -v r="$ROW_NS" 'BEGIN { exit !(b > r) }'; then
  echo "check_bench: FAIL — micro-batched online scoring ($BATCHED_NS ns/pkt) slower than row-at-a-time ($ROW_NS ns/pkt)" >&2
  exit 1
fi

if [ "$(json_num "$JSON" alerts_identical)" != "true" ]; then
  echo "check_bench: FAIL — micro-batched consumer alert set diverged from row-at-a-time" >&2
  exit 1
fi

echo "check_bench: online micro-batched $BATCHED_NS ns/pkt <= row-at-a-time $ROW_NS ns/pkt, alerts identical"

# --- compiled inference: plan speed and divergence gates ------------------
# The f64 plan is the detector's own scoring path, so re-scoring through
# compile(kF64) must be bit-identical (divergence exactly 0) with the same
# alert set. f32 is the opt-in fast precision: it must clear the absolute
# 700 ns/pkt budget AND a 1.4x speedup over the f64 plan, with score
# divergence within 1e-3 and an identical alert set.
F64_DIV="$(json_pair "$JSON" precision '"f64"' max_rel_divergence)"
F64_ALERTS="$(json_pair "$JSON" precision '"f64"' alerts_identical)"
F32_NS="$(json_pair "$JSON" precision '"f32"' score_ns_per_pkt)"
F32_SPD="$(json_pair "$JSON" precision '"f32"' speedup_vs_reference)"
F32_DIV="$(json_pair "$JSON" precision '"f32"' max_rel_divergence)"
F32_ALERTS="$(json_pair "$JSON" precision '"f32"' alerts_identical)"
[ -n "$F64_DIV" ] && [ -n "$F32_NS" ] && [ -n "$F32_SPD" ] &&
  [ -n "$F32_DIV" ] || {
  echo "check_bench: could not parse online_compiled section from $JSON" >&2
  exit 1
}

if awk -v d="$F64_DIV" 'BEGIN { exit !(d != 0.0) }' ||
  [ "$F64_ALERTS" != "true" ]; then
  echo "check_bench: FAIL — compiled f64 plan not bit-identical to the detector's scoring path (divergence $F64_DIV, alerts_identical=$F64_ALERTS)" >&2
  exit 1
fi
if awk -v n="$F32_NS" 'BEGIN { exit !(n > 700.0) }'; then
  echo "check_bench: FAIL — compiled f32 KitNET plan at $F32_NS ns/pkt exceeds the 700 ns/pkt budget" >&2
  exit 1
fi
if awk -v s="$F32_SPD" 'BEGIN { exit !(s < 1.4) }'; then
  echo "check_bench: FAIL — compiled f32 KitNET plan only ${F32_SPD}x the f64 plan (need >= 1.4x)" >&2
  exit 1
fi
if awk -v d="$F32_DIV" 'BEGIN { exit !(d > 0.001) }' ||
  [ "$F32_ALERTS" != "true" ]; then
  echo "check_bench: FAIL — compiled f32 divergence $F32_DIV (bound 1e-3) or alert set diverged (alerts_identical=$F32_ALERTS)" >&2
  exit 1
fi
echo "check_bench: compiled f64 bit-identical; f32 $F32_NS ns/pkt (${F32_SPD}x, divergence $F32_DIV) within bounds"

# Every deployable scorer: the compiled plan must not lose to the model's
# own scoring path (for KitNET / AutoEncoder: the f32 plan against the f64
# plan). compiled_vs_reference is reference_ns / compiled_ns; several plans
# replay identical arithmetic, so the ratio sits at 1.0 +- timer noise on a
# shared host — gate at 0.85 to reject real regressions, not jitter.
FAILED=0
FOUND=0
while read -r name ratio; do
  [ -n "$name" ] && [ -n "$ratio" ] || continue
  FOUND=1
  if awk -v r="$ratio" 'BEGIN { exit !(r < 0.85) }'; then
    echo "check_bench: FAIL — $name compiled plan at ${ratio}x of its reference path" >&2
    FAILED=1
  fi
done < <(json_named_nums "$JSON" model compiled_vs_reference)
[ "$FOUND" -eq 1 ] || {
  echo "check_bench: no compiled_vs_reference ratios found in $JSON" >&2
  exit 1
}
[ "$FAILED" -eq 0 ] || exit 1

echo "check_bench: all compiled model plans at or above reference throughput"

# --- sharded ingestion: scaling, equivalence, hot swap -------------------
SHARD_VS_SQ="$(json_num "$JSON" sharded_vs_single_queue)"
SCALING="$(json_num "$JSON" scaling_4shard_vs_1shard)"
MULTI_CORE="$(json_num "$JSON" multi_core)"
[ -n "$SHARD_VS_SQ" ] && [ -n "$SCALING" ] && [ -n "$MULTI_CORE" ] || {
  echo "check_bench: could not parse sharded section from $JSON" >&2
  exit 1
}

if [ "$MULTI_CORE" = "true" ]; then
  # With >= 4 hardware threads the shard consumers run in parallel, so the
  # 4-shard unpaced drain must scale to at least 2x the 1-shard drain.
  if awk -v s="$SCALING" 'BEGIN { exit !(s < 2.0) }'; then
    echo "check_bench: FAIL — 4-shard drain only ${SCALING}x the 1-shard drain (need >= 2.0x on a multi-core host)" >&2
    exit 1
  fi
  echo "check_bench: 4-shard drain ${SCALING}x the 1-shard drain (multi-core host)"
else
  # One core time-slices the shard threads, so scaling is meaningless;
  # instead the routing layer itself must stay cheap: the 1-shard drain
  # must hold at least 0.9x the single-queue drain.
  if awk -v r="$SHARD_VS_SQ" 'BEGIN { exit !(r < 0.9) }'; then
    echo "check_bench: FAIL — sharded drain at ${SHARD_VS_SQ}x of single-queue (need >= 0.9x on a single-core host)" >&2
    exit 1
  fi
  echo "check_bench: sharded drain ${SHARD_VS_SQ}x of single-queue (single-core host)"
fi

if [ "$(json_num "$JSON" sharded_alerts_identical)" != "true" ]; then
  echo "check_bench: FAIL — sharded record stream diverged from the single-queue run" >&2
  exit 1
fi

SWAPS="$(json_num "$JSON" swaps_applied)"
if [ "$(json_num "$JSON" hot_swap_accounted)" != "true" ]; then
  echo "check_bench: FAIL — hot-swap run lost packets" >&2
  exit 1
fi
if awk -v s="${SWAPS:-0}" 'BEGIN { exit !(s < 1) }'; then
  echo "check_bench: FAIL — hot-swap run never applied a deployed scorer (swaps_applied=${SWAPS:-0})" >&2
  exit 1
fi

echo "check_bench: sharded records identical, hot swap applied ${SWAPS}x and accounted"

# --- socket front-end: gateway drain, alert identity, accounting ---------
SOCK_VS_REPLAY="$(json_num "$JSON" socket_vs_replay)"
[ -n "$SOCK_VS_REPLAY" ] || {
  echo "check_bench: could not parse socket section from $JSON" >&2
  exit 1
}

# The gateway adds an epoll loop, framing decode, and a loopback byte copy
# on top of the replay path; that overhead must stay within 20% of the
# in-process drain.
if awk -v r="$SOCK_VS_REPLAY" 'BEGIN { exit !(r < 0.8) }'; then
  echo "check_bench: FAIL — socket drain at ${SOCK_VS_REPLAY}x of replay drain (need >= 0.8x)" >&2
  exit 1
fi

# Alert identity is a correctness gate, not a perf one: the wire carries
# the exact capture index and timestamp, so socket-ingested records must
# match in-process replay bit for bit.
if [ "$(json_num "$JSON" socket_alerts_identical)" != "true" ]; then
  echo "check_bench: FAIL — socket record stream diverged from in-process replay" >&2
  exit 1
fi

if [ "$(json_num "$JSON" socket_accounted)" != "true" ]; then
  echo "check_bench: FAIL — socket run lost frames (per-connection accounting broke)" >&2
  exit 1
fi

echo "check_bench: socket drain ${SOCK_VS_REPLAY}x of replay, records identical, per-connection accounting exact"

# --- bench_ml: batched scoring must not lose to the per-row path ---------
"$BUILD/bench/bench_ml"

ML_JSON="BENCH_ml.json"
[ -f "$ML_JSON" ] || { echo "check_bench: $ML_JSON not produced" >&2; exit 1; }

FAILED=0
FOUND=0
while read -r name speedup; do
  [ -n "$name" ] && [ -n "$speedup" ] || continue
  FOUND=1
  if awk -v s="$speedup" 'BEGIN { exit !(s < 1.0) }'; then
    echo "check_bench: FAIL — $name batched path slower than per-row (${speedup}x)" >&2
    FAILED=1
  fi
done < <(json_named_nums "$ML_JSON" name speedup)
[ "$FOUND" -eq 1 ] || {
  echo "check_bench: no model speedups found in $ML_JSON" >&2
  exit 1
}
[ "$FAILED" -eq 0 ] || exit 1

echo "check_bench: all batched model paths at or above per-row throughput"

# --- bench_telemetry: instrumentation must cost <= 2% of drain rate ------
"$BUILD/bench/bench_telemetry"

TEL_JSON="BENCH_telemetry.json"
[ -f "$TEL_JSON" ] || { echo "check_bench: $TEL_JSON not produced" >&2; exit 1; }

OVERHEAD="$(json_num "$TEL_JSON" overhead_pct)"
[ -n "$OVERHEAD" ] || {
  echo "check_bench: could not parse overhead_pct from $TEL_JSON" >&2
  exit 1
}

if awk -v o="$OVERHEAD" 'BEGIN { exit !(o > 2.0) }'; then
  echo "check_bench: FAIL — telemetry overhead ${OVERHEAD}% exceeds 2%" >&2
  exit 1
fi

echo "check_bench: telemetry overhead ${OVERHEAD}% within the 2% budget"

# --- bench_stream: compiled chain within 1.3x of the bare scorer ---------
"$BUILD/bench/bench_stream"

STREAM_JSON="BENCH_stream.json"
[ -f "$STREAM_JSON" ] || {
  echo "check_bench: $STREAM_JSON not produced" >&2
  exit 1
}

RATIO="$(json_num "$STREAM_JSON" chain_vs_scorer)"
[ -n "$RATIO" ] || {
  echo "check_bench: could not parse chain_vs_scorer from $STREAM_JSON" >&2
  exit 1
}

if awk -v r="$RATIO" 'BEGIN { exit !(r > 1.3) }'; then
  echo "check_bench: FAIL — streaming chain at ${RATIO}x of the bare scorer (budget 1.3x)" >&2
  exit 1
fi

echo "check_bench: streaming chain at ${RATIO}x of the bare scorer, within 1.3x"
