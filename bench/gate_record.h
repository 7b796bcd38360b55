// Shared pieces of the micro-benchmarks that report into
// bench/baseline.jsonl: the within-run paired ratio their timing gates use,
// and the one-line result record (lumen_bench's shape) each one prints
// last, which lumen_bench_compare judges against bench/gates.json
// (tools/check_bench.sh).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "e2e/common.h"
#include "netio/parse.h"
#include "trace/registry.h"

namespace lumen::bench {

/// Median over `pairs` interleaved pairs of num() / den(), alternating which
/// of the two runs first, so slow host phases and cache warm-up fall on
/// both sides alike. Each callable returns one measurement (a duration or a
/// rate) of its path; every call counts as one attempted operation of `o`.
template <typename Num, typename Den>
double paired_ratio(e2e::Outcome& o, int pairs, Num&& num, Den&& den) {
  o.attempted += 2 * static_cast<uint64_t>(pairs);
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    double n = 0.0, d = 0.0;
    if (p % 2 == 0) {
      n = num();
      d = den();
    } else {
      d = den();
      n = num();
    }
    ratios.push_back(n / d);
  }
  return e2e::median(std::move(ratios));
}

/// The steady-state stream the ingest benches time: `ds`'s packets from
/// `begin` on, repeated back-to-back `repeats` times with timestamps
/// shifted so time stays monotonic (one pass of P1's streamed region lasts
/// ~10 ms of work, so fixed costs such as thread spawn would dominate it).
inline netio::Trace repeated_stream(const trace::Dataset& ds, size_t begin,
                                    int repeats) {
  netio::Trace big;
  big.link = ds.trace.link;
  const double span = ds.trace.raw.back().ts - ds.trace.raw[begin].ts + 0.001;
  for (int rep = 0; rep < repeats; ++rep) {
    for (size_t i = begin; i < ds.trace.raw.size(); ++i) {
      netio::RawPacket p = ds.trace.raw[i];
      p.ts += rep * span;
      big.raw.push_back(std::move(p));
    }
  }
  netio::parse_trace(big);
  return big;
}

inline std::string metrics_json(const std::vector<e2e::Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    char value[32];
    std::snprintf(value, sizeof value, "%.17g", ms[i].value);
    s += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " + value +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

/// Prints `o` as the last line of stdout, in the record shape lumen_bench
/// appends to its results files, with the host's thread count and speed
/// (e2e::host_speed) beside the numbers.
inline void print_record(const char* workload, const e2e::Outcome& o) {
  char speed[32];
  std::snprintf(speed, sizeof speed, "%.4f", e2e::host_speed());
  std::printf(
      "{\"workload\": \"%s\", \"trace\": 0, \"smoke\": false, \"correct\": "
      "%s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
      "\"extra\": %s, \"host\": {\"nproc\": %u, \"host_speed\": %s}}\n",
      workload, o.correct ? "true" : "false",
      static_cast<unsigned long long>(o.attempted),
      static_cast<unsigned long long>(o.failed), metrics_json(o.metrics).c_str(),
      metrics_json(o.extra).c_str(), std::thread::hardware_concurrency(),
      speed);
  std::fflush(stdout);
}

}  // namespace lumen::bench
