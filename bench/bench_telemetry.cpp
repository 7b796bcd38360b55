// Telemetry overhead benchmark: per-operation cost of each instrument on the
// hot path (counter add, gauge set, histogram record, span enter/exit) and
// the end-to-end throughput delta of the ingest runtime with telemetry
// enabled (process-registry instruments + stage histograms) vs disabled
// (Options.registry = nullptr, the pre-telemetry accounting path). Emits
// BENCH_telemetry.json; tools/check_bench.sh fails the gate if the ingest
// overhead exceeds 2%.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/ingest.h"
#include "core/stream.h"
#include "netio/parse.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMicroReps = 5;       // best-of repetitions per micro loop
constexpr size_t kMicroIters = 1u << 20;
constexpr int kIngestReps = 7;      // interleaved reps per ingest variant
constexpr int kStreamRepeats = 8;   // sweep stream = streamed region x repeats

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-kMicroReps cost of one iteration of fn(), in nanoseconds.
template <typename Fn>
double micro_ns(Fn&& fn) {
  double best = 1e30;
  for (int rep = 0; rep < kMicroReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < kMicroIters; ++i) fn(i);
    best = std::min(best, seconds_since(t0));
  }
  return best / static_cast<double>(kMicroIters) * 1e9;
}

}  // namespace

int main() {
  using namespace lumen;
  std::printf("bench_telemetry: instrument micro-costs and ingest overhead\n\n");
  std::printf("threads: %zu (pool), %zu (hardware)\n\n",
              ThreadPool::global().size(), ThreadPool::hardware_threads());

  // ---- Micro-costs: single-threaded hot-path cost per operation. ----
  telemetry::Registry reg;
  telemetry::Counter& ctr = reg.counter("micro.counter");
  telemetry::Gauge& gauge = reg.gauge("micro.gauge");
  telemetry::Histogram& hist =
      reg.histogram("micro.hist", telemetry::Histogram::default_ns_bounds());

  const double counter_ns = micro_ns([&](size_t) { ctr.add(1); });
  const double gauge_ns =
      micro_ns([&](size_t i) { gauge.set(static_cast<double>(i)); });
  const double hist_ns =
      micro_ns([&](size_t i) { hist.record(static_cast<double>(i & 0xffff)); });
  const double span_ns = micro_ns([&](size_t) {
    telemetry::Span span(&reg, "micro.span");
    span.stop();
  });
  std::printf("%-24s %10.1f ns/op\n", "counter add", counter_ns);
  std::printf("%-24s %10.1f ns/op\n", "gauge set", gauge_ns);
  std::printf("%-24s %10.1f ns/op\n", "histogram record", hist_ns);
  std::printf("%-24s %10.1f ns/op\n", "span enter+exit", span_ns);

  // ---- Ingest overhead: telemetry on vs off, same stream, same scorers.
  // "off" = Options.registry == nullptr: core counters land in a runtime-
  // local scratch registry (same cost as the old bespoke atomics) and the
  // extended instruments (stage histograms, queue gauges, clock reads) are
  // skipped entirely. "on" = a dedicated registry with everything enabled.
  const trace::Dataset ds = trace::make_dataset("P1", 1.0);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  core::OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});

  netio::Trace big;
  big.link = ds.trace.link;
  const double span = ds.trace.raw.back().ts - ds.trace.raw[grace].ts + 0.001;
  for (int rep = 0; rep < kStreamRepeats; ++rep) {
    for (size_t i = grace; i < ds.trace.raw.size(); ++i) {
      netio::RawPacket p = ds.trace.raw[i];
      p.ts += rep * span;
      big.raw.push_back(std::move(p));
    }
  }
  netio::parse_trace(big);
  const double n = static_cast<double>(big.view.size());
  std::printf("\ningest stream: P1 streamed region x%d = %zu packets\n",
              kStreamRepeats, big.view.size());

  telemetry::Registry ingest_reg;
  auto drain_seconds = [&](telemetry::Registry* registry) {
    netio::TraceReplaySource src(big, netio::ReplayOptions{});
    core::IngestRuntime::Options opts;
    opts.registry = registry;
    auto factory = [&proto](size_t) {
      return std::make_unique<core::KitsuneScorer>(proto);
    };
    core::IngestRuntime rt(opts, factory, nullptr);
    const Clock::time_point t0 = Clock::now();
    auto stats = rt.run(src);
    const double secs = seconds_since(t0);
    if (!stats.ok() || stats.value().scored == 0) return -1.0;
    return secs;
  };

  // Interleave reps so slow host phases hit both variants alike.
  double off_s = 1e30, on_s = 1e30;
  for (int rep = 0; rep < kIngestReps; ++rep) {
    const double off = drain_seconds(nullptr);
    const double on = drain_seconds(&ingest_reg);
    if (off < 0.0 || on < 0.0) {
      std::fprintf(stderr, "ingest run failed\n");
      return 1;
    }
    off_s = std::min(off_s, off);
    on_s = std::min(on_s, on);
  }
  const double off_rate = n / off_s;
  const double on_rate = n / on_s;
  // Best-of comparison: overhead is how much slower the best instrumented
  // run is than the best uninstrumented run (negative = within noise).
  const double overhead_pct = (off_rate - on_rate) / off_rate * 100.0;
  std::printf("uninstrumented drain: %.0f pkts/s\n", off_rate);
  std::printf("instrumented drain:   %.0f pkts/s\n", on_rate);
  std::printf("overhead:             %.2f%%\n", overhead_pct);

  // Sanity-scrape the instrumented registry: every scored packet must have
  // passed through the stage histograms' batches.
  const telemetry::Snapshot snap = ingest_reg.snapshot();
  const auto* parse = snap.find_histogram("ingest.stage.parse_ns");
  const uint64_t scored = snap.counter_value("ingest.scored");
  std::printf("instrumented registry: %llu scored, %llu parse samples\n",
              static_cast<unsigned long long>(scored),
              static_cast<unsigned long long>(parse ? parse->count : 0));

  telemetry::json::Writer w;
  w.kv_str("benchmark", "telemetry_overhead");
  w.kv_u64("micro_iters", kMicroIters);
  w.kv_i64("micro_reps", kMicroReps);
  w.begin_inline_object("micro_ns_per_op");
  w.kv_f("counter_add", counter_ns, 2);
  w.kv_f("gauge_set", gauge_ns, 2);
  w.kv_f("histogram_record", hist_ns, 2);
  w.kv_f("span_enter_exit", span_ns, 2);
  w.end();
  w.kv_u64("ingest_packets", big.view.size());
  w.kv_i64("ingest_reps", kIngestReps);
  w.kv_f("uninstrumented_pkts_per_sec", off_rate, 1);
  w.kv_f("instrumented_pkts_per_sec", on_rate, 1);
  w.kv_f("overhead_pct", overhead_pct, 3);
  w.kv_u64("instrumented_scored", scored);
  w.kv_u64("instrumented_parse_samples", parse ? parse->count : 0);
  if (std::FILE* f = std::fopen("BENCH_telemetry.json", "w")) {
    const std::string doc = w.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("[artifact] BENCH_telemetry.json\n");
  }
  return 0;
}
