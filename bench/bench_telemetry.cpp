// Telemetry overhead benchmark: per-operation cost of each instrument on the
// hot path (counter add, gauge set, histogram record, span enter/exit;
// informational) and the gate, telemetry.on_vs_off: the ingest runtime's
// drain rate with telemetry enabled (a registry with every instrument and
// the stage histograms) over its rate with it disabled (Options.registry =
// nullptr, the plain accounting path), timed in interleaved pairs
// (gate_record.h). The last stdout line is the result record.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/ingest.h"
#include "core/stream.h"
#include "gate_record.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace {

using e2e::Clock;
using e2e::seconds_since;

constexpr int kMicroReps = 5;       // best-of repetitions per micro loop
constexpr size_t kMicroIters = 1u << 20;
// Interleaved on/off drain pairs, each over P1's streamed region once:
// many short drains give a steadier median than a few long ones, which
// a shared host's stalls hit unevenly.
constexpr int kPairs = 161;

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
  e2e::Outcome o;

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

  o.note("telemetry.counter_add_ns", counter_ns, "ns");
  o.note("telemetry.gauge_set_ns", gauge_ns, "ns");
  o.note("telemetry.histogram_record_ns", hist_ns, "ns");
  o.note("telemetry.span_ns", span_ns, "ns");

  // ---- Ingest overhead: telemetry on vs off, same stream, same scorers.
  // "off" = Options.registry == nullptr: core counters land in a runtime-
  // local scratch registry and the extended instruments (stage histograms,
  // queue gauges, clock reads) are skipped entirely. "on" = a dedicated
  // registry with everything enabled.
  const trace::Dataset ds = trace::make_dataset("P1", 1.0);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  core::OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});
  const netio::Trace big = bench::repeated_stream(ds, grace, 1);
  const double n = static_cast<double>(big.view.size());
  std::printf("\ningest stream: P1 streamed region = %zu packets\n",
              big.view.size());

  telemetry::Registry ingest_reg;
  auto drain_rate = [&](telemetry::Registry* registry) {
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
    if (!stats.ok() || stats.value().scored == 0) {
      std::fprintf(stderr, "bench_telemetry: ingest run failed\n");
      std::exit(1);
    }
    return n / secs;
  };
  const double ratio = bench::paired_ratio(
      o, kPairs, [&] { return drain_rate(&ingest_reg); },
      [&] { return drain_rate(nullptr); });
  o.add("telemetry.on_vs_off", ratio, "ratio");
  std::printf("instrumented / plain drain rate: %.4f (median of %d pairs)\n",
              ratio, kPairs);

  // Sanity-scrape the instrumented registry: every scored packet must have
  // passed through the stage histograms' batches.
  const telemetry::Snapshot snap = ingest_reg.snapshot();
  const auto* parse = snap.find_histogram("ingest.stage.parse_ns");
  const uint64_t scored = snap.counter_value("ingest.scored");
  std::printf("instrumented registry: %llu scored, %llu parse samples\n\n",
              static_cast<unsigned long long>(scored),
              static_cast<unsigned long long>(parse ? parse->count : 0));
  bench::print_record("bench_telemetry", o);
  return 0;
}
