// Extractor hot-path benchmark: the KitsuneExtractor on a P1 capture,
// uncapped and with a context cap showing the bounded-memory mode. A
// spoofed-source SYN flood, where nearly every frame opens new contexts,
// times the context tables' growth path (uncapped, and capped across many
// storage chunks). Ungated; the last stdout line is the result record
// (gate_record.h) with per-configuration throughput and tracked context
// counts, one of which is kept in bench/baseline.jsonl.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/parallel.h"
#include "core/kitsune_extractor.h"
#include "gate_record.h"
#include "trace/attacks.h"
#include "trace/registry.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 7;  // best-of repetitions per timed configuration

struct RunResult {
  double seconds = 0.0;
  double pkts_per_sec = 0.0;
  size_t tracked = 0;
};

RunResult time_extractor(const lumen::netio::Trace& trace,
                         size_t max_contexts = 0) {
  RunResult r;
  r.seconds = 1e30;
  std::vector<double> row;
  for (int rep = 0; rep < kReps; ++rep) {
    lumen::core::KitsuneExtractor ex({}, max_contexts);
    const Clock::time_point t0 = Clock::now();
    for (const auto& view : trace.view) ex.process(view, row);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (secs < r.seconds) {
      r.seconds = secs;
      r.tracked = ex.tracked_contexts();
    }
  }
  r.pkts_per_sec = r.seconds > 0.0
                       ? static_cast<double>(trace.view.size()) / r.seconds
                       : 0.0;
  return r;
}

void print_header() {
  std::printf("%-22s %-10s %-12s %s\n", "configuration", "seconds",
              "pkts/sec", "tracked_contexts");
}

void print_row(const char* name, const RunResult& r) {
  std::printf("%-22s %-10.3f %-12.0f %zu\n", name, r.seconds, r.pkts_per_sec,
              r.tracked);
}

/// ~120k frames: 1000 spoofed SYN/s plus the victim's occasional RST for
/// 100 s, over a dozen benign devices.
lumen::trace::Dataset spoofed_flood() {
  namespace tr = lumen::trace;
  tr::Sim sim(2024);
  const tr::BenignStyle st;
  sim.benign_iot_traffic(0.0, 100.0, 12, st);
  tr::attack_syn_flood(sim, 0.0, 100.0, sim.lan_ip(st, 1), 554, 1000.0,
                       tr::AttackType::kSynFlood);
  return sim.finish("flood", "spoofed SYN flood", tr::Granularity::kPacket);
}

}  // namespace

int main() {
  using namespace lumen;
  std::printf("bench_extractor: per-packet feature extraction hot path\n\n");

  const trace::Dataset ds = trace::make_dataset("P1", 0.6);
  std::printf("capture: P1 x0.6, %zu packets\n", ds.trace.view.size());
  std::printf("threads: %zu (pool), %zu (hardware)\n\n",
              ThreadPool::global().size(), ThreadPool::hardware_threads());

  const RunResult packed = time_extractor(ds.trace);
  constexpr size_t kCap = 256;
  const RunResult capped = time_extractor(ds.trace, kCap);
  print_header();
  print_row("packed-key", packed);
  print_row("packed-key (cap 256)", capped);

  const trace::Dataset flood = spoofed_flood();
  constexpr size_t kFloodCap = 5000;
  const RunResult flood_packed = time_extractor(flood.trace);
  const RunResult flood_capped = time_extractor(flood.trace, kFloodCap);
  std::printf("\ncapture: spoofed SYN flood, %zu packets\n",
              flood.trace.view.size());
  print_header();
  print_row("packed-key", flood_packed);
  print_row("packed-key (cap 5000)", flood_capped);

  e2e::Outcome o;
  o.attempted = 4 * kReps;
  // tracked_contexts() counts 5 statistics per lambda per context.
  const size_t per_context = 5 * core::KitsuneExtractor().lambdas().size();
  o.check(capped.tracked <= per_context * kCap &&
              flood_capped.tracked <= per_context * kFloodCap,
          "a capped run tracks more contexts than its cap");
  o.add("extractor.packed_pps", packed.pkts_per_sec, "1/s");
  o.add("extractor.capped_pps", capped.pkts_per_sec, "1/s");
  o.add("extractor.flood_pps", flood_packed.pkts_per_sec, "1/s");
  o.add("extractor.flood_capped_pps", flood_capped.pkts_per_sec, "1/s");
  o.note("extractor.packets", static_cast<double>(ds.trace.view.size()),
         "count");
  o.note("extractor.tracked", static_cast<double>(packed.tracked), "count");
  o.note("extractor.capped_tracked", static_cast<double>(capped.tracked),
         "count");
  o.note("extractor.flood_packets",
         static_cast<double>(flood.trace.view.size()), "count");
  o.note("extractor.flood_tracked", static_cast<double>(flood_packed.tracked),
         "count");
  o.note("extractor.flood_capped_tracked",
         static_cast<double>(flood_capped.tracked), "count");
  std::printf("\n");
  bench::print_record("bench_extractor", o);
  return o.correct ? 0 : 1;
}
