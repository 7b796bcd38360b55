// Online gateway detection through the ingestion runtime: write a capture
// with Lumen's own pcap writer, replay it from disk through a PacketSource
// (as a gateway replaying a capture would), and let the IngestRuntime's
// consumer thread parse, score with OnlineKitsune, and emit alerts into a
// timeline sink. Nothing here looks at the future: statistics, the feature
// map, the autoencoders, and the threshold all come from the stream prefix.
//
//   ./live_detection [output.pcap]
#include <cstdio>
#include <filesystem>

#include "common/telemetry.h"
#include "core/ingest.h"
#include "core/stream.h"
#include "netio/pcap.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace {

// Coalesces scored packets into a 5-second alert timeline. Ground truth
// comes from the generator labels, addressed by original capture index (a
// real gateway would not have it). The runtime serializes sink calls.
class TimelineSink : public lumen::core::AlertSink {
 public:
  explicit TimelineSink(const std::vector<uint8_t>& truth) : truth_(truth) {}

  void on_alert(const lumen::core::Alert&) override {}

  void on_packet(const lumen::netio::PacketView& v, double score,
                 bool alerted) override {
    if (!started_) {
      window_start_ = v.ts;
      started_ = true;
      std::printf("%-10s %-8s %-8s %s\n", "window", "packets", "alerts",
                  "truth:malicious");
    }
    ++window_pkts_;
    window_alerts_ += alerted;
    total_alerts_ += alerted;
    const bool truly_bad = v.index < truth_.size() && truth_[v.index] != 0;
    window_true_ += truly_bad;
    total_true_ += truly_bad;
    if (v.ts - window_start_ >= 5.0) {
      std::printf("t+%-8.0f %-8zu %-8zu %zu\n", window_start_, window_pkts_,
                  window_alerts_, window_true_);
      window_start_ = v.ts;
      window_pkts_ = window_alerts_ = window_true_ = 0;
    }
  }

  size_t total_alerts() const { return total_alerts_; }
  size_t total_true() const { return total_true_; }

 private:
  const std::vector<uint8_t>& truth_;
  bool started_ = false;
  double window_start_ = 0.0;
  size_t window_pkts_ = 0, window_alerts_ = 0, window_true_ = 0;
  size_t total_alerts_ = 0, total_true_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace lumen;
  const std::string pcap_path =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "lumen_live.pcap")
                     .string();

  // A camera network that gets infected with Mirai partway through.
  std::printf("Generating the Kitsune Mirai stand-in capture (P1)...\n");
  const trace::Dataset ds = trace::make_dataset("P1", 0.5);

  // Persist the capture with our own pcap writer and reload it — the same
  // path an operator would use with a real gateway capture.
  if (auto w = netio::write_pcap(pcap_path, ds.trace); !w.ok()) {
    std::fprintf(stderr, "pcap write: %s\n", w.error().message.c_str());
    return 1;
  }
  auto source_r = netio::PcapReplaySource::open(pcap_path);
  if (!source_r.ok()) {
    std::fprintf(stderr, "pcap read: %s\n", source_r.error().message.c_str());
    return 1;
  }
  netio::PcapReplaySource& full = *source_r.value();
  const netio::Trace& live = full.trace();
  std::printf("Wrote and reloaded %zu packets via %s\n\n", live.size(),
              pcap_path.c_str());

  // Grace period: the first 45% of the stream trains the detector.
  const size_t grace = live.view.size() * 45 / 100;
  core::OnlineKitsune detector;
  detector.train({live.view.data(), grace});
  std::printf(
      "Trained OnlineKitsune on a %zu-packet grace period "
      "(threshold %.4f)\n\n",
      grace, detector.threshold());

  // Stream the rest through the ingestion runtime: a replay source feeding
  // one shard ring (the default), whose consumer scores with the trained
  // detector and so keeps the timeline in capture order.
  netio::ReplayOptions replay;
  replay.begin = grace;
  netio::TraceReplaySource rest(live, replay);

  TimelineSink sink(ds.pkt_label);
  core::IngestRuntime::Options opts;
  // Instruments land in a registry a monitoring agent could scrape mid-run;
  // here we use an example-local one and dump it after the stream ends.
  telemetry::Registry registry;
  opts.registry = &registry;
  opts.instrument_prefix = "gateway.";
  core::IngestRuntime runtime(
      opts,
      [&detector](size_t) {
        return std::make_unique<core::KitsuneScorer>(detector);
      },
      &sink);
  auto stats_r = runtime.run(rest);
  if (!stats_r.ok()) {
    std::fprintf(stderr, "ingest: %s\n", stats_r.error().message.c_str());
    return 1;
  }
  // Accounting comes straight off the telemetry registry — the same
  // counters a monitoring agent scrapes (IngestStats is a compatibility
  // façade over these; see core/ingest.h).
  const telemetry::Snapshot snap = registry.snapshot();

  std::printf(
      "\n%zu alerts over %llu streamed packets (%zu truly malicious).\n",
      sink.total_alerts(),
      static_cast<unsigned long long>(snap.counter_value("gateway.scored")),
      sink.total_true());
  std::printf(
      "ingest stats: enqueued=%llu dropped=%llu parse_skipped=%llu "
      "scored=%llu alerted=%llu queue_high_water=%zu\n",
      static_cast<unsigned long long>(snap.counter_value("gateway.enqueued")),
      static_cast<unsigned long long>(snap.counter_value("gateway.dropped")),
      static_cast<unsigned long long>(
          snap.counter_value("gateway.parse_skipped")),
      static_cast<unsigned long long>(snap.counter_value("gateway.scored")),
      static_cast<unsigned long long>(snap.counter_value("gateway.alerted")),
      static_cast<size_t>(snap.gauge_value("gateway.queue.high_water")));

  // The same numbers, as the Prometheus text a /metrics endpoint would
  // serve (counters and gauges only; histogram series elided for brevity).
  std::printf("\nPrometheus scrape excerpt:\n");
  telemetry::Snapshot scalars;
  scalars.counters = snap.counters;
  scalars.gauges = snap.gauges;
  std::fputs(scalars.to_prometheus().c_str(), stdout);
  std::filesystem::remove(pcap_path);
  return 0;
}
