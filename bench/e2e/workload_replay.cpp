// replay_synflood: state-bound scoring with no sockets. A capture that is
// ~95% spoofed-source SYN flood is drained unpaced (closed loop, kBlock)
// through ReplayDriver -> FlowShardRouter -> 2 shard consumers, each drain
// on a fresh runtime with fresh scorers. Every flood frame opens new
// extractor contexts, so the FlatMap state outgrows the last-level cache
// and extractor growth, probing and memory traffic dominate. Producer plus
// two shards leaves one core of a 4-core host to the kernel and other
// tenants; with three shards the runs' latency and peak memory spread
// several times wider on a shared host.
#include <cstdio>
#include <optional>

#include "core/ingest.h"
#include "layers.h"

namespace e2e {

namespace {

constexpr size_t kShards = 2;

struct Drain {
  double seconds = 0;
  uint64_t scored = 0;
  lumen::telemetry::Snapshot snap;
};

Drain drain(const Capture& cap, const core::OnlineKitsune& det,
            FrameLedger& ledger, SpanLog* spans, ScoreStats& score,
            Outcome& out) {
  lumen::telemetry::Registry reg;
  core::IngestRuntime::Options opts;
  opts.shards = kShards;
  opts.registry = &reg;
  LatencySink sink(ledger);
  core::IngestRuntime rt(
      opts,
      [&](size_t) -> std::unique_ptr<core::PacketScorer> {
        auto scorer = std::make_unique<core::KitsuneScorer>(det);
        if (spans == nullptr) return scorer;
        return std::make_unique<TracingScorer>(std::move(scorer), ledger,
                                               *spans, score);
      },
      &sink);
  netio::TraceReplaySource src(cap.live);
  StampingSource stamped(src, ledger);
  netio::ReplayDriver replay(stamped);
  std::optional<TracingDriver> traced;
  if (spans != nullptr) traced.emplace(replay, ledger, *spans);
  netio::SourceDriver& driver =
      traced ? static_cast<netio::SourceDriver&>(*traced) : replay;

  Drain d;
  const Clock::time_point t0 = Clock::now();
  auto stats = rt.run(driver);
  d.seconds = seconds_since(t0);
  out.check(stats.ok(), "runtime run failed");
  if (stats.ok()) {
    const core::IngestStats& s = stats.value();
    d.scored = s.scored;
    out.check(s.enqueued == cap.size() && s.dropped == 0,
              "replay did not enqueue every frame");
    out.check(s.scored + s.parse_skipped == s.enqueued - s.dropped,
              "scored + parse_skipped != enqueued - dropped");
  }
  d.snap = reg.snapshot();
  return d;
}

}  // namespace

Outcome run_replay_synflood(const RunConfig& cfg) {
  Outcome out;
  const Capture cap = syn_flood(cfg.seed, cfg.smoke ? 20000 : 150000);
  const size_t n = cap.size();

  // Set-up here is training plus compiling; the runtime is built per
  // drain, inside the timed region. One set-up precedes every third drain,
  // so their median spans the run.
  SpeedClock clock;
  Reps setups;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    core::OnlineKitsune trained = train_detector(cap);
    setups.add(seconds_since(t0), clock.next());
    return trained;
  };
  clock.start();
  const core::OnlineKitsune det = set_up();

  FrameLedger ledger;
  SpanLog spans;
  ScoreStats score;
  std::vector<double> first_scores, p999;
  Reps pps, p50;
  uint64_t delivered = 0, diverged = 0;
  Drain last;
  reset_peak_rss();
  const Clock::time_point start = Clock::now();
  const int min_drains = cfg.smoke ? 1 : 5;
  for (int k = 0; k < min_drains || seconds_since(start) < cfg.seconds; ++k) {
    if (k % 3 == 2) (void)set_up();
    ledger.reset(n, cfg.trace);
    last = drain(cap, det, ledger, cfg.trace ? &spans : nullptr, score, out);
    const double speed = clock.next();
    pps.add(static_cast<double>(last.scored) / last.seconds, speed);
    std::vector<double> latency;
    for (size_t i = 0; i < n; ++i) {
      if (ledger.delivered[i] == 0) continue;
      latency.push_back(
          static_cast<double>(ledger.delivered[i] - ledger.release[i]) / 1e6);
    }
    delivered += latency.size();
    const Latency lat = latency_of(std::move(latency));
    p50.add(lat.p50_ms, speed);
    p999.push_back(lat.p999_ms);
    // Each drain starts from the same trained state over the same frames,
    // so its scores must repeat the first drain's bit for bit.
    if (first_scores.empty()) {
      first_scores = ledger.score;
    } else {
      for (size_t i = 0; i < n; ++i) {
        diverged += !same_bits(ledger.score[i], first_scores[i]);
      }
    }
    out.check(ledger.duplicates == 0, "frames delivered twice");
  }
  const double peak = peak_rss_mb();
  out.check(diverged == 0, "drains disagree on " + std::to_string(diverged) +
                               " scores");

  const std::vector<uint8_t> shard = shard_map(cap, kShards);
  std::vector<double> global(n, 0.0), per_shard(n, 0.0);
  std::vector<std::function<void()>> tasks;
  tasks.push_back(
      [&] { score_sequential(det, cap, n, nullptr, 0, global); });
  for (size_t s = 0; s < kShards; ++s) {
    tasks.push_back(
        [&, s] { score_sequential(det, cap, n, &shard, s, per_shard); });
  }
  run_tasks(std::move(tasks), 2);

  // The last drain's ledger still holds its scores and deliveries.
  uint64_t mismatched = 0, tp = 0, fp = 0, fn = 0, got = 0;
  const double thr = det.threshold();
  for (size_t i = 0; i < n; ++i) {
    if (ledger.delivered[i] == 0) continue;
    ++got;
    const double sc = ledger.score[i];
    mismatched += !same_bits(sc, global[i]) && !same_bits(sc, per_shard[i]);
    const bool alert = sc > thr;
    const bool bad = cap.labels[i] != 0;
    tp += alert && bad;
    fp += alert && !bad;
    fn += !alert && bad;
  }
  out.check(mismatched == 0,
            std::to_string(mismatched) +
                " scores match neither the per-shard nor the global reference");
  out.attempted = n * pps.size();
  out.failed = out.attempted - delivered;

  if (!cfg.trace) {
    out.add("throughput_per_s", pps.rate(), "1/s", pps.size());
    out.add("latency_p50_ms", p50.time(), "ms", delivered);
    out.add("setup_s", setups.time(), "s", setups.size());
    out.add("peak_rss_mb", peak, "MB");
    out.add("detect_f1", f1_score(tp, fp, fn), "ratio", got);
    out.note("throughput_raw_per_s", pps.raw(), "1/s", pps.size());
    out.note("latency_p50_raw_ms", p50.raw(), "ms", delivered);
    out.note("latency_p999_ms", median(p999), "ms", delivered);
    out.note("setup_raw_s", setups.raw(), "s", setups.size());
  } else {
    standalone_passes(cap, det, kShards, n, out);
    ledger_metrics(ledger, score, last.snap, kShards, out);
    add_frame_spans(ledger, spans, 256);
    if (!spans.write(cfg.spans_path, ledger.release[0])) {
      out.check(false, "could not write " + cfg.spans_path);
    }
  }
  out.note("drains", static_cast<double>(pps.size()), "count");
  out.note("alert_drift",
           got == 0 ? 0.0
                    : static_cast<double>(alert_flips(ledger, global, 0, n,
                                                      thr)) /
                          static_cast<double>(got),
           "ratio", got);
  return out;
}

}  // namespace e2e
