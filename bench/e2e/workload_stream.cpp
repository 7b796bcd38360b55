// stream_epochs: the same ingest and parse layers with a different consumer
// body. A camera capture under SSDP flood and fuzzing (with malformed
// frames) is drained unpaced through a one-shard runtime in pipeline-sink
// mode: the bench_stream windowed spec (field_extract -> filter ->
// groupby(srcmac) -> time_slice -> apply_aggregates -> normalize ->
// predict), trained once by the batch Engine and lowered by
// compile_streaming. KitNET-per-packet and the Kitsune extractor are off
// this path, so a scoring optimisation should change nothing here.
#include <cstdio>
#include <map>

#include "core/engine.h"
#include "core/ingest.h"
#include "layers.h"
#include "netio/parse.h"

namespace e2e {

namespace {

struct Row {
  std::string key;
  std::vector<double> vals;
  double score = 0;
  int pred = 0;
};

/// Receives each epoch: its latency from the release of the last frame of
/// its window, and every row.
class EpochCollector : public core::EpochSink {
 public:
  EpochCollector(const FrameLedger& ledger, const std::vector<size_t>& last_of)
      : ledger_(ledger), last_of_(last_of) {}

  void on_epoch(const core::EpochBatch& b, size_t) override {
    const int64_t t = now_ns();
    if (b.epoch < last_of_.size()) {
      const int64_t released = ledger_.release[last_of_[b.epoch]];
      if (released != 0) {
        latency_ms.push_back(static_cast<double>(t - released) / 1e6);
      }
    }
    for (size_t r = 0; r < b.table.rows; ++r) {
      Row row;
      row.key = b.keys[r];
      row.vals.assign(b.table.row(r).begin(), b.table.row(r).end());
      if (b.scored) {
        row.score = b.scores[r];
        row.pred = b.predictions[r];
      }
      recorded.push_back(std::move(row));
    }
  }

  std::vector<double> latency_ms;
  std::vector<Row> recorded;

 private:
  const FrameLedger& ledger_;
  const std::vector<size_t>& last_of_;
};

bool same_row(const Row& a, const Row& b) {
  if (a.key != b.key || a.pred != b.pred || !same_bits(a.score, b.score) ||
      a.vals.size() != b.vals.size()) {
    return false;
  }
  for (size_t c = 0; c < a.vals.size(); ++c) {
    if (!same_bits(a.vals[c], b.vals[c])) return false;
  }
  return true;
}

}  // namespace

Outcome run_stream_epochs(const RunConfig& cfg) {
  Outcome out;
  const Capture cap = ssdp_fuzz(cfg.seed, cfg.smoke ? 30000 : 500000, 0.002);
  const size_t n = cap.size();

  // The batch reference sees the same live frames; parsing drops the
  // malformed ones exactly as the runtime's parse stage does.
  lumen::trace::Dataset dep;
  dep.id = "stream_epochs-live";
  dep.label_granularity = lumen::trace::Granularity::kPacket;
  dep.trace = cap.live;
  netio::parse_trace(dep.trace);
  dep.pkt_label = cap.labels;
  dep.pkt_attack.assign(n, 0);
  const std::vector<netio::PacketView>& views = dep.trace.view;
  const double span = views.back().ts - views.front().ts;
  const double window = span / (cfg.smoke ? 100.0 : 1000.0);
  // Last frame of each tumbling window (windows count from the first
  // frame's time, as time_slice does).
  std::vector<size_t> last_of;
  for (const netio::PacketView& v : views) {
    const size_t w = static_cast<size_t>((v.ts - views.front().ts) / window);
    if (w >= last_of.size()) last_of.resize(w + 1, 0);
    last_of[w] = v.index;
  }

  // Set-up is training the spec and lowering it; one precedes every third
  // drain, so their median spans the run.
  SpeedClock clock;
  Reps setups;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    core::ModelValue trained = train_windowed(cap.train, window);
    auto chain = compile_windowed(trained, window, nullptr);
    setups.add(seconds_since(t0), clock.next());
    return trained;
  };
  clock.start();
  const core::ModelValue model = set_up();

  FrameLedger ledger;
  std::vector<Row> first;
  std::vector<double> p999;
  Reps pps, p50;
  uint64_t epochs = 0;
  uint64_t scored_total = 0, diverged = 0;
  std::map<std::string, double> op_self;
  reset_peak_rss();
  const Clock::time_point start = Clock::now();
  const int min_drains = cfg.smoke ? 1 : 5;
  for (int k = 0; k < min_drains || seconds_since(start) < cfg.seconds; ++k) {
    if (k % 3 == 2) (void)set_up();
    ledger.reset(n, false);
    lumen::telemetry::Registry reg;
    std::unique_ptr<core::StreamPipeline> chain =
        compile_windowed(model, window, cfg.trace ? &reg : nullptr);
    EpochCollector sink(ledger, last_of);
    core::IngestRuntime::Options opts;
    opts.shards = 1;
    opts.registry = &reg;
    core::IngestRuntime rt(
        opts,
        [&chain](size_t) -> std::unique_ptr<core::StreamPipeline> {
          return std::move(chain);
        },
        &sink);
    netio::TraceReplaySource src(cap.live);
    StampingSource stamped(src, ledger);
    const Clock::time_point t0 = Clock::now();
    auto stats = rt.run(stamped);
    const double wall = seconds_since(t0);
    const double speed = clock.next();
    out.check(stats.ok(), "runtime run failed");
    if (!stats.ok()) break;
    const core::IngestStats& s = stats.value();
    out.check(s.enqueued == n && s.dropped == 0,
              "replay did not enqueue every frame");
    out.check(s.scored + s.parse_skipped == s.enqueued - s.dropped,
              "scored + parse_skipped != enqueued - dropped");
    out.check(s.parse_skipped == cap.parse_failures(),
              "parse skips differ from the frames the reference cannot parse");
    scored_total += s.scored;
    pps.add(static_cast<double>(s.scored) / wall, speed);
    epochs += sink.latency_ms.size();
    const Latency lat = latency_of(std::move(sink.latency_ms));
    p50.add(lat.p50_ms, speed);
    p999.push_back(lat.p999_ms);
    if (first.empty()) {
      first = std::move(sink.recorded);
    } else {
      bool same = sink.recorded.size() == first.size();
      for (size_t r = 0; same && r < first.size(); ++r) {
        same = same_row(sink.recorded[r], first[r]);
      }
      diverged += !same;
    }
    if (cfg.trace) op_self = span_self_ns(reg.snapshot(), "stream.op.");
  }
  const double peak = peak_rss_mb();
  out.check(diverged == 0, "drains emitted different epochs");

  // Batch oracle, outside the timed region: the Engine runs the packet
  // phase over the same frames, then the row phase (normalize -> predict)
  // once per window with that window's rows seeded in, which is what the
  // streaming normalize does per epoch.
  core::Engine::Options eopts;
  eopts.registry = nullptr;
  eopts.keep = {"W", "F"};
  core::OpContext ctx;
  ctx.dataset = &dep;
  auto features =
      core::Engine(eopts).run(parse_spec(windowed_features(window)), ctx);
  out.check(features.ok(), "batch reference failed");
  uint64_t tp = 0, fp = 0, fn = 0, mismatched = 0, batch_rows = 0;
  const auto* W =
      features.ok() ? features.value().get<core::GroupedPackets>("W") : nullptr;
  const auto* F = features.ok()
                      ? features.value().get<lumen::features::FeatureTable>("F")
                      : nullptr;
  if (W != nullptr && F != nullptr) {
    std::map<std::string, const Row*> by_key;
    for (const Row& r : first) by_key.emplace(r.key, &r);
    std::map<uint64_t, std::vector<size_t>> rows_of_window;
    for (size_t r = 0; r < F->rows; ++r) {
      const std::string& key = W->groups[r].key;
      rows_of_window[std::stoull(key.substr(key.rfind("#w") + 2))].push_back(r);
    }
    const core::PipelineSpec row_phase =
        parse_spec(std::string(kNormalizeOp) + kPredictOp);
    core::Engine::Options ropts;
    ropts.registry = nullptr;
    ropts.keep = {"N"};
    for (const auto& [w, rows] : rows_of_window) {
      std::map<std::string, core::Value> seed;
      seed.emplace("Model", model);
      seed.emplace("F", F->select_rows(rows));
      auto epoch = core::Engine(ropts).run(row_phase, ctx, &seed);
      const auto* N = epoch.ok()
                          ? epoch.value().get<lumen::features::FeatureTable>("N")
                          : nullptr;
      const auto* P =
          epoch.ok() ? epoch.value().get<core::Predictions>("Preds") : nullptr;
      if (N == nullptr || P == nullptr) {
        mismatched += rows.size();
        continue;
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        Row expect;
        expect.key = W->groups[rows[i]].key;
        expect.vals.assign(N->row(i).begin(), N->row(i).end());
        expect.score = P->scores[i];
        expect.pred = P->y_pred[i];
        const auto it = by_key.find(expect.key);
        mismatched += it == by_key.end() || !same_row(*it->second, expect);
        const bool alert = it != by_key.end() && it->second->pred != 0;
        const bool bad = P->y_true[i] != 0;
        tp += alert && bad;
        fp += alert && !bad;
        fn += !alert && bad;
        ++batch_rows;
      }
    }
  }
  out.check(batch_rows == first.size(),
            "streamed " + std::to_string(first.size()) + " rows, batch run " +
                std::to_string(batch_rows));
  out.check(mismatched == 0,
            std::to_string(mismatched) +
                " epoch rows differ from the batch Engine run");
  out.attempted = n * pps.size();
  out.failed = out.attempted - scored_total -
               cap.parse_failures() * pps.size();

  if (!cfg.trace) {
    out.add("throughput_per_s", pps.rate(), "1/s", pps.size());
    out.add("latency_p50_ms", p50.time(), "ms", epochs);
    out.add("setup_s", setups.time(), "s", setups.size());
    out.add("peak_rss_mb", peak, "MB");
    out.add("detect_f1", f1_score(tp, fp, fn), "ratio", first.size());
    out.note("throughput_raw_per_s", pps.raw(), "1/s", pps.size());
    out.note("latency_p50_raw_ms", p50.raw(), "ms", epochs);
    out.note("latency_p999_ms", median(p999), "ms", epochs);
    out.note("setup_raw_s", setups.raw(), "s", setups.size());
  } else {
    const core::OnlineKitsune det = train_detector(cap);
    standalone_passes(cap, det, 1, 200000, out);
    SpanLog spans;
    const int64_t epoch = ledger_replay(cap, det, 200000, spans, out);
    const double packets = static_cast<double>(n - cap.parse_failures());
    for (const auto& [name, ns] : op_self) {
      out.note(name + "_ns", ns / packets, "ns");
    }
    if (!spans.write(cfg.spans_path, epoch)) {
      out.check(false, "could not write " + cfg.spans_path);
    }
  }
  out.note("drains", static_cast<double>(pps.size()), "count");
  return out;
}

}  // namespace e2e
