#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/engine.h"
#include "core/ingest.h"
#include "netio/parse.h"

namespace e2e {

namespace {

std::vector<const netio::PacketView*> parsed_prefix(const Capture& cap,
                                                    size_t n) {
  std::vector<const netio::PacketView*> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (cap.ok[i]) out.push_back(&cap.views[i]);
  }
  return out;
}

// Keeps the standalone loops' results observable so they are not elided.
volatile uint64_t g_sink = 0;

}  // namespace

core::OnlineKitsune train_detector(const Capture& cap) {
  // With OnlineKitsune's default 0.97 quantile, whole attack phases scored
  // within a few percent of the threshold, so detect_f1 flipped with the
  // seed: replay_synflood ~0.28 or ~0 (2 of 18 seeds), gateway_mirai 0.94
  // or 0.81-0.85 (3 of 40). At 0.9 none of 40 seeds fell to the low level
  // in either workload (replay 0.281-0.287, gateway 0.940-0.944).
  core::OnlineKitsune::Options opts;
  opts.threshold_quantile = 0.9;
  core::OnlineKitsune det(opts);
  det.train({cap.train.trace.view.data(), cap.train.trace.view.size()});
  auto compiled = det.compile(lumen::ml::compiled::Precision::kF64);
  if (!compiled.ok()) {
    throw std::runtime_error("compile: " + compiled.error().message);
  }
  return det;
}

void score_sequential(const core::OnlineKitsune& det, const Capture& cap,
                      size_t count, const std::vector<uint8_t>* shard_of,
                      size_t shard, std::vector<double>& out) {
  core::OnlineKitsune d = det;
  std::vector<netio::PacketView> batch;
  std::vector<size_t> idx;
  std::vector<double> scores(64);
  const auto flush = [&] {
    d.score_packets(batch, scores.data());
    for (size_t k = 0; k < idx.size(); ++k) out[idx[k]] = scores[k];
    batch.clear();
    idx.clear();
  };
  for (size_t i = 0; i < count; ++i) {
    if (!cap.ok[i]) continue;
    if (shard_of != nullptr && (*shard_of)[i] != shard) continue;
    batch.push_back(cap.views[i]);
    idx.push_back(i);
    if (batch.size() == 64) flush();
  }
  if (!batch.empty()) flush();
}

std::vector<uint8_t> shard_map(const Capture& cap, size_t shards) {
  const core::FlowShardRouter router(shards, cap.live.link);
  std::vector<uint8_t> out(cap.size());
  for (size_t i = 0; i < cap.size(); ++i) {
    out[i] = static_cast<uint8_t>(router.shard_of(cap.live.raw[i]));
  }
  return out;
}

void run_tasks(std::vector<std::function<void()>> tasks, size_t threads) {
  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(tasks.size());
  const auto worker = [&] {
    for (size_t i = next++; i < tasks.size(); i = next++) {
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::min(threads, tasks.size()); ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

core::PipelineSpec parse_spec(const std::string& body) {
  auto spec = core::PipelineSpec::parse("[" + body + "]");
  if (!spec.ok()) throw std::runtime_error("spec: " + spec.error().message);
  return std::move(spec).value();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string windowed_features(double window) {
  return R"(
    {"func": "field_extract", "input": None, "output": "P",
     "param": ["srcIP", "packetLength"]},
    {"func": "filter", "input": ["P"], "output": "PF", "require": ["len"]},
    {"func": "groupby", "input": ["PF"], "output": "G", "flowid": ["srcmac"]},
    {"func": "time_slice", "input": ["G"], "output": "W", "window": )" +
         std::to_string(window) + R"(, "align": "global"},
    {"func": "apply_aggregates", "input": ["W"], "output": "F"},)";
}

core::ModelValue train_windowed(const lumen::trace::Dataset& train,
                                double window) {
  core::Engine::Options eopts;
  eopts.registry = nullptr;
  core::OpContext ctx;
  ctx.dataset = &train;
  auto report = core::Engine(eopts).run(
      parse_spec(windowed_features(window) + kNormalizeOp + kTrainOps), ctx);
  if (!report.ok()) {
    throw std::runtime_error("windowed training: " + report.error().message);
  }
  const core::ModelValue* model = report.value().get<core::ModelValue>("Model");
  if (model == nullptr) throw std::runtime_error("windowed training: no model");
  return *model;
}

std::unique_ptr<core::StreamPipeline> compile_windowed(
    const core::ModelValue& model, double window,
    lumen::telemetry::Registry* registry) {
  core::StreamingOptions sopts;
  sopts.bindings.emplace("Model", model);
  sopts.registry = registry;
  auto chain = core::compile_streaming(
      parse_spec(windowed_features(window) + kNormalizeOp + kPredictOp),
      std::move(sopts));
  if (!chain.ok()) {
    throw std::runtime_error("compile_streaming: " + chain.error().message);
  }
  return std::move(chain).value();
}

void standalone_passes(const Capture& cap, const core::OnlineKitsune& det,
                       size_t shards, size_t limit, Outcome& out) {
  const size_t n = std::min(limit, cap.size());
  const std::vector<const netio::PacketView*> views = parsed_prefix(cap, n);
  const double nd = static_cast<double>(n);
  const double nv = static_cast<double>(views.size());

  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) {
    const int64_t t0 = now_ns();
    uint64_t parsed = 0;
    for (size_t i = 0; i < n; ++i) {
      parsed += netio::parse_packet(cap.live.raw[i], cap.live.link,
                                    static_cast<uint32_t>(i))
                    .ok();
    }
    reps.push_back(static_cast<double>(now_ns() - t0) / nd);
    g_sink = g_sink + parsed;
  }
  out.add("netio.parse_ns", median(reps), "ns", n);

  // Routing is timed with at least two shards: with one, shard_of returns
  // before hashing, so a one-shard workload still reports the hash cost.
  const core::FlowShardRouter router(std::max<size_t>(shards, 2),
                                     cap.live.link);
  reps.clear();
  for (int r = 0; r < 3; ++r) {
    const int64_t t0 = now_ns();
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i) sum += router.shard_of(cap.live.raw[i]);
    reps.push_back(static_cast<double>(now_ns() - t0) / nd);
    g_sink = g_sink + sum;
  }
  out.add("ingest.route_ns", median(reps), "ns", n);

  {
    core::KitsuneExtractor ex;
    std::vector<double> row;
    const int64_t t0 = now_ns();
    for (const netio::PacketView* v : views) ex.process(*v, row);
    out.add("extract.ns", static_cast<double>(now_ns() - t0) / nv, "ns",
            views.size());
    out.add("extract.contexts", static_cast<double>(ex.tracked_contexts()),
            "count");
  }

  {
    // Pre-extracted 64-row blocks through the compiled plan alone.
    core::KitsuneExtractor ex = det.extractor();
    const size_t rows = std::min<size_t>(views.size(), 16384);
    const size_t dim = ex.dim();
    const size_t ld = (dim + 7) & ~size_t{7};
    std::vector<double> block(rows * ld, 0.0), row, scores(64);
    for (size_t r = 0; r < rows; ++r) {
      ex.process(*views[r], row);
      std::copy(row.begin(), row.end(), block.begin() + r * ld);
    }
    const lumen::ml::compiled::PlanPtr& plan = det.compiled_plan();
    lumen::ml::compiled::Scratch scratch;
    reps.clear();
    for (int r = 0; r < 3; ++r) {
      const int64_t t0 = now_ns();
      for (size_t lo = 0; lo < rows; lo += 64) {
        const size_t m = std::min<size_t>(64, rows - lo);
        plan->score_rows(block.data() + lo * ld, m, ld, scores.data(),
                         scratch);
      }
      reps.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(rows));
    }
    out.add("ml.plan_ns_per_row", median(reps), "ns", rows);
  }

  {
    std::vector<double> scores(n, 0.0);
    const int64_t t0 = now_ns();
    score_sequential(det, cap, n, nullptr, 0, scores);
    out.add("pipeline.seq_pps",
            nv / (static_cast<double>(now_ns() - t0) / 1e9), "1/s",
            views.size());
  }

  {
    const double span = views.empty() ? 1.0 : views.back()->ts - views[0]->ts;
    const double window = std::max(span, 1e-3) / 1000.0;
    const core::ModelValue model = train_windowed(cap.train, window);
    std::unique_ptr<core::StreamPipeline> chain =
        compile_windowed(model, window, nullptr);
    uint64_t rows = 0;
    chain->set_callback([&rows](core::EpochBatch&& b) { rows += b.table.rows; });
    const int64_t t0 = now_ns();
    for (const netio::PacketView* v : views) chain->push(*v);
    chain->finish();
    out.add("stream.push_ns", static_cast<double>(now_ns() - t0) / nv, "ns",
            views.size());
    g_sink = g_sink + rows;
  }
}

void ledger_metrics(const FrameLedger& ledger, const ScoreStats& score,
                    const lumen::telemetry::Snapshot& snap, size_t shards,
                    Outcome& out) {
  const LedgerSummary s = summarize_ledger(ledger);
  out.check(s.frames > 0 && s.incomplete == 0 && s.out_of_order == 0,
            "ledger: " + std::to_string(s.incomplete) + " incomplete and " +
                std::to_string(s.out_of_order) +
                " frames whose parts do not sum to the latency within 1%");
  out.add("netio.ingress_ms", s.ingress_ms, "ms", s.frames);
  out.add("ingest.handoff_ms", s.handoff_ms, "ms", s.frames);
  const uint64_t rows = score.rows.load();
  out.add("ml.score_batch_ns_per_row",
          rows == 0 ? 0.0
                    : static_cast<double>(score.busy_ns.load()) /
                          static_cast<double>(rows),
          "ns", rows);
  out.add("ingest.sink_ms", s.sink_ms, "ms", s.frames);
  const lumen::telemetry::HistogramSample* h =
      snap.find_histogram("ingest.score.batch_rows");
  out.add("ingest.batch_rows_mean",
          h == nullptr || h->count == 0
              ? 0.0
              : h->sum / static_cast<double>(h->count),
          "count", h == nullptr ? 0 : h->count);
  out.add("ingest.ring_high_water", snap.gauge_value("ingest.queue.high_water"),
          "count");
  double max_routed = 0, sum_routed = 0;
  for (size_t i = 0; i < shards; ++i) {
    const double r = static_cast<double>(snap.counter_value(
        "ingest.shard" + std::to_string(i) + ".routed"));
    max_routed = std::max(max_routed, r);
    sum_routed += r;
  }
  out.add("ingest.shard_skew",
          sum_routed == 0 ? 0.0
                          : max_routed / (sum_routed / static_cast<double>(
                                                           shards)),
          "ratio");
  out.note("ledger.score_ms", s.score_ms, "ms", s.frames);
  out.note("ledger.latency_ms", s.latency_ms, "ms", s.frames);
  const double enq = static_cast<double>(snap.counter_value("ingest.enqueued"));
  out.note("ingest.parse_skipped_frac",
           enq == 0 ? 0.0
                    : static_cast<double>(
                          snap.counter_value("ingest.parse_skipped")) /
                          enq,
           "ratio");
}

int64_t ledger_replay(const Capture& cap, const core::OnlineKitsune& det,
                      size_t limit, SpanLog& spans, Outcome& out) {
  const size_t n = std::min(limit, cap.size());
  FrameLedger ledger;
  ledger.reset(n, true);
  lumen::telemetry::Registry reg;
  core::IngestRuntime::Options opts;
  opts.shards = 1;
  opts.registry = &reg;
  ScoreStats score;
  LatencySink sink(ledger);
  core::IngestRuntime rt(
      opts,
      [&](size_t) -> std::unique_ptr<core::PacketScorer> {
        return std::make_unique<TracingScorer>(
            std::make_unique<core::KitsuneScorer>(det), ledger, spans, score);
      },
      &sink);
  netio::ReplayOptions ropts;
  ropts.end = n;
  netio::TraceReplaySource src(cap.live, ropts);
  StampingSource stamped(src, ledger);
  netio::ReplayDriver driver(stamped);
  TracingDriver traced(driver, ledger, spans);
  auto stats = rt.run(traced);
  out.check(stats.ok(), "ledger replay failed");
  ledger_metrics(ledger, score, reg.snapshot(), 1, out);
  add_frame_spans(ledger, spans, 256);
  return ledger.release.empty() ? 0 : ledger.release[0];
}

std::map<std::string, double> span_self_ns(
    const lumen::telemetry::Snapshot& snap, const std::string& prefix) {
  std::map<uint64_t, double> child_s;
  for (const lumen::telemetry::SpanRecord& s : snap.spans) {
    if (s.parent != 0) child_s[s.parent] += s.seconds;
  }
  std::map<std::string, double> out;
  for (const lumen::telemetry::SpanRecord& s : snap.spans) {
    if (s.name.rfind(prefix, 0) != 0) continue;
    const auto it = child_s.find(s.id);
    const double self = s.seconds - (it == child_s.end() ? 0.0 : it->second);
    out[s.name] += self * 1e9;
  }
  return out;
}

Latency latency_of(std::vector<double> ms) {
  Latency l;
  l.samples = ms.size();
  if (ms.empty()) return l;
  l.p50_ms = quantile(ms, 0.5);
  l.p999_ms = quantile(ms, 0.999);
  return l;
}

uint64_t alert_flips(const FrameLedger& ledger,
                     const std::vector<double>& global, size_t lo, size_t hi,
                     double threshold) {
  uint64_t flips = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (ledger.delivered[i] == 0) continue;
    flips += (ledger.score[i] > threshold) != (global[i - lo] > threshold);
  }
  return flips;
}

}  // namespace e2e
