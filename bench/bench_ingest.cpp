// Gateway ingestion throughput benchmark: drives the IngestRuntime over the
// P1 (Mirai) capture with a trained OnlineKitsune per consumer, sweeping the
// consumer count (best of several repetitions per config); breaks the
// per-packet cost into extract / score / queue stages; checks that paced and
// unpaced replay of the same capture alert identically; and stresses a
// multi-consumer run over a fault-injecting source. Emits BENCH_ingest.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/ingest.h"
#include "core/kitsune_extractor.h"
#include "core/stream.h"
#include "features/table.h"
#include "ml/compiled.h"
#include "ml/forest.h"
#include "ml/gmm.h"
#include "ml/kernel.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "netio/frontend.h"
#include "netio/parse.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Run accounting scraped from telemetry counters (the IngestStats façade
// reads the same registry; the bench goes to the source).
struct RunCounters {
  uint64_t enqueued = 0;
  uint64_t dropped = 0;
  uint64_t parse_skipped = 0;
  uint64_t scored = 0;
  uint64_t alerted = 0;

  bool accounted() const {
    return scored + parse_skipped == enqueued - dropped;
  }
};

RunCounters scrape_counters(const lumen::telemetry::Snapshot& snap,
                            const std::string& prefix) {
  RunCounters c;
  c.enqueued = snap.counter_value(prefix + "enqueued");
  c.dropped = snap.counter_value(prefix + "dropped");
  c.parse_skipped = snap.counter_value(prefix + "parse_skipped");
  c.scored = snap.counter_value(prefix + "scored");
  c.alerted = snap.counter_value(prefix + "alerted");
  return c;
}

// Counter delta across one run against a shared (process) registry.
RunCounters counters_since(const RunCounters& before, const RunCounters& after) {
  RunCounters d;
  d.enqueued = after.enqueued - before.enqueued;
  d.dropped = after.dropped - before.dropped;
  d.parse_skipped = after.parse_skipped - before.parse_skipped;
  d.scored = after.scored - before.scored;
  d.alerted = after.alerted - before.alerted;
  return d;
}

struct ConfigResult {
  size_t consumers = 0;
  double seconds = 0.0;
  double achieved = 0.0;   // scored packets / wall seconds
  double sustained = 0.0;  // offered rate when kept up, else achieved
  bool kept_up = false;
  RunCounters counters;
};

constexpr int kReps = 7;           // best-of repetitions per timed section
constexpr int kSweepReps = 3;      // best-of repetitions per sweep config
constexpr int kStreamRepeats = 8;  // sweep stream = streamed region x repeats

// Offered load for the consumer sweep: 140k pkts/s, 2.24x the 62.5k pkts/s
// peak the pre-refactor runtime managed with a single consumer (and ~3.4x
// its 4-consumer rate). A configuration "keeps up" when it scores at >= 98%
// of the offered rate, i.e. the queue never becomes the bottleneck.
constexpr double kOfferedRate = 140000.0;

}  // namespace

int main() {
  using namespace lumen;
  std::printf("bench_ingest: gateway ingestion runtime throughput\n\n");

  const trace::Dataset ds = trace::make_dataset("P1", 1.0);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  const size_t streamed = ds.trace.view.size() - grace;
  std::printf("capture: P1 x1.0, %zu packets (%zu grace / %zu streamed)\n",
              ds.trace.view.size(), grace, streamed);
  std::printf("threads: %zu (pool), %zu (hardware)\n",
              ThreadPool::global().size(), ThreadPool::hardware_threads());

  core::OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});
  std::printf("trained OnlineKitsune prototype (threshold %.4f)\n\n",
              proto.threshold());

  auto kitsune_factory = [&proto](size_t) {
    return std::make_unique<core::KitsuneScorer>(proto);
  };
  netio::ReplayOptions rest;
  rest.begin = grace;

  // Steady-state stream for the timed sections: the streamed region
  // repeated back-to-back (timestamps shifted so time stays monotonic).
  // A single pass lasts ~10 ms here, so fixed setup costs (thread spawn)
  // would otherwise dominate the consumer-count comparison.
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
  const size_t sweep_packets = big.view.size();
  std::printf("sweep stream: streamed region x%d = %zu packets\n\n",
              kStreamRepeats, sweep_packets);

  // Per-stage packet cost. Stage boundaries are nested, so each stage's
  // marginal cost falls out by subtraction: extract-only, then
  // extract+score (OnlineKitsune), then the full 1-consumer runtime whose
  // extra cost is queue/thread overhead.
  double extract_ns = 0.0, score_ns = 0.0, queue_ns = 0.0;
  double unpaced_peak = 0.0;  // 1-consumer full-runtime drain rate
  double extract_s_best = 1e30;  // extract-only pass, reused by the online section
  {
    double extract_s = 1e30, scored_s = 1e30, runtime_s = 1e30;
    std::vector<double> row;
    for (int rep = 0; rep < kReps; ++rep) {
      core::KitsuneExtractor ex;
      const Clock::time_point t0 = Clock::now();
      for (const auto& view : big.view) ex.process(view, row);
      extract_s = std::min(extract_s, seconds_since(t0));
    }
    for (int rep = 0; rep < kReps; ++rep) {
      core::OnlineKitsune det = proto;
      const Clock::time_point t0 = Clock::now();
      for (const auto& view : big.view) det.score_packet(view);
      scored_s = std::min(scored_s, seconds_since(t0));
    }
    for (int rep = 0; rep < kReps; ++rep) {
      netio::TraceReplaySource src(big, netio::ReplayOptions{});
      core::IngestRuntime rt(core::IngestRuntime::Options{}, kitsune_factory,
                             nullptr);
      const Clock::time_point t0 = Clock::now();
      auto stats = rt.run(src);
      if (!stats.ok()) {
        std::fprintf(stderr, "stage ingest: %s\n",
                     stats.error().message.c_str());
        return 1;
      }
      runtime_s = std::min(runtime_s, seconds_since(t0));
    }
    const double n = static_cast<double>(sweep_packets);
    extract_s_best = extract_s;
    extract_ns = extract_s / n * 1e9;
    score_ns = std::max(0.0, (scored_s - extract_s) / n * 1e9);
    queue_ns = std::max(0.0, (runtime_s - scored_s) / n * 1e9);
    unpaced_peak = runtime_s > 0.0 ? n / runtime_s : 0.0;
    std::printf("per-packet cost: extract %.0f ns, score %.0f ns, "
                "queue+runtime %.0f ns\n",
                extract_ns, score_ns, queue_ns);
    std::printf("unpaced 1-consumer drain rate: %.0f pkts/s\n\n",
                unpaced_peak);
  }

  // Online micro-batch sweep: the same stream scored through the
  // OnlineKitsune::score_packets path (the detector's f64 plan) in
  // fixed-size micro-batches. Each point is the score-only marginal ns/pkt
  // (the extract-only pass above subtracted out); batch 1 is the plan
  // driven row-at-a-time, the apples-to-apples baseline the check_bench
  // gate compares against.
  const size_t default_score_batch = core::IngestRuntime::Options{}.score_batch;
  struct OnlinePoint {
    size_t batch = 0;
    double ns = 0.0;
  };
  std::vector<OnlinePoint> online_sweep;
  double row_score_ns = 0.0, batched_score_ns = 0.0;
  {
    std::vector<double> scores(
        std::max<size_t>(default_score_batch, 64), 0.0);
    std::printf("online micro-batch sweep (score-only ns/pkt):\n");
    for (size_t b : {size_t{1}, size_t{8}, size_t{16}, size_t{32},
                     size_t{64}}) {
      double best = 1e30;
      for (int rep = 0; rep < kReps; ++rep) {
        core::OnlineKitsune det = proto;
        const Clock::time_point t0 = Clock::now();
        for (size_t lo = 0; lo < big.view.size(); lo += b) {
          const size_t n = std::min(b, big.view.size() - lo);
          det.score_packets({big.view.data() + lo, n}, scores.data());
        }
        best = std::min(best, seconds_since(t0));
      }
      const double ns = std::max(
          0.0, (best - extract_s_best) / static_cast<double>(sweep_packets) *
                   1e9);
      online_sweep.push_back(OnlinePoint{b, ns});
      if (b == 1) row_score_ns = ns;
      if (b == default_score_batch) batched_score_ns = ns;
      std::printf("  score_batch=%-3zu %.0f ns/pkt\n", b, ns);
    }
    std::printf("  default (%zu): %.0f ns/pkt, %.2fx vs batch=1, "
                "%.2fx vs per-row scorer\n\n",
                default_score_batch, batched_score_ns,
                batched_score_ns > 0.0 ? row_score_ns / batched_score_ns : 0.0,
                batched_score_ns > 0.0 ? score_ns / batched_score_ns : 0.0);
  }

  // Compiled-plan online sweep: the same micro-batched score_packets loop
  // at each plan precision. train() installs the f64 plan, so the f64 row
  // re-times the default path above and is the baseline the f32 row's
  // speedup is measured against; f32 trades a bounded score divergence for
  // speed. ns/pkt is the score-only marginal, like the sweep above;
  // divergence and alert identity are measured against the f64 scores over
  // the whole sweep stream at the calibrated threshold.
  struct CompiledPoint {
    const char* precision = nullptr;
    double ns = 0.0;
    double max_rel = 0.0;            // max relative score divergence vs f64
    bool alerts_identical = false;   // same alert set at proto threshold
    double speedup = 0.0;            // f64 plan ns / this plan's ns
  };
  std::vector<CompiledPoint> compiled_online;
  bool compiled_f64_identical = false;
  {
    const double thr = proto.threshold();
    std::vector<double> ref_scores(sweep_packets, 0.0);
    {
      core::OnlineKitsune det = proto;
      for (size_t lo = 0; lo < big.view.size(); lo += default_score_batch) {
        const size_t n = std::min(default_score_batch, big.view.size() - lo);
        det.score_packets({big.view.data() + lo, n}, ref_scores.data() + lo);
      }
    }
    std::vector<double> scores(default_score_batch, 0.0);
    std::vector<double> cmp_scores(sweep_packets, 0.0);
    std::printf("compiled online scoring (score-only ns/pkt, batch=%zu):\n",
                default_score_batch);
    for (ml::compiled::Precision p : {ml::compiled::Precision::kF64,
                                      ml::compiled::Precision::kF32}) {
      CompiledPoint cp;
      cp.precision = ml::compiled::precision_name(p);
      double best = 1e30;
      for (int rep = 0; rep < kReps; ++rep) {
        core::OnlineKitsune det = proto;
        if (auto c = det.compile(p); !c.ok()) {
          std::fprintf(stderr, "compile(%s): %s\n", cp.precision,
                       c.error().message.c_str());
          return 1;
        }
        const Clock::time_point t0 = Clock::now();
        for (size_t lo = 0; lo < big.view.size(); lo += default_score_batch) {
          const size_t n = std::min(default_score_batch, big.view.size() - lo);
          det.score_packets({big.view.data() + lo, n}, scores.data());
        }
        best = std::min(best, seconds_since(t0));
      }
      cp.ns = std::max(
          0.0, (best - extract_s_best) / static_cast<double>(sweep_packets) *
                   1e9);
      const double f64_ns =
          compiled_online.empty() ? cp.ns : compiled_online.front().ns;
      cp.speedup = cp.ns > 0.0 ? f64_ns / cp.ns : 0.0;
      {
        core::OnlineKitsune det = proto;
        (void)det.compile(p);
        for (size_t lo = 0; lo < big.view.size(); lo += default_score_batch) {
          const size_t n = std::min(default_score_batch, big.view.size() - lo);
          det.score_packets({big.view.data() + lo, n}, cmp_scores.data() + lo);
        }
      }
      cp.alerts_identical = true;
      for (size_t i = 0; i < sweep_packets; ++i) {
        const double denom = std::max(std::abs(ref_scores[i]), 1e-12);
        cp.max_rel = std::max(cp.max_rel,
                              std::abs(cmp_scores[i] - ref_scores[i]) / denom);
        if ((cmp_scores[i] > thr) != (ref_scores[i] > thr)) {
          cp.alerts_identical = false;
        }
      }
      if (p == ml::compiled::Precision::kF64) {
        compiled_f64_identical = cp.max_rel == 0.0 && cp.alerts_identical;
      }
      std::printf("  %-4s %.0f ns/pkt (%.2fx vs f64), "
                  "max rel divergence %.2e, alerts %s\n",
                  cp.precision, cp.ns, cp.speedup, cp.max_rel,
                  cp.alerts_identical ? "identical" : "DIVERGED");
      compiled_online.push_back(cp);
    }
    std::printf("  f64 plan %s\n\n", compiled_f64_identical
                                         ? "bit-identical to the default path"
                                         : "NOT bit-identical (BUG)");
  }

  // Per-model online breakdown over the pre-extracted feature matrix, model
  // math only (no extraction in any number). KitNET and AutoEncoder time
  // the per-row reference as `row`, their f64 plan — the models' own
  // scoring path — as `batched` at the default micro-batch, and the f32
  // plan as `compiled`. The table models time Model::score against their
  // wrapped f64 plan, which is exact by construction.
  struct ModelOnline {
    const char* name = nullptr;
    double row_ns = 0.0;       // per-row reference (0 = no row path)
    double batched_ns = 0.0;   // f64 plan micro-batches (0 = table model)
    double reference_ns = 0.0; // the model's own path, the compiled baseline
    double compiled_ns = 0.0;  // compiled plan, same batching as reference
    const char* precision = "f64";
  };
  std::vector<ModelOnline> online_models;
  bool table_compile_ok = true;
  {
    core::KitsuneExtractor ex;
    const size_t fdim = ex.dim();
    std::vector<double> feats(sweep_packets * fdim);
    std::vector<double> row;
    for (size_t i = 0; i < big.view.size(); ++i) {
      ex.process(big.view[i], row);
      std::copy(row.begin(), row.end(),
                feats.begin() + static_cast<std::ptrdiff_t>(i * fdim));
    }
    const double n = static_cast<double>(sweep_packets);
    std::vector<double> out(default_score_batch, 0.0);

    // Time a compiled plan over the same feature matrix at the default
    // micro-batch.
    const auto time_plan = [&](const ml::compiled::PlanPtr& plan) -> double {
      ml::compiled::Scratch ps;
      double best = 1e30;
      for (int rep = 0; rep < kReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        for (size_t lo = 0; lo < sweep_packets; lo += default_score_batch) {
          const size_t m = std::min(default_score_batch, sweep_packets - lo);
          plan->score_rows(feats.data() + lo * fdim, m, fdim, out.data(), ps);
        }
        best = std::min(best, seconds_since(t0));
      }
      return best / n * 1e9;
    };
    // Per-row reference vs the model's f64 plan vs its f32 plan.
    const auto add_neural_model =
        [&](const char* mname, const auto& row_fn,
            const ml::compiled::PlanPtr& f64,
            const Result<ml::compiled::PlanPtr>& f32) {
          double row_s = 1e30;
          for (int rep = 0; rep < kReps; ++rep) {
            const Clock::time_point t0 = Clock::now();
            for (size_t i = 0; i < sweep_packets; ++i) {
              row_fn(feats.data() + i * fdim);
            }
            row_s = std::min(row_s, seconds_since(t0));
          }
          const double f64_ns = time_plan(f64);
          double f32_ns = 0.0;
          if (f32.ok()) {
            f32_ns = time_plan(f32.value());
          } else {
            table_compile_ok = false;
          }
          online_models.push_back(ModelOnline{mname, row_s / n * 1e9, f64_ns,
                                              f64_ns, f32_ns, "f32"});
        };

    {
      const ml::KitNet& kn = proto.detector();
      ml::KitNet::ScoreScratch rs;
      add_neural_model(
          "KitNET",
          [&](const double* x) { (void)kn.score_row({x, fdim}, rs); },
          kn.plan(),
          ml::compiled::compile_kitnet(kn, {ml::compiled::Precision::kF32}));
    }
    {
      // A single full-width autoencoder (the other online-capable model),
      // trained for one pass over the grace region's features.
      const size_t train_rows = std::min<size_t>(sweep_packets, 2000);
      features::FeatureTable Xa =
          features::FeatureTable::make(train_rows, ex.feature_names());
      std::copy(feats.begin(),
                feats.begin() + static_cast<std::ptrdiff_t>(train_rows * fdim),
                Xa.data.begin());
      ml::AutoEncoderConfig acfg;
      acfg.hidden_ratio = 0.75;
      acfg.lr = 0.1;
      acfg.epochs = 1;
      acfg.seed = 77;
      ml::AutoEncoderDetector ae(acfg);
      ae.fit(Xa);
      ml::AutoEncoderCore::ScoreScratch rs;
      add_neural_model(
          "AutoEncoder",
          [&](const double* x) {
            (void)ae.core()->score_sample({x, fdim}, rs);
          },
          ae.plan(),
          ml::compiled::compile_autoencoder(
              ae, {ml::compiled::Precision::kF32}));
    }

    // Table-model scorers, trained on a labeled subsample of the streamed
    // features and timed over a fixed eval slice through Model::score vs
    // the wrapped compiled plan (both paths chunk internally). Labels map
    // each sweep-stream row back to its original capture packet.
    {
      const size_t tail = ds.trace.raw.size() - grace;
      auto label_of = [&](size_t view_i) -> int {
        const size_t raw_j = big.view[view_i].index;
        const size_t ci = grace + (raw_j % tail);
        return ci < ds.pkt_label.size() ? ds.pkt_label[ci] : 0;
      };
      const size_t eval_rows = std::min<size_t>(sweep_packets, 4096);
      const size_t train_rows = std::min<size_t>(sweep_packets, 2048);
      features::FeatureTable Xe =
          features::FeatureTable::make(eval_rows, ex.feature_names());
      for (size_t i = 0; i < eval_rows; ++i) {
        std::copy(feats.begin() + static_cast<std::ptrdiff_t>(i * fdim),
                  feats.begin() + static_cast<std::ptrdiff_t>((i + 1) * fdim),
                  Xe.row_mut(i).begin());
        Xe.labels[i] = label_of(i);
      }
      features::FeatureTable Xt =
          features::FeatureTable::make(train_rows, ex.feature_names());
      const size_t stride = std::max<size_t>(1, sweep_packets / train_rows);
      for (size_t i = 0; i < train_rows; ++i) {
        const size_t src = std::min(i * stride, sweep_packets - 1);
        std::copy(
            feats.begin() + static_cast<std::ptrdiff_t>(src * fdim),
            feats.begin() + static_cast<std::ptrdiff_t>((src + 1) * fdim),
            Xt.row_mut(i).begin());
        Xt.labels[i] = label_of(src);
      }

      constexpr int kTableReps = 3;
      const auto add_table_model = [&](const char* mname, ml::Model& mdl) {
        mdl.fit(Xt);
        ml::ModelPtr compiled;
        if (auto plan = ml::compiled::compile(mdl); plan.ok()) {
          compiled = ml::compiled::wrap(std::move(plan).value(), mname);
        } else {
          std::fprintf(stderr, "compile(%s): %s\n", mname,
                       plan.error().message.c_str());
          table_compile_ok = false;
          return;
        }
        double ref_s = 1e30, comp_s = 1e30;
        for (int rep = 0; rep < kTableReps; ++rep) {
          const Clock::time_point t0 = Clock::now();
          (void)mdl.score(Xe);
          ref_s = std::min(ref_s, seconds_since(t0));
        }
        for (int rep = 0; rep < kTableReps; ++rep) {
          const Clock::time_point t0 = Clock::now();
          (void)compiled->score(Xe);
          comp_s = std::min(comp_s, seconds_since(t0));
        }
        const double ne = static_cast<double>(eval_rows);
        online_models.push_back(ModelOnline{mname, 0.0, 0.0, ref_s / ne * 1e9,
                                            comp_s / ne * 1e9, "f64"});
      };

      ml::RandomForest forest;
      add_table_model("RandomForest", forest);
      ml::Gmm::Config gc;
      gc.components = 4;
      ml::Gmm gmm(gc);
      add_table_model("GMM", gmm);
      ml::OneClassSvm ocsvm;
      add_table_model("OCSVM", ocsvm);
      ml::LinearSvm lsvm;
      add_table_model("LinearSVM", lsvm);
      ml::Knn knn;
      add_table_model("KNN", knn);
    }

    for (const ModelOnline& m : online_models) {
      std::printf("online model %s: reference %.0f ns/row, compiled(%s) "
                  "%.0f ns/row (%.2fx)%s\n",
                  m.name, m.reference_ns, m.precision, m.compiled_ns,
                  m.compiled_ns > 0.0 ? m.reference_ns / m.compiled_ns : 0.0,
                  m.batched_ns > 0.0 ? "" : " [table path]");
    }
    std::printf("\n");
  }

  // Alert-set identity: a single-consumer run must emit bit-identical
  // per-packet scores and alert flags whether it scores row-at-a-time
  // (score_batch=1) or in default micro-batches. This is the acceptance
  // check for the micro-batched consumer.
  struct ScoreRecord {
    uint32_t index = 0;
    double score = 0.0;
    bool alerted = false;
    bool operator==(const ScoreRecord&) const = default;
  };
  class ScoreRecorder : public core::AlertSink {
   public:
    void on_alert(const core::Alert&) override {}
    void on_packet(const netio::PacketView& v, double s, bool a) override {
      recs.push_back(ScoreRecord{v.index, s, a});
    }
    std::vector<ScoreRecord> recs;
  };
  bool alerts_identical = false;
  {
    auto record_run = [&](size_t score_batch, std::vector<ScoreRecord>& out) {
      netio::TraceReplaySource src(big, netio::ReplayOptions{});
      core::IngestRuntime::Options o;
      o.score_batch = score_batch;
      ScoreRecorder sink;
      core::IngestRuntime rt(o, kitsune_factory, &sink);
      auto st = rt.run(src);
      if (!st.ok()) return false;
      out = std::move(sink.recs);
      return true;
    };
    std::vector<ScoreRecord> rec_row, rec_batched;
    alerts_identical = record_run(1, rec_row) &&
                       record_run(default_score_batch, rec_batched) &&
                       rec_row == rec_batched;
    std::printf("row-at-a-time vs micro-batched consumer: %zu vs %zu packets "
                "(%s)\n\n",
                rec_row.size(), rec_batched.size(),
                alerts_identical ? "bit-identical scores and alerts"
                                 : "MISMATCH (BUG)");
  }

  // Consumer sweep: offer the stream at a fixed kOfferedRate line rate
  // (deficit-paced replay) and check each consumer count keeps up. On a
  // one-core host an unpaced drain race cannot show a parallel speedup —
  // N replicas time-slice one CPU — so the meaningful scaling claim is
  // that adding consumers never costs sustained line-rate throughput (the
  // pre-refactor path fell from 62.5k to 41.7k pkts/s at 4 consumers).
  // Repetitions are interleaved round-robin across configurations so slow
  // host phases (CPU steal) hit every configuration alike.
  const double virtual_span =
      big.raw.back().ts - big.raw.front().ts + 0.001;
  const double offered_speed =
      virtual_span * kOfferedRate / static_cast<double>(sweep_packets);
  std::vector<ConfigResult> configs;
  for (size_t consumers : {1u, 2u, 4u}) {
    ConfigResult r;
    r.consumers = consumers;
    r.seconds = 1e30;
    configs.push_back(r);
  }
  for (int rep = 0; rep < kSweepReps; ++rep) {
    for (ConfigResult& r : configs) {
      // Scorer construction (a full KitNet copy per consumer) is setup,
      // not steady-state throughput: build them before starting the clock
      // so configs with more consumers aren't charged for extra copies.
      std::vector<std::unique_ptr<core::KitsuneScorer>> ready;
      for (size_t i = 0; i < r.consumers; ++i) {
        ready.push_back(std::make_unique<core::KitsuneScorer>(proto));
      }
      auto prebuilt_factory = [&ready](size_t i) { return std::move(ready[i]); };
      netio::ReplayOptions paced;
      paced.pace = true;
      paced.speed = offered_speed;
      paced.max_sleep = 0.005;
      netio::TraceReplaySource src(big, paced);
      core::IngestRuntime::Options opts;
      opts.consumers = r.consumers;
      opts.consumer_batch = 256;
      opts.queue_capacity = 8192;
      core::IngestRuntime rt(opts, prebuilt_factory, nullptr);
      // Sweep runs publish into the process registry (the stage-histogram
      // scrape below depends on that), so per-run accounting is a
      // before/after counter delta.
      const RunCounters before =
          scrape_counters(telemetry::Registry::process().snapshot(), "ingest.");
      const Clock::time_point t0 = Clock::now();
      auto stats = rt.run(src);
      const double secs = seconds_since(t0);
      if (!stats.ok()) {
        std::fprintf(stderr, "ingest: %s\n", stats.error().message.c_str());
        return 1;
      }
      if (secs < r.seconds) {
        r.seconds = secs;
        r.counters = counters_since(
            before,
            scrape_counters(telemetry::Registry::process().snapshot(),
                            "ingest."));
      }
    }
  }
  std::printf("offered load: %.0f pkts/s (paced replay)\n", kOfferedRate);
  std::printf("%-10s %-10s %-12s %-12s %-8s %s\n", "consumers", "seconds",
              "achieved", "sustained", "alerts", "kept_up");
  for (ConfigResult& r : configs) {
    r.achieved = r.seconds > 0.0
                     ? static_cast<double>(r.counters.scored) / r.seconds
                     : 0.0;
    // Pacing makes achieved <= offered by construction; within 2% means
    // the runtime was never the bottleneck, so it sustains the offered
    // rate (the standard keep-up reading of a paced throughput test).
    r.kept_up = r.achieved >= 0.98 * kOfferedRate;
    r.sustained = r.kept_up ? kOfferedRate : r.achieved;
    std::printf("%-10zu %-10.3f %-12.0f %-12.0f %-8llu %s\n", r.consumers,
                r.seconds, r.achieved, r.sustained,
                static_cast<unsigned long long>(r.counters.alerted),
                r.kept_up ? "yes" : "NO");
  }

  // Determinism: paced replay (sped up, sleeps clamped) must produce the
  // same alert count as unpaced replay — pacing only changes arrival
  // timing, never what gets scored. One consumer keeps capture order.
  auto alert_count = [&](bool pace) -> long long {
    netio::ReplayOptions opts = rest;
    opts.pace = pace;
    opts.speed = 2000.0;
    opts.max_sleep = 0.0005;
    netio::TraceReplaySource src(ds.trace, opts);
    core::CollectingSink sink;
    core::IngestRuntime rt(core::IngestRuntime::Options{}, kitsune_factory,
                           &sink);
    auto stats = rt.run(src);
    if (!stats.ok()) return -1;
    return static_cast<long long>(sink.alerts().size());
  };
  const long long unpaced_alerts = alert_count(false);
  const long long paced_alerts = alert_count(true);
  const bool deterministic =
      unpaced_alerts >= 0 && unpaced_alerts == paced_alerts;
  std::printf("\npaced vs unpaced alerts: %lld vs %lld (%s)\n", paced_alerts,
              unpaced_alerts, deterministic ? "identical" : "MISMATCH (BUG)");

  // Fault stress: multi-consumer run over a truncating/corrupting/
  // reordering source with a lossy queue. Parse skips are expected; the
  // runtime must account for every packet.
  netio::TraceReplaySource inner(ds.trace, rest);
  netio::FaultOptions faults;
  faults.truncate_p = 0.05;
  faults.corrupt_p = 0.05;
  faults.reorder_p = 0.05;
  faults.seed = 7;
  netio::FaultInjectingSource faulty(inner, faults);
  core::IngestRuntime::Options fopts;
  fopts.consumers = 2;
  fopts.queue_capacity = 512;
  fopts.overflow = core::OverflowPolicy::kDropOldest;
  telemetry::Registry fault_reg;
  fopts.registry = &fault_reg;
  core::IngestRuntime frt(fopts, kitsune_factory, nullptr);
  auto fstats_r = frt.run(faulty);
  if (!fstats_r.ok()) {
    std::fprintf(stderr, "fault ingest: %s\n", fstats_r.error().message.c_str());
    return 1;
  }
  const RunCounters fstats = scrape_counters(fault_reg.snapshot(), "ingest.");
  const bool fault_accounted = fstats.accounted();
  std::printf(
      "fault run (2 consumers, drop-oldest): enqueued=%llu dropped=%llu "
      "parse_skipped=%llu scored=%llu alerted=%llu (%s)\n",
      static_cast<unsigned long long>(fstats.enqueued),
      static_cast<unsigned long long>(fstats.dropped),
      static_cast<unsigned long long>(fstats.parse_skipped),
      static_cast<unsigned long long>(fstats.scored),
      static_cast<unsigned long long>(fstats.alerted),
      fault_accounted ? "accounted" : "LEAK (BUG)");

  // The runtime published per-stage latency histograms into the process
  // registry during the sweep; scrape their means as a cross-check on the
  // subtraction-based stage costs above.
  {
    const telemetry::Snapshot snap = telemetry::Registry::process().snapshot();
    for (const char* stage : {"extract", "score", "flush"}) {
      const auto* h = snap.find_histogram(std::string("ingest.stage.") +
                                          stage + "_ns");
      if (h != nullptr && h->count > 0) {
        std::printf("registry %s histogram: %llu samples, mean %.0f ns\n",
                    stage, static_cast<unsigned long long>(h->count),
                    h->sum / static_cast<double>(h->count));
      }
    }
  }

  // Sharded ingestion: flow-hash-sharded SPSC pipelines vs the single
  // mutex queue. Unpaced drains measure routing overhead at shards=1 (the
  // acceptance bound: within 10% of the single-queue drain) and 4-shard
  // scaling (only meaningful on multi-core hosts — one core time-slices
  // the shard threads); a shards=1 recorder run must reproduce the
  // single-queue per-packet record stream bit-for-bit (the N-shard
  // partition equivalence is pinned by ingest_shard_test against a
  // sequential per-shard reference); a 4-shard run against a private
  // registry reports router hash balance and ring occupancy high-water;
  // and a paced run hot-swaps a freshly built scorer mid-stream through
  // deploy() without draining traffic.
  double shard1_rate = 0.0, shard4_rate = 0.0;
  bool sharded_alerts_identical = false;
  uint64_t balance_max = 0, balance_min = 0, ring_hw_max = 0;
  uint64_t swaps_applied = 0;
  bool hot_swap_accounted = false;
  RunCounters swap_stats;
  const bool multi_core = ThreadPool::hardware_threads() >= 4;
  {
    auto shard_drain = [&](size_t shards) -> double {
      double best_s = 1e30;
      for (int rep = 0; rep < kReps; ++rep) {
        netio::TraceReplaySource src(big, netio::ReplayOptions{});
        core::IngestRuntime::Options o;
        o.shards = shards;
        core::IngestRuntime rt(o, kitsune_factory, nullptr);
        const Clock::time_point t0 = Clock::now();
        auto stats = rt.run(src);
        if (!stats.ok()) {
          std::fprintf(stderr, "sharded ingest: %s\n",
                       stats.error().message.c_str());
          return 0.0;
        }
        best_s = std::min(best_s, seconds_since(t0));
      }
      return best_s > 0.0 ? static_cast<double>(sweep_packets) / best_s : 0.0;
    };
    shard1_rate = shard_drain(1);
    shard4_rate = shard_drain(4);
    std::printf(
        "\nsharded unpaced drain: 1 shard %.0f pkts/s (%.2fx single-queue), "
        "4 shards %.0f pkts/s (%.2fx vs 1 shard, %s host)\n",
        shard1_rate, unpaced_peak > 0.0 ? shard1_rate / unpaced_peak : 0.0,
        shard4_rate, shard1_rate > 0.0 ? shard4_rate / shard1_rate : 0.0,
        multi_core ? "multi-core" : "single-core");

    // shards=1 routes everything through one SPSC ring and one consumer,
    // so it must reproduce the single-queue record stream exactly.
    auto sharded_record_run = [&](size_t shards,
                                  std::vector<ScoreRecord>& out) {
      netio::TraceReplaySource src(big, netio::ReplayOptions{});
      core::IngestRuntime::Options o;
      o.shards = shards;
      ScoreRecorder sink;
      core::IngestRuntime rt(o, kitsune_factory, &sink);
      auto st = rt.run(src);
      if (!st.ok()) return false;
      out = std::move(sink.recs);
      return true;
    };
    std::vector<ScoreRecord> rec_single_queue, rec_sharded;
    {
      netio::TraceReplaySource src(big, netio::ReplayOptions{});
      ScoreRecorder sink;
      core::IngestRuntime rt(core::IngestRuntime::Options{}, kitsune_factory,
                             &sink);
      auto st = rt.run(src);
      if (st.ok()) rec_single_queue = std::move(sink.recs);
    }
    sharded_alerts_identical = !rec_single_queue.empty() &&
                               sharded_record_run(1, rec_sharded) &&
                               rec_single_queue == rec_sharded;
    std::printf("sharded vs single-queue records: %zu vs %zu packets (%s)\n",
                rec_sharded.size(), rec_single_queue.size(),
                sharded_alerts_identical
                    ? "bit-identical scores and alerts"
                    : "MISMATCH (BUG)");

    // Router hash balance and ring occupancy, scraped from a private
    // registry so the per-shard instruments aren't mixed with the sweep's.
    {
      telemetry::Registry reg;
      core::IngestRuntime::Options o;
      o.shards = 4;
      o.registry = &reg;
      netio::TraceReplaySource src(big, netio::ReplayOptions{});
      core::IngestRuntime rt(o, kitsune_factory, nullptr);
      auto st = rt.run(src);
      if (st.ok()) {
        const telemetry::Snapshot snap = reg.snapshot();
        balance_min = UINT64_MAX;
        for (int i = 0; i < 4; ++i) {
          const std::string p = "ingest.shard" + std::to_string(i) + ".";
          const uint64_t routed = snap.counter_value(p + "routed");
          balance_max = std::max(balance_max, routed);
          balance_min = std::min(balance_min, routed);
          ring_hw_max = std::max(
              ring_hw_max,
              static_cast<uint64_t>(snap.gauge_value(p + "ring.high_water")));
        }
        if (balance_min == UINT64_MAX) balance_min = 0;
        std::printf("router balance over 4 shards: max %llu / min %llu "
                    "packets, ring high-water max %llu\n",
                    static_cast<unsigned long long>(balance_max),
                    static_cast<unsigned long long>(balance_min),
                    static_cast<unsigned long long>(ring_hw_max));
      }
    }

    // Hot swap under paced load: deploy() publishes a fresh scorer while
    // the shards are mid-stream; every consumer picks it up at its next
    // batch boundary and accounting stays lossless.
    {
      telemetry::Registry reg;
      core::IngestRuntime::Options o;
      o.shards = 2;
      o.registry = &reg;
      netio::ReplayOptions paced;
      paced.pace = true;
      paced.speed = offered_speed;
      paced.max_sleep = 0.005;
      netio::TraceReplaySource src(big, paced);
      core::IngestRuntime rt(o, kitsune_factory, nullptr);
      std::atomic<bool> run_ok{false};
      std::thread driver([&] {
        auto st = rt.run(src);
        if (st.ok()) run_ok.store(true);
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      rt.deploy([&proto](size_t) {
        return std::make_unique<core::KitsuneScorer>(proto);
      });
      driver.join();
      if (run_ok.load()) {
        const telemetry::Snapshot snap = reg.snapshot();
        swap_stats = scrape_counters(snap, "ingest.");
        hot_swap_accounted = swap_stats.accounted();
        swaps_applied = snap.counter_value("ingest.swaps_applied");
      }
      std::printf("hot swap under paced load (2 shards): scored=%llu "
                  "swaps_applied=%llu (%s)\n",
                  static_cast<unsigned long long>(swap_stats.scored),
                  static_cast<unsigned long long>(swaps_applied),
                  hot_swap_accounted ? "accounted" : "LEAK (BUG)");
    }
  }

  // Socket front-end: the same sweep stream delivered over loopback TCP
  // through the event-driven gateway instead of in-process replay. Three
  // measurements: drain rate (gate: >= 0.8x the replay drain — the epoll
  // loop, framing decode, and loopback copies are the only extra work),
  // score/alert identity vs the replay record stream (the wire carries the
  // exact capture index and timestamp, so records must match bit for bit),
  // and accept-to-first-score latency over a series of short connections.
  double socket_rate = 0.0;
  bool socket_alerts_identical = false;
  bool socket_accounted = false;
  uint64_t socket_frames = 0, socket_shed = 0;
  size_t socket_conns = 0;
  double lat_ms_min = 0.0, lat_ms_p50 = 0.0, lat_ms_p90 = 0.0,
         lat_ms_max = 0.0;
  {
    // Drain rate: one connection streaming the whole sweep stream into a
    // 1-consumer runtime (the shape unpaced_peak was measured with).
    double best_s = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
      netio::FrontendOptions fo;
      fo.link = big.link;
      telemetry::Registry fe_reg;
      fo.registry = &fe_reg;
      netio::GatewayFrontend fe(fo);
      if (!fe.bind().ok()) break;
      std::thread client([&] {
        (void)netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), big, 0);
      });
      core::IngestRuntime rt(core::IngestRuntime::Options{}, kitsune_factory,
                             nullptr);
      const Clock::time_point t0 = Clock::now();
      auto st = rt.run(fe);
      const double secs = seconds_since(t0);
      client.join();
      if (!st.ok()) break;
      best_s = std::min(best_s, secs);
    }
    socket_rate = best_s < 1e29 && best_s > 0.0
                      ? static_cast<double>(sweep_packets) / best_s
                      : 0.0;
    std::printf("\nsocket drain (loopback TCP, 1 consumer): %.0f pkts/s "
                "(%.2fx replay drain)\n",
                socket_rate,
                unpaced_peak > 0.0 ? socket_rate / unpaced_peak : 0.0);

    // Identity + accounting: recorder runs over replay and socket must
    // produce the same per-packet record stream, and the conservation
    // invariant must span the socket path.
    std::vector<ScoreRecord> rec_replay, rec_socket;
    {
      netio::TraceReplaySource src(big, netio::ReplayOptions{});
      ScoreRecorder sink;
      core::IngestRuntime rt(core::IngestRuntime::Options{}, kitsune_factory,
                             &sink);
      if (rt.run(src).ok()) rec_replay = std::move(sink.recs);
    }
    {
      netio::FrontendOptions fo;
      fo.link = big.link;
      telemetry::Registry fe_reg;
      fo.registry = &fe_reg;
      netio::GatewayFrontend fe(fo);
      if (fe.bind().ok()) {
        std::thread client([&] {
          (void)netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), big, 0);
        });
        telemetry::Registry rt_reg;
        core::IngestRuntime::Options o;
        o.registry = &rt_reg;
        ScoreRecorder sink;
        core::IngestRuntime rt(o, kitsune_factory, &sink);
        const bool ok = rt.run(fe).ok();
        client.join();
        if (ok) {
          rec_socket = std::move(sink.recs);
          const RunCounters c =
              scrape_counters(rt_reg.snapshot(), "ingest.");
          for (const netio::ConnReport& r : fe.connections()) {
            socket_frames += r.frames;
            socket_shed += r.shed;
          }
          socket_conns = fe.connections().size();
          socket_accounted = c.accounted() &&
                             socket_frames == sweep_packets &&
                             socket_frames == c.enqueued;
        }
      }
    }
    socket_alerts_identical =
        !rec_replay.empty() && rec_replay == rec_socket;
    std::printf("socket vs replay records: %zu vs %zu packets (%s); "
                "%zu conns, %llu frames, %llu shed (%s)\n",
                rec_socket.size(), rec_replay.size(),
                socket_alerts_identical ? "bit-identical scores and alerts"
                                        : "MISMATCH (BUG)",
                socket_conns, static_cast<unsigned long long>(socket_frames),
                static_cast<unsigned long long>(socket_shed),
                socket_accounted ? "accounted" : "LEAK (BUG)");

    // Accept-to-first-score latency: sequential short connections, each
    // carrying one slice of the stream; the clock runs from just before
    // connect() to the consumer scoring that connection's first packet.
    {
      constexpr size_t kLatConns = 16;
      const size_t slice = sweep_packets / kLatConns;
      std::vector<Clock::time_point> connect_at(kLatConns);
      std::vector<Clock::time_point> scored_at(kLatConns);
      class FirstScoreSink : public core::AlertSink {
       public:
        FirstScoreSink(size_t slice, std::vector<Clock::time_point>& at)
            : slice_(slice), at_(at) {}
        void on_alert(const core::Alert&) override {}
        void on_packet(const netio::PacketView& v, double, bool) override {
          if (v.index % slice_ == 0) {
            const size_t i = v.index / slice_;
            if (i < at_.size()) at_[i] = Clock::now();
          }
        }
       private:
        size_t slice_;
        std::vector<Clock::time_point>& at_;
      };
      netio::FrontendOptions fo;
      fo.link = big.link;
      fo.min_streams = kLatConns;
      telemetry::Registry fe_reg;
      fo.registry = &fe_reg;
      netio::GatewayFrontend fe(fo);
      if (fe.bind().ok()) {
        std::thread client([&] {
          for (size_t i = 0; i < kLatConns; ++i) {
            connect_at[i] = Clock::now();
            auto s = netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), big, 0,
                                           i * slice, (i + 1) * slice);
            if (!s.ok()) return;
          }
        });
        FirstScoreSink sink(slice, scored_at);
        core::IngestRuntime rt(core::IngestRuntime::Options{},
                               kitsune_factory, &sink);
        const bool ok = rt.run(fe).ok();
        client.join();
        if (ok) {
          std::vector<double> ms;
          for (size_t i = 0; i < kLatConns; ++i) {
            const double v =
                std::chrono::duration<double, std::milli>(scored_at[i] -
                                                          connect_at[i])
                    .count();
            if (v > 0.0) ms.push_back(v);
          }
          if (!ms.empty()) {
            std::sort(ms.begin(), ms.end());
            lat_ms_min = ms.front();
            lat_ms_p50 = ms[ms.size() / 2];
            lat_ms_p90 = ms[ms.size() * 9 / 10];
            lat_ms_max = ms.back();
            std::printf("accept-to-first-score latency over %zu conns: "
                        "min %.2f ms, p50 %.2f ms, p90 %.2f ms, max %.2f "
                        "ms\n",
                        ms.size(), lat_ms_min, lat_ms_p50, lat_ms_p90,
                        lat_ms_max);
          }
        }
      }
    }
  }

  // JSON artifact, rendered through the unified telemetry serializer (the
  // same Writer Snapshot::to_json uses).
  telemetry::json::Writer w;
  w.kv_str("benchmark", "ingest_runtime");
  w.kv_str("capture", "P1");
  w.kv_u64("streamed_packets", streamed);
  w.kv_u64("sweep_packets", sweep_packets);
  w.kv_i64("stream_repeats", kStreamRepeats);
  w.kv_u64("threads", ThreadPool::global().size());
  w.kv_u64("hardware_threads", ThreadPool::hardware_threads());
  w.kv_i64("reps", kReps);
  w.begin_inline_object("stage_ns_per_pkt");
  w.kv_f("extract", extract_ns, 1);
  w.kv_f("score", score_ns, 1);
  w.kv_f("queue", queue_ns, 1);
  w.end();
  w.kv_f("unpaced_single_consumer_pkts_per_sec", unpaced_peak, 1);
  w.kv_f("offered_pkts_per_sec", kOfferedRate, 1);
  w.begin_inline_object("online");
  w.kv_u64("score_batch_default", default_score_batch);
  w.kv_f("row_score_ns_per_pkt", row_score_ns, 1);
  w.kv_f("batched_score_ns_per_pkt", batched_score_ns, 1);
  w.kv_f("speedup_vs_batch1", batched_score_ns > 0.0
                                  ? row_score_ns / batched_score_ns
                                  : 0.0,
         2);
  w.kv_f("speedup_vs_perrow_scorer",
         batched_score_ns > 0.0 ? score_ns / batched_score_ns : 0.0, 2);
  w.kv_bool("alerts_identical", alerts_identical);
  w.end();
  w.begin_array("online_sweep");
  for (const OnlinePoint& p : online_sweep) {
    w.begin_inline_object();
    w.kv_u64("score_batch", p.batch);
    w.kv_f("score_ns_per_pkt", p.ns, 1);
    w.end();
  }
  w.end();
  w.begin_array("online_compiled");
  for (const CompiledPoint& cp : compiled_online) {
    w.begin_inline_object();
    w.kv_str("precision", cp.precision);
    w.kv_f("score_ns_per_pkt", cp.ns, 1);
    w.kv_f("speedup_vs_reference", cp.speedup, 2);
    w.kv_f("max_rel_divergence", cp.max_rel, 6);
    w.kv_bool("alerts_identical", cp.alerts_identical);
    w.end();
  }
  w.end();
  w.begin_array("online_models");
  for (const ModelOnline& m : online_models) {
    w.begin_inline_object();
    w.kv_str("model", m.name);
    w.kv_f("row_ns_per_row", m.row_ns, 1);
    w.kv_f("batched_ns_per_row", m.batched_ns, 1);
    w.kv_f("speedup", m.batched_ns > 0.0 ? m.row_ns / m.batched_ns : 0.0, 2);
    w.kv_str("compiled_precision", m.precision);
    w.kv_f("reference_ns_per_row", m.reference_ns, 1);
    w.kv_f("compiled_ns_per_row", m.compiled_ns, 1);
    w.kv_f("compiled_vs_reference",
           m.compiled_ns > 0.0 ? m.reference_ns / m.compiled_ns : 0.0, 2);
    w.end();
  }
  w.end();
  w.begin_array("configs");
  for (const ConfigResult& r : configs) {
    w.begin_inline_object();
    w.kv_u64("consumers", r.consumers);
    w.kv_f("seconds", r.seconds, 4);
    w.kv_f("pkts_per_sec", r.sustained, 1);
    w.kv_f("achieved_pkts_per_sec", r.achieved, 1);
    w.kv_bool("kept_up", r.kept_up);
    w.kv_u64("scored", r.counters.scored);
    w.kv_u64("alerted", r.counters.alerted);
    w.end();
  }
  w.end();
  w.kv_i64("paced_alerts", paced_alerts);
  w.kv_i64("unpaced_alerts", unpaced_alerts);
  w.kv_bool("paced_deterministic", deterministic);
  w.begin_inline_object("fault_run");
  w.kv_u64("enqueued", fstats.enqueued);
  w.kv_u64("dropped", fstats.dropped);
  w.kv_u64("parse_skipped", fstats.parse_skipped);
  w.kv_u64("scored", fstats.scored);
  w.kv_u64("alerted", fstats.alerted);
  w.kv_bool("accounted", fault_accounted);
  w.end();
  w.begin_inline_object("sharded");
  w.kv_f("single_shard_pkts_per_sec", shard1_rate, 1);
  w.kv_f("four_shard_pkts_per_sec", shard4_rate, 1);
  w.kv_f("sharded_vs_single_queue",
         unpaced_peak > 0.0 ? shard1_rate / unpaced_peak : 0.0, 3);
  w.kv_f("scaling_4shard_vs_1shard",
         shard1_rate > 0.0 ? shard4_rate / shard1_rate : 0.0, 3);
  w.kv_bool("multi_core", multi_core);
  w.kv_bool("sharded_alerts_identical", sharded_alerts_identical);
  w.kv_u64("ring_high_water_max", ring_hw_max);
  w.kv_u64("balance_max_shard_pkts", balance_max);
  w.kv_u64("balance_min_shard_pkts", balance_min);
  w.kv_u64("swaps_applied", swaps_applied);
  w.kv_bool("hot_swap_accounted", hot_swap_accounted);
  w.end();
  w.begin_inline_object("socket");
  w.kv_f("socket_drain_pkts_per_sec", socket_rate, 1);
  w.kv_f("replay_drain_pkts_per_sec", unpaced_peak, 1);
  w.kv_f("socket_vs_replay",
         unpaced_peak > 0.0 ? socket_rate / unpaced_peak : 0.0, 3);
  w.kv_bool("socket_alerts_identical", socket_alerts_identical);
  w.kv_u64("socket_conns", socket_conns);
  w.kv_u64("socket_frames", socket_frames);
  w.kv_u64("socket_shed", socket_shed);
  w.kv_bool("socket_accounted", socket_accounted);
  w.kv_f("first_score_ms_min", lat_ms_min, 2);
  w.kv_f("first_score_ms_p50", lat_ms_p50, 2);
  w.kv_f("first_score_ms_p90", lat_ms_p90, 2);
  w.kv_f("first_score_ms_max", lat_ms_max, 2);
  w.end();
  if (std::FILE* f = std::fopen("BENCH_ingest.json", "w")) {
    const std::string doc = w.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("[artifact] BENCH_ingest.json\n");
  }
  return (deterministic && fault_accounted && alerts_identical &&
          sharded_alerts_identical && hot_swap_accounted &&
          compiled_f64_identical && table_compile_ok &&
          socket_alerts_identical && socket_accounted)
             ? 0
             : 1;
}
