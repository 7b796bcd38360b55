// Compiled inference plans (ml/compiled.h) against their source models:
//  * the KitNET / autoencoder f64 plan is the models' own inference path:
//    it matches the per-row reference to 1e-9 with identical alert sets on
//    the P1-P4 golden captures, and the threshold is the quantile of its
//    own scores over the benign training rows;
//  * the live scores on P1 are pinned bit for bit on the scalar backend;
//  * plans honor the micro-batch contract (batch-size invariance) and score
//    tables narrower than their input as zeros;
//  * the table models, which have no plan, keep the same two contracts in
//    their own score(): a forest reads only its split columns, and row i's
//    score does not depend on which rows share the table;
//  * a compiled plan hot-swaps through IngestRuntime::deploy mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/ingest.h"
#include "core/kitsune_extractor.h"
#include "core/stream.h"
#include "ml/compiled.h"
#include "ml/dense.h"
#include "ml/forest.h"
#include "ml/gmm.h"
#include "ml/kernel.h"
#include "ml/kitnet.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "ml/tree.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace lumen {
namespace {

using core::OnlineKitsune;
using features::FeatureTable;
using ml::compiled::Precision;

/// Two Gaussian blobs in `dims` dimensions separated by `gap` stddevs.
FeatureTable blobs(size_t n_per_class, size_t dims, double gap,
                   uint64_t seed) {
  std::vector<std::string> names;
  for (size_t d = 0; d < dims; ++d) {
    names.push_back(std::string("f").append(std::to_string(d)));
  }
  FeatureTable t = FeatureTable::make(2 * n_per_class, names);
  Rng rng(seed);
  for (size_t i = 0; i < 2 * n_per_class; ++i) {
    const int label = i < n_per_class ? 0 : 1;
    for (size_t d = 0; d < dims; ++d) {
      t.at(i, d) = rng.normal(label == 0 ? 0.0 : gap, 1.0);
    }
    t.labels[i] = label;
    t.unit_id[i] = static_cast<int64_t>(i);
    t.unit_time[i] = static_cast<double>(i);
  }
  return t;
}

/// A detector trained on the benign prefix of one golden capture, plus the
/// live remainder to score.
struct TrainedKitsune {
  OnlineKitsune det;
  std::span<const netio::PacketView> prefix;
  std::span<const netio::PacketView> live;
};

TrainedKitsune train_on(const trace::Dataset& ds) {
  const size_t grace = ds.trace.view.size() * 45 / 100;
  TrainedKitsune t;
  t.prefix = std::span<const netio::PacketView>(ds.trace.view.data(), grace);
  t.live = std::span<const netio::PacketView>(ds.trace.view.data() + grace,
                                              ds.trace.view.size() - grace);
  t.det.train(t.prefix);
  return t;
}

std::vector<double> score_live(OnlineKitsune det,
                               std::span<const netio::PacketView> live,
                               size_t chunk) {
  std::vector<double> scores(live.size(), 0.0);
  for (size_t lo = 0; lo < live.size(); lo += chunk) {
    const size_t n = std::min(chunk, live.size() - lo);
    det.score_packets(live.subspan(lo, n), scores.data() + lo);
  }
  return scores;
}

// ------------------------------------------------------------- KitNET f64

TEST(CompiledKitnet, F64PlanMatchesPerRowReferenceOnLiveStream) {
  for (const char* name : {"P1", "P2", "P3", "P4"}) {
    const trace::Dataset ds = trace::make_dataset(name, 0.25);
    TrainedKitsune t = train_on(ds);

    // train() installs the f64 plan; compile(kF64) hands back that plan.
    const ml::compiled::PlanPtr plan = t.det.compiled_plan();
    ASSERT_NE(plan, nullptr) << name;
    EXPECT_EQ(plan->dim(), t.det.extractor().dim());
    EXPECT_EQ(plan->threshold(), t.det.threshold());
    EXPECT_GT(plan->weight_bytes(), 0u);
    OnlineKitsune recompiled = t.det;
    ASSERT_TRUE(recompiled.compile(Precision::kF64).ok());
    EXPECT_EQ(recompiled.compiled_plan(), plan);

    // The per-row reference over the same extractor states, within the
    // BatchedEquivalence tolerance, with the same alert set.
    const std::vector<double> got = score_live(t.det, t.live, 64);
    core::KitsuneExtractor ex = t.det.extractor();
    std::vector<double> row;
    const double thr = t.det.threshold();
    for (size_t i = 0; i < t.live.size(); ++i) {
      ex.process(t.live[i], row);
      const double ref = t.det.detector().score_row(row);
      ASSERT_NEAR(got[i], ref,
                  1e-9 + 1e-9 * std::max(std::fabs(got[i]), std::fabs(ref)))
          << name << " packet " << i;
      ASSERT_EQ(ref > thr, got[i] > thr) << name << " packet " << i;
    }
  }
}

// The threshold gates the plan's scores, so it must come from them: the
// configured quantile of the plan's scores over the benign training rows,
// bit for bit, carried unchanged by the plan.
TEST(CompiledKitnet, ThresholdIsPlanQuantileOverTrainingRows) {
  const double quantile = OnlineKitsune::Options{}.threshold_quantile;
  for (const char* name : {"P1", "P2", "P3", "P4"}) {
    const trace::Dataset ds = trace::make_dataset(name, 0.25);
    TrainedKitsune t = train_on(ds);
    ASSERT_TRUE(t.det.compile(Precision::kF64).ok()) << name;
    const ml::compiled::PlanPtr& plan = t.det.compiled_plan();

    // Re-extract the training prefix the way train() did.
    core::KitsuneExtractor ex;
    const size_t dim = ex.dim();
    std::vector<double> rows(t.prefix.size() * dim);
    std::vector<double> row;
    for (size_t i = 0; i < t.prefix.size(); ++i) {
      ex.process(t.prefix[i], row);
      std::copy(row.begin(), row.end(), rows.begin() + i * dim);
    }
    std::vector<double> scores(t.prefix.size(), 0.0);
    ml::compiled::Scratch scratch;
    plan->score_rows(rows.data(), t.prefix.size(), dim, scores.data(),
                     scratch);
    EXPECT_EQ(t.det.threshold(), ml::quantile_threshold(scores, quantile))
        << name;
    EXPECT_EQ(plan->threshold(), t.det.threshold()) << name;
  }
}

TEST(CompiledKitnet, F64PlanSinglePacketMatchesMicroBatched) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.25);
  TrainedKitsune t = train_on(ds);
  ASSERT_TRUE(t.det.compile(Precision::kF64).ok());

  OnlineKitsune one_by_one = t.det;
  std::vector<double> single(t.live.size(), 0.0);
  for (size_t i = 0; i < t.live.size(); ++i) {
    single[i] = one_by_one.score_packet(t.live[i]);
  }
  const std::vector<double> batched = score_live(t.det, t.live, 64);
  const std::vector<double> ragged = score_live(t.det, t.live, 7);
  for (size_t i = 0; i < single.size(); ++i) {
    ASSERT_EQ(single[i], batched[i]) << "packet " << i;
    ASSERT_EQ(single[i], ragged[i]) << "packet " << i;
  }
}

/// FNV-1a over the bit patterns of every score.
uint64_t fnv1a(const std::vector<double>& scores) {
  uint64_t h = 14695981039346656037ull;
  for (const double s : scores) {
    const auto* b = reinterpret_cast<const unsigned char*>(&s);
    for (size_t i = 0; i < sizeof s; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

// The live scores pinned bit for bit: P1's live stream at batch 64 through
// the plan train() installs, trained and scored on the scalar dense backend.
// The AVX2 kernels' score bits move with the build's flags (the Release,
// ASan and TSan builds each read another digest here); the scalar
// reference's do not.
TEST(CompiledKitnet, LiveScoresAreBitIdenticalToRecorded) {
  ml::dense::ScopedBackend scalar(ml::dense::Backend::kScalar);
  const trace::Dataset ds = trace::make_dataset("P1", 0.25);
  TrainedKitsune t = train_on(ds);
  const std::vector<double> scores = score_live(t.det, t.live, 64);
  ASSERT_EQ(scores.size(), 984u);
  EXPECT_EQ(fnv1a(scores), 0x4e2577cf69330eb3ull)
      << "0x" << std::hex << fnv1a(scores);
}

// ------------------------------------------------------------ table models
//
// The table models have no compiled plan: each scores only through its own
// batched score(), and dense_test pins that path against the per-row
// oracle. These cases pin the two properties the live and epoch paths rely
// on: the width contract and batch-composition invariance.

std::vector<std::pair<std::string, ml::ModelPtr>> table_models() {
  return {{"forest", std::make_shared<ml::RandomForest>()},
          {"tree", std::make_shared<ml::DecisionTree>()},
          {"gmm", std::make_shared<ml::Gmm>()},
          {"ocsvm", std::make_shared<ml::OneClassSvm>()},
          {"linear_ocsvm", std::make_shared<ml::LinearOneClassSvm>()},
          {"linear_svm", std::make_shared<ml::LinearSvm>()},
          {"logreg", std::make_shared<ml::LogisticRegression>()},
          {"knn", std::make_shared<ml::Knn>()}};
}

/// The first `cols` columns of t.
FeatureTable first_cols(const FeatureTable& t, size_t cols) {
  std::vector<uint8_t> keep(t.cols, 0);
  std::fill_n(keep.begin(), cols, 1);
  return t.select_cols(keep);
}

size_t split_width(const ml::RandomForest& forest) {
  size_t width = 0;
  for (const auto& t : forest.trees()) width = std::max(width, t.input_width());
  return width;
}

// A forest reads only the columns its splits reference, which can be
// narrower than the training table (here: trailing constant columns no
// split can use). RandomForest::score treats the highest split feature + 1
// as the minimum row width: a table that drops the unused columns scores
// exactly like the full one, a table narrower than the splits scores
// zeros, and a forest restored from the trees keeps both rules.
TEST(TableModels, ForestScoresTableAsWideAsItsSplits) {
  FeatureTable train = blobs(150, 4, 3.0, 917);
  FeatureTable test = blobs(90, 4, 3.0, 918);
  for (FeatureTable* t : {&train, &test}) {
    FeatureTable wide = FeatureTable::make(
        t->rows, {"f0", "f1", "f2", "f3", "pad0", "pad1"});
    for (size_t i = 0; i < t->rows; ++i) {
      for (size_t c = 0; c < t->cols; ++c) wide.at(i, c) = t->at(i, c);
      wide.at(i, 4) = 1.0;  // constant -> never a split candidate
      wide.at(i, 5) = -2.5;
    }
    wide.labels = t->labels;
    *t = std::move(wide);
  }
  ml::RandomForest forest;
  forest.fit(train);
  const size_t width = split_width(forest);
  ASSERT_GT(width, size_t{1});
  ASSERT_LE(width, size_t{4});

  const std::vector<double> full = forest.score(test);
  bool any_nonzero = false;
  for (const double s : full) any_nonzero = any_nonzero || s != 0.0;
  EXPECT_TRUE(any_nonzero);

  ml::RandomForest restored;
  restored.restore(forest.trees());
  EXPECT_EQ(split_width(restored), width);
  for (const ml::RandomForest* f : {&forest, &restored}) {
    EXPECT_EQ(f->score(test), full);
    EXPECT_EQ(f->score(first_cols(test, width)), full);  // bitwise
    const FeatureTable narrow = first_cols(test, width - 1);
    EXPECT_EQ(f->score(narrow), std::vector<double>(test.rows, 0.0));
    EXPECT_EQ(f->predict(narrow), std::vector<int>(test.rows, 0));
  }
}

// Row i's score must not depend on which rows share the table: the
// streaming predict operator scores epoch by epoch, the batch engine
// scores the whole table at once.
TEST(TableModels, ScoreIsBatchCompositionInvariant) {
  const FeatureTable train = blobs(120, 5, 3.0, 412);
  const FeatureTable test = blobs(70, 5, 3.0, 413);
  for (auto& [name, model] : table_models()) {
    model->fit(train);
    // OneClassSvm::score inherits sq_dist_batch's crossover: the kernel
    // switches between the direct per-row path and the GEMM expansion at
    // kSqDistBatchCrossover rows, so results across chunkings agree to
    // tight tolerance, not bitwise (dense_test pins the same bound for the
    // kernel itself). Every other model is bitwise invariant.
    const bool bitwise = name != "ocsvm";
    const std::vector<double> whole = model->score(test);
    ASSERT_EQ(whole.size(), test.rows) << name;
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64}}) {
      for (size_t lo = 0; lo < test.rows; lo += chunk) {
        std::vector<size_t> rows;
        for (size_t i = lo; i < std::min(lo + chunk, test.rows); ++i) {
          rows.push_back(i);
        }
        const std::vector<double> part = model->score(test.select_rows(rows));
        ASSERT_EQ(part.size(), rows.size()) << name;
        for (size_t i = 0; i < rows.size(); ++i) {
          if (bitwise) {
            ASSERT_EQ(whole[lo + i], part[i])
                << name << " chunk " << chunk << " row " << lo + i;
          } else {
            ASSERT_NEAR(whole[lo + i], part[i], 1e-9)
                << name << " chunk " << chunk << " row " << lo + i;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ neural plans

TEST(CompiledPlan, PlanScoreRowsIsBatchSizeInvariant) {
  const FeatureTable train = blobs(120, 5, 3.0, 412);
  const FeatureTable test = blobs(70, 5, 3.0, 413);
  ml::KitNet::Config kcfg;
  kcfg.fm_grace = 100;
  kcfg.max_cluster_size = 3;  // several clusters over 5 columns
  ml::KitNet kitnet(kcfg);
  ml::AutoEncoderDetector autoencoder;
  kitnet.fit(train);
  autoencoder.fit(train);
  const std::pair<std::string, ml::compiled::PlanPtr> plans[] = {
      {kitnet.name(), kitnet.plan()}, {autoencoder.name(), autoencoder.plan()}};
  for (const auto& [name, plan] : plans) {
    ASSERT_NE(plan, nullptr) << name;
    ml::compiled::Scratch scratch;
    std::vector<double> whole(test.rows, 0.0);
    plan->score_rows(test.data.data(), test.rows, test.cols, whole.data(),
                     scratch);
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64}}) {
      std::vector<double> chunked(test.rows, 0.0);
      for (size_t lo = 0; lo < test.rows; lo += chunk) {
        const size_t m = std::min(chunk, test.rows - lo);
        plan->score_rows(test.data.data() + lo * test.cols, m, test.cols,
                         chunked.data() + lo, scratch);
      }
      for (size_t i = 0; i < whole.size(); ++i) {
        ASSERT_EQ(whole[i], chunked[i])
            << name << " chunk " << chunk << " row " << i;
      }
    }
  }
}

// Scoring a table narrower than the fit width must not read past its rows:
// the neural models score it as zeros.
TEST(CompiledPlan, NeuralModelsScoreNarrowTableAsZeros) {
  const FeatureTable train = blobs(150, 6, 3.0, 919);
  const FeatureTable narrow = blobs(40, 4, 3.0, 920);
  ml::KitNet::Config kcfg;
  kcfg.fm_grace = 100;
  ml::KitNet kitnet(kcfg);
  ml::AutoEncoderDetector autoencoder;
  kitnet.fit(train);
  autoencoder.fit(train);
  const std::pair<const ml::Model*, ml::compiled::PlanPtr> cases[] = {
      {&kitnet, kitnet.plan()}, {&autoencoder, autoencoder.plan()}};
  for (const auto& [m, plan] : cases) {
    ASSERT_NE(plan, nullptr) << m->name();
    ASSERT_GT(plan->dim(), narrow.cols) << m->name();
    EXPECT_EQ(m->score(narrow), std::vector<double>(narrow.rows, 0.0))
        << m->name();
  }
}

// Same contract as the KitNET golden case above, for the autoencoder, with
// attack rows interleaved so fit() calibrates on a gathered benign subset.
TEST(CompiledPlan, AutoEncoderThresholdIsPlanQuantileOverBenignRows) {
  FeatureTable train = blobs(150, 6, 3.0, 921);
  for (size_t i = 0; i < train.rows; ++i) train.labels[i] = i % 3 == 0 ? 1 : 0;
  ml::AutoEncoderConfig cfg;
  ml::AutoEncoderDetector autoencoder(cfg);
  autoencoder.fit(train);
  const ml::compiled::PlanPtr& plan = autoencoder.plan();
  ASSERT_NE(plan, nullptr);

  std::vector<size_t> benign;
  for (size_t i = 0; i < train.rows; ++i) {
    if (train.labels[i] == 0) benign.push_back(i);
  }
  const FeatureTable b = train.select_rows(benign);
  std::vector<double> scores(b.rows, 0.0);
  ml::compiled::Scratch scratch;
  plan->score_rows(b.data.data(), b.rows, b.cols, scores.data(), scratch);
  EXPECT_EQ(autoencoder.threshold(),
            ml::quantile_threshold(scores, cfg.quantile));
  EXPECT_EQ(plan->threshold(), autoencoder.threshold());
}

TEST(CompiledPlan, UnfittedModelsRefuseToCompile) {
  OnlineKitsune untrained;
  EXPECT_FALSE(untrained.compile().ok());
}

// ----------------------------------------------------------- hot swap

TEST(CompiledPlan, DeploysThroughModelSlotMidRun) {
  // Paced replay of P1 with a consumer scoring the trained detector; 60 ms
  // in, deploy a factory handing out copies of the SAME detector and its
  // f64 plan. The swap must land without disturbing the accounting
  // invariants (every packet scored exactly once, sink log == alert
  // counter), proving a compiled plan rides ModelSlot into a running
  // consumer like any scorer.
  // (Alert-set equality with an unswapped run is NOT asserted: a swapped-in
  // detector copy restarts from post-training extractor state, which is the
  // documented hot-swap semantic for stateful scorers.)
  const trace::Dataset ds = trace::make_dataset("P1", 0.25);
  TrainedKitsune t = train_on(ds);
  OnlineKitsune compiled = t.det;
  ASSERT_TRUE(compiled.compile(Precision::kF64).ok());

  netio::ReplayOptions replay;
  replay.pace = true;  // pin wall clock so the deploy lands mid-stream
  replay.speed = 50.0;
  netio::TraceReplaySource src(ds.trace, replay);
  telemetry::Registry reg;
  core::IngestRuntime::Options opts;
  opts.registry = &reg;
  core::CollectingSink sink;
  core::IngestRuntime rt(
      opts,
      [&t](size_t) { return std::make_unique<core::KitsuneScorer>(t.det); },
      &sink);
  std::atomic<bool> ok{false};
  std::thread runner([&] {
    auto r = rt.run(src);
    ok.store(r.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  rt.deploy([&compiled](size_t) {
    return std::make_unique<core::KitsuneScorer>(compiled);
  });
  runner.join();
  ASSERT_TRUE(ok.load());

  const core::IngestStats s = rt.stats();
  EXPECT_EQ(s.scored + s.parse_skipped, s.enqueued);  // kBlock: lossless
  EXPECT_EQ(s.scored + s.parse_skipped,
            static_cast<uint64_t>(ds.trace.view.size()));
  EXPECT_EQ(static_cast<uint64_t>(sink.alerts().size()), s.alerted);
  EXPECT_EQ(reg.counter("ingest.swaps_applied").value(), 1u);
}

}  // namespace
}  // namespace lumen
