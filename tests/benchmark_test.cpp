// Benchmarking-suite tests: protocols, caching, per-attack breakdowns,
// merged training, the result store, and the report renderers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "core/engine.h"
#include "eval/benchmark.h"
#include "eval/literature.h"
#include "eval/report.h"
#include "eval/results.h"
#include "ml/dense.h"

namespace lumen::eval {
namespace {

Benchmark::Options suite_options() {
  Benchmark::Options opts;
  opts.dataset_scale = 0.25;  // keep the suite fast
  opts.max_train_rows = 1200;
  opts.max_test_rows = 1200;
  return opts;
}

Benchmark& bench() {
  static Benchmark b(suite_options());
  return b;
}

TEST(Benchmark, SameDatasetProducesSaneRecord) {
  auto run = bench().same_dataset("A14", "F4");
  ASSERT_TRUE(run.ok()) << run.error().message;
  const EvalRecord& r = run.value().record;
  EXPECT_EQ(r.algo, "A14");
  EXPECT_EQ(r.train_ds, "F4");
  EXPECT_EQ(r.test_ds, "F4");
  EXPECT_GE(r.precision, 0.0);
  EXPECT_LE(r.precision, 1.0);
  EXPECT_GT(r.n_train, 0u);
  EXPECT_GT(r.n_test, 0u);
  EXPECT_EQ(run.value().predictions.y_true.size(), r.n_test);
  // A supervised RF on Mirai traffic should do well in-distribution.
  EXPECT_GT(r.f1, 0.7);
}

TEST(Benchmark, FeatureCachingReturnsSamePointer) {
  auto a = bench().features("A14", "F4");
  auto b = bench().features("A14", "F4");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST(Benchmark, IncompatiblePairIsRejected) {
  auto run = bench().same_dataset("A14", "P1");  // conn algo, packet dataset
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error().message.find("faithfully"), std::string::npos);
}

TEST(Benchmark, CrossDatasetUsesTrainSetModel) {
  auto same = bench().same_dataset("A14", "F4");
  auto cross = bench().cross_dataset("A14", "F4", "F7");
  ASSERT_TRUE(same.ok());
  ASSERT_TRUE(cross.ok()) << cross.error().message;
  EXPECT_EQ(cross.value().record.train_ds, "F4");
  EXPECT_EQ(cross.value().record.test_ds, "F7");
}

TEST(Benchmark, SplitByTimeIsOrderedAndComplete) {
  auto feats = bench().features("A14", "F5");
  ASSERT_TRUE(feats.ok());
  auto [train, test] = Benchmark::split_by_time(*feats.value(), 0.7);
  EXPECT_EQ(train.rows + test.rows, feats.value()->rows);
  double tmax = -1e30;
  for (double t : train.unit_time) tmax = std::max(tmax, t);
  for (double t : test.unit_time) EXPECT_GE(t, tmax - 1e9 * 0);
}

TEST(Benchmark, PerAttackScoresCoverTestAttacks) {
  auto run = bench().same_dataset("A10", "F1");
  ASSERT_TRUE(run.ok());
  const auto scores = bench().per_attack(run.value());
  ASSERT_FALSE(scores.empty());
  for (const AttackScore& s : scores) {
    EXPECT_NE(s.attack, trace::AttackType::kNone);
    EXPECT_GE(s.precision, 0.0);
    EXPECT_LE(s.precision, 1.0);
    EXPECT_GT(s.positives, 0u);
  }
}

TEST(Benchmark, MergedTrainingRunsOverConnectionDatasets) {
  auto run = bench().merged_training("A14", 0.1);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_EQ(run.value().record.train_ds, "merged");
  EXPECT_GT(run.value().record.n_train, 0u);
}

// ---- Golden evaluation outputs --------------------------------------------
// The evaluation protocol (impute, fit the enabled transforms on the train
// rows, fit the model; transform, score and decide on the test rows) pinned
// bit for bit. The A02 F3 and A00 F4 cells score through the dense
// kernels, whose AVX2 and scalar sums differ in the low bits, so each
// carries one digest per backend (ctest also runs this suite under
// LUMEN_SIMD=off). The neural cells (A06 KitNET, A11 autoencoder) train and
// score through the dense kernels on the scalar backend: the AVX2 kernels'
// score bits move with the build's flags (the Release, ASan and TSan builds
// each read other bits on the P1 live stream), the scalar reference's do
// not.

/// FNV-1a over the bit patterns of every score, then every decision.
uint64_t fnv1a(const std::vector<double>& scores, const std::vector<int>& y) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const double s : scores) mix(&s, sizeof s);
  for (const int v : y) mix(&v, sizeof v);
  return h;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

struct GoldenRun {
  const char* name;
  std::function<Result<Benchmark::RunOutput>()> run;
  double precision, recall, f1, accuracy, auc;
  size_t n_train, n_test;
  uint64_t digest;
  /// The digest on the scalar backend; 0 when it equals `digest`.
  uint64_t scalar_digest = 0;
};

/// same_dataset on the scalar dense backend.
Result<Benchmark::RunOutput> same_dataset_scalar(const std::string& algo,
                                                 const std::string& ds) {
  ml::dense::ScopedBackend scalar(ml::dense::Backend::kScalar);
  return bench().same_dataset(algo, ds);
}

TEST(BenchmarkGolden, ProtocolOutputsAreBitIdentical) {
  const GoldenRun cases[] = {
      {"A13 F4", [] { return bench().same_dataset("A13", "F4"); },
       0x1p+0, 0x1.eea4e1a08ad8fp-1, 0x1.f72c234f72c23p-1, 0x1.f417d05f417dp-1,
       0x1.fbd25c3e5a50bp-1, 198, 86, 0x1141e413cada27f9ull},
      {"A14 F4", [] { return bench().same_dataset("A14", "F4"); },
       0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 198, 86,
       0xddce1e4b82d38298ull},
      {"AM01 F4", [] { return bench().same_dataset("AM01", "F4"); },
       0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 198, 86,
       0x1baa3ccd98d664f5ull},
      {"A14 F4->F7", [] { return bench().cross_dataset("A14", "F4", "F7"); },
       0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 198, 55,
       0x74654af67142ec15ull},
      {"A14 merged 0.1", [] { return bench().merged_training("A14", 0.1); },
       0x1.f58d0fac687d6p-1, 0x1.f58d0fac687d6p-1, 0x1.f58d0fac687d6p-1,
       0x1.f451c3a672dcp-1, 0x1.ff9463348b8f5p-1, 259, 263,
       0xc8b26bb809e10ca5ull},
      // The models the grid spends its training time in: AutoML on nPrint
      // tables (on A01 F7 a forest wins validation, on A02 F3 logistic
      // regression) and the ML-DDoS ensemble (forest, linear SVM, tree,
      // kNN).
      {"A01 F7", [] { return bench().same_dataset("A01", "F7"); },
       0x1.e147ae147ae14p-1, 0x1.d7d7d7d7d7d7dp-1, 0x1.dc83cd4e93029p-1,
       0x1.f15f15f15f15fp-1, 0x1.fe15d67f67a7p-1, 570, 245,
       0x4fb054e89166ec56ull},
      {"A02 F3", [] { return bench().same_dataset("A02", "F3"); },
       0x1.d3dcb08d3dcb1p-1, 0x1p+0, 0x1.e8efdb195e8f1p-1,
       0x1.f8e8992cad07dp-1, 0x1p+0, 840, 361, 0x56d4a4847aaaf750ull,
       0x1d1a97687b8294d5ull},
      {"A00 F4", [] { return bench().same_dataset("A00", "F4"); },
       0x1.3f73f73f73f74p-1, 0x1.ebca1af286bcap-1, 0x1.8350e97366228p-1,
       0x1.a082082082082p-1, 0x1.d51745d1745d1p-1, 586, 252,
       0xf80a9e46fd5110acull, 0x8fcbec048b912b95ull},
      // The neural detectors: KitNET on a packet capture and the
      // autoencoder on a uni-flow one, each scored through the f64 plan
      // its fit() calibrates.
      {"A06 P2", [] { return same_dataset_scalar("A06", "P2"); },
       0x1.ae8ba2e8ba2e9p-1, 0x1.368eb04325c54p-1, 0x1.68d68d68d68d8p-1,
       0x1.bc75a6ac1e809p-1, 0x1.aa3b86a1fbdap-1, 547, 235,
       0xea12b061f366c266ull},
      {"A11 F9", [] { return same_dataset_scalar("A11", "F9"); },
       0x1p-1, 0x1.5555555555555p-1, 0x1.2492492492493p-1, 0x1.dp-1,
       0x1.d0eb66fd0eb67p-1, 72, 32,
       0x19c20c92bfea36b1ull},
  };
  const bool scalar =
      ml::dense::active_backend() == ml::dense::Backend::kScalar;
  for (const GoldenRun& g : cases) {
    auto run = g.run();
    ASSERT_TRUE(run.ok()) << g.name << ": " << run.error().message;
    const EvalRecord& r = run.value().record;
    const core::Predictions& p = run.value().predictions;
    EXPECT_EQ(r.precision, g.precision) << g.name << " " << hex(r.precision);
    EXPECT_EQ(r.recall, g.recall) << g.name << " " << hex(r.recall);
    EXPECT_EQ(r.f1, g.f1) << g.name << " " << hex(r.f1);
    EXPECT_EQ(r.accuracy, g.accuracy) << g.name << " " << hex(r.accuracy);
    EXPECT_EQ(r.auc, g.auc) << g.name << " " << hex(r.auc);
    EXPECT_EQ(r.n_train, g.n_train) << g.name;
    EXPECT_EQ(r.n_test, g.n_test) << g.name;
    const uint64_t digest =
        scalar && g.scalar_digest != 0 ? g.scalar_digest : g.digest;
    EXPECT_EQ(fnv1a(p.scores, p.y_pred), digest)
        << g.name << " 0x" << std::hex << fnv1a(p.scores, p.y_pred);
  }
}

void expect_same_run(const Benchmark::RunOutput& a,
                     const Benchmark::RunOutput& b, const char* name) {
  EXPECT_EQ(a.record.algo, b.record.algo) << name;
  EXPECT_EQ(a.record.train_ds, b.record.train_ds) << name;
  EXPECT_EQ(a.record.test_ds, b.record.test_ds) << name;
  EXPECT_EQ(a.record.precision, b.record.precision) << name;
  EXPECT_EQ(a.record.recall, b.record.recall) << name;
  EXPECT_EQ(a.record.f1, b.record.f1) << name;
  EXPECT_EQ(a.record.accuracy, b.record.accuracy) << name;
  EXPECT_EQ(a.record.auc, b.record.auc) << name;
  EXPECT_EQ(a.record.n_train, b.record.n_train) << name;
  EXPECT_EQ(a.record.n_test, b.record.n_test) << name;
  EXPECT_EQ(fnv1a(a.predictions.scores, a.predictions.y_pred),
            fnv1a(b.predictions.scores, b.predictions.y_pred))
      << name;
}

// F7's entry holds both the model its same-dataset cell scores and the test
// rows the F4 -> F7 cell scores F4's model on; which cell computes it first
// must not change either run.
TEST(Benchmark, CrossBeforeSameMatchesSameFirst) {
  Benchmark cross_first(suite_options());
  auto cross_a = cross_first.cross_dataset("A14", "F4", "F7");
  auto same_a = cross_first.same_dataset("A14", "F7");
  Benchmark same_first(suite_options());
  auto same_b = same_first.same_dataset("A14", "F7");
  auto cross_b = same_first.cross_dataset("A14", "F4", "F7");
  ASSERT_TRUE(cross_a.ok()) << cross_a.error().message;
  ASSERT_TRUE(same_a.ok()) << same_a.error().message;
  ASSERT_TRUE(same_b.ok()) << same_b.error().message;
  ASSERT_TRUE(cross_b.ok()) << cross_b.error().message;
  expect_same_run(cross_a.value(), cross_b.value(), "A14 F4->F7");
  expect_same_run(same_a.value(), same_b.value(), "A14 F7");

  auto bad = cross_first.cross_dataset("A14", "F4", "P1");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("faithfully"), std::string::npos);
}

// The same protocol through the engine's model/train/predict ops. GaussianNB
// is used because its scores move under a monotone rescale, so the digest
// also pins the fitted normalizer and correlation filter.
TEST(BenchmarkGolden, EngineTrainPredictIsBitIdentical) {
  auto spec = core::PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "Packets", "param": []},
    {"func": "packet_features", "input": ["Packets"], "output": "F",
     "param": ["len", "iat", "proto", "sport", "dport", "is_syn", "is_ack"]},
    {"func": "model", "input": None, "output": "M",
     "model_type": "GaussianNB", "normalize": true, "decorrelate": true},
    {"func": "train", "input": ["M", "F"], "output": "T"},
    {"func": "predict", "input": ["T", "F"], "output": "Preds"},
  ])");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  core::Engine::Options eopts;
  eopts.registry = nullptr;
  core::OpContext ctx;
  ctx.dataset = &bench().dataset("P1");
  auto report = core::Engine(eopts).run(spec.value(), ctx);
  ASSERT_TRUE(report.ok()) << report.error().message;
  const auto* p = report.value().get<core::Predictions>("Preds");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->scores.size(), 1788u);
  EXPECT_EQ(fnv1a(p->scores, p->y_pred), 0x2baac24f2f71f668ull)
      << "0x" << std::hex << fnv1a(p->scores, p->y_pred);
}

TEST(ResultStore, AddQueryValue) {
  ResultStore store;
  EvalRecord rec;
  rec.algo = "A14";
  rec.train_ds = "F4";
  rec.test_ds = "F7";
  rec.precision = 0.91;
  rec.recall = 0.5;
  store.add_record(rec);
  EXPECT_EQ(store.size(), 5u);  // five metrics per record
  auto rows = store.query("A14", "", "", "precision");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].value, 0.91);
  EXPECT_TRUE(store.value("A14", "F4", "F7", "recall").has_value());
  EXPECT_FALSE(store.value("A00", "F4", "F7", "recall").has_value());
}

TEST(ResultStore, AttackScoreRows) {
  ResultStore store;
  EvalRecord rec;
  rec.algo = "A10";
  rec.train_ds = rec.test_ds = "F1";
  AttackScore s;
  s.attack = trace::AttackType::kDosHulk;
  s.precision = 0.8;
  s.recall = 0.7;
  s.positives = 10;
  store.add_attack_scores(rec, {s});
  auto rows = store.query("A10", "F1", "F1", "precision@DoS-Hulk");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].value, 0.8);
}

TEST(ResultStore, CsvRoundtrip) {
  ResultStore store;
  store.add(ResultRow{"A01", "F0", "F1", "precision", 0.5});
  store.add(ResultRow{"A02", "F2", "F3", "recall", 0.25});
  const std::string path =
      (std::filesystem::temp_directory_path() / "lumen_results.csv").string();
  ASSERT_TRUE(store.save_csv(path).ok());
  auto loaded = ResultStore::load_csv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.value().rows()[1].value, 0.25);
  std::filesystem::remove(path);
}

TEST(Heatmap, RenderMarksMissingAsGray) {
  Heatmap h = Heatmap::make("test", {"r1", "r2"}, {"c1", "c2"});
  h.at(0, 0) = 0.95;
  h.at(1, 1) = 0.1;
  const std::string text = h.render();
  EXPECT_NE(text.find("--"), std::string::npos);   // gray cell
  EXPECT_NE(text.find("0.95"), std::string::npos);
  const std::string csv = h.to_csv();
  EXPECT_NE(csv.find("r1,0.9500,"), std::string::npos);
}

TEST(Distribution, FiveNumberSummary) {
  Distribution d = Distribution::from("x", {0.0, 0.25, 0.5, 0.75, 1.0});
  EXPECT_EQ(d.n, 5u);
  EXPECT_DOUBLE_EQ(d.min, 0.0);
  EXPECT_DOUBLE_EQ(d.q25, 0.25);
  EXPECT_DOUBLE_EQ(d.median, 0.5);
  EXPECT_DOUBLE_EQ(d.q75, 0.75);
  EXPECT_DOUBLE_EQ(d.max, 1.0);
  const std::string text = render_distributions("t", {d});
  EXPECT_NE(text.find("x"), std::string::npos);
}

TEST(Literature, TableHasElevenEntries) {
  EXPECT_EQ(literature_survey().size(), 11u);
  EXPECT_FALSE(render_literature_table().empty());
}

TEST(Literature, HalfTheAlgorithmsHaveNoComparison) {
  // Fig. 1a's headline: for about half the algorithms, no literature-level
  // comparison is possible (private datasets).
  const auto comparisons = possible_comparisons();
  size_t zero = 0;
  for (const auto& [algo, n] : comparisons) zero += (n == 0);
  EXPECT_GE(zero, comparisons.size() / 2);
  // nPrint and Smart Detect share CICIDS2017.
  for (const auto& [algo, n] : comparisons) {
    if (algo == "Nprint" || algo == "Smart Detect") {
      EXPECT_GE(n, 1);
    }
    if (algo == "Kitsune") {
      EXPECT_EQ(n, 0);  // custom dataset only
    }
  }
}

}  // namespace
}  // namespace lumen::eval
