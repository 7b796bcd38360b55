// The benchmarking suite (§3.3): granularity-faithful evaluation protocols
// over the dataset registry and algorithm registry, with the intermediate-
// result sharing the paper highlights — features are computed once per
// (algorithm, dataset) and trained models once per (algorithm, train set),
// then reused across every experiment in the process.
#pragma once

#include <map>
#include <optional>
#include <utility>

#include "common/memo.h"
#include "core/algorithms.h"
#include "trace/registry.h"

namespace lumen::eval {

using core::AlgorithmDef;
using features::FeatureTable;

/// One evaluation outcome (a row of the result store).
struct EvalRecord {
  std::string algo;
  std::string train_ds;
  std::string test_ds;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double accuracy = 0.0;
  double auc = 0.0;
  size_t n_train = 0;
  size_t n_test = 0;
};

/// Per-attack precision/recall, computed from a run's test predictions by
/// restricting to benign rows plus rows of one attack family.
struct AttackScore {
  trace::AttackType attack = trace::AttackType::kNone;
  double precision = 0.0;
  double recall = 0.0;
  size_t positives = 0;  // attack rows present in the test set
};

class Benchmark {
 public:
  struct Options {
    double dataset_scale = 1.0;  // shrink captures for fast tests
    double train_fraction = 0.7;
    size_t max_train_rows = 2500;  // stratified row caps keep heavyweight
    size_t max_test_rows = 2500;   // models tractable
    uint64_t seed = 2022;
  };

  Benchmark() : Benchmark(Options{}) {}
  explicit Benchmark(Options opts) : opts_(opts) {}

  const Options& options() const { return opts_; }

  /// Dataset access (generated once, cached for the Benchmark's lifetime).
  const trace::Dataset& dataset(const std::string& id);

  /// Feature table for (algorithm, dataset), cached.
  Result<const FeatureTable*> features(const std::string& algo_id,
                                       const std::string& ds_id);

  struct RunOutput {
    EvalRecord record;
    core::Predictions predictions;  // over the test rows
  };

  /// Train and test on time-ordered splits of the same dataset.
  Result<RunOutput> same_dataset(const std::string& algo_id,
                                 const std::string& ds_id);

  /// Train on `train_ds`'s train split, test on `test_ds`'s test split.
  Result<RunOutput> cross_dataset(const std::string& algo_id,
                                  const std::string& train_ds,
                                  const std::string& test_ds);

  /// §5.4 merged-training: train on a concatenation of `fraction` of every
  /// compatible dataset's train split; test on the matching merged test set.
  Result<RunOutput> merged_training(const std::string& algo_id,
                                    double fraction = 0.1);

  /// Per-attack breakdown of a run's predictions.
  std::vector<AttackScore> per_attack(const RunOutput& run) const;

  /// Deterministic time-ordered split of a feature table.
  static std::pair<FeatureTable, FeatureTable> split_by_time(
      const FeatureTable& t, double train_fraction);

 private:
  using PairKey = std::pair<std::string, std::string>;
  using Split = std::pair<FeatureTable, FeatureTable>;

  /// Model trained on `train_ds` for `algo`, cached.
  Result<const core::ModelValue*> trained_model(const std::string& algo_id,
                                                const std::string& train_ds);

  /// Cached time-ordered train/test split of features(algo, ds).
  Result<const Split*> split(const std::string& algo_id,
                             const std::string& ds_id);

  FeatureTable cap_rows(const FeatureTable& t, size_t max_rows,
                        uint64_t salt) const;
  /// Caps the test rows, then predicts through the model's protocol.
  RunOutput evaluate_table(const std::string& algo_id,
                           const core::ModelValue& model,
                           const FeatureTable& test,
                           const std::string& train_ds,
                           const std::string& test_ds) const;

  Options opts_;
  // Concurrency-safe per-key memoization: sweep workers computing the same
  // (algo, dataset) pair block on one computation instead of racing it.
  MemoCache<std::string, trace::Dataset> datasets_;
  MemoCache<PairKey, FeatureTable> feature_cache_;
  MemoCache<PairKey, core::ModelValue> model_cache_;
  MemoCache<PairKey, Split> split_cache_;
};

}  // namespace lumen::eval
