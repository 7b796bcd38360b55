// The benchmarking suite (§3.3): granularity-faithful evaluation protocols
// over the dataset registry and algorithm registry, with the intermediate-
// result sharing the paper highlights. Datasets are generated once per
// Benchmark. Every same-dataset and cross-dataset cell of an (algorithm,
// dataset) pair reads one entry, computed once: the model trained on the
// pair's capped train split and the pair's time-ordered test split. The
// pair's feature table lives only while its entry is computed, as the
// paper's engine frees an intermediate after its last use.
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
  /// Rows the model was fitted on: the train dataset's capped train split
  /// (`same_dataset`, `cross_dataset`) or the capped merged train set
  /// (`merged_training`).
  size_t n_train = 0;
  /// Rows scored: the capped test split.
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

  /// Feature table for (algorithm, dataset), cached for the Benchmark's
  /// lifetime. For callers that inspect whole tables (relevance, the
  /// ablations, examples); no evaluation protocol reads or fills this
  /// cache, so a grid never holds a whole table past its entry.
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
  /// Reads both datasets' entries, so a first call on `test_ds` also trains
  /// its model (a lone `lumen_cli evaluate --train X` pays that fit).
  Result<RunOutput> cross_dataset(const std::string& algo_id,
                                  const std::string& train_ds,
                                  const std::string& test_ds);

  /// §5.4 merged-training: train on a concatenation of `fraction` of every
  /// compatible dataset's train split; test on the matching merged test set.
  /// Computes each dataset's features itself and caches nothing.
  Result<RunOutput> merged_training(const std::string& algo_id,
                                    double fraction = 0.1);

  /// Per-attack breakdown of a run's predictions.
  std::vector<AttackScore> per_attack(const RunOutput& run) const;

  /// Deterministic time-ordered split of a feature table.
  static std::pair<FeatureTable, FeatureTable> split_by_time(
      const FeatureTable& t, double train_fraction);

 private:
  using PairKey = std::pair<std::string, std::string>;

  /// What the grid keeps of one (algorithm, dataset) pair.
  struct PairEntry {
    core::ModelValue model;  // trained on the capped train split
    FeatureTable test;       // the time-ordered test split, uncapped
    size_t n_fit = 0;        // rows `model` was fitted on
  };

  /// The pair's entry, computed on first use and held for the Benchmark's
  /// lifetime: the features are computed, the capped train rows and the
  /// test rows copied out, the table dropped, and the model trained.
  Result<const PairEntry*> entry(const std::string& algo_id,
                                 const std::string& ds_id);

  /// Imputed features for (algorithm, dataset), not cached.
  Result<FeatureTable> compute_features(const std::string& algo_id,
                                        const std::string& ds_id);

  /// Stratified subsample of `rows` (increasing rows of `t`) to at most
  /// `max_rows`: keeps the class ratio, deterministic by salt, and returns
  /// increasing rows of `t`.
  std::vector<size_t> cap_indices(const FeatureTable& t,
                                  std::vector<size_t> rows, size_t max_rows,
                                  uint64_t salt) const;
  /// cap_indices over every row of `t`, copied out.
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
  MemoCache<PairKey, PairEntry> entries_;
  MemoCache<PairKey, FeatureTable> feature_cache_;  // features() only
};

}  // namespace lumen::eval
