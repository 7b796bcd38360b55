// k-nearest-neighbour classifier (brute force, Euclidean, with an optional
// cap on stored training rows for tractability on large tables).
//
// Scoring runs block-at-a-time over dense::kScoreBlock query blocks: each
// block's distance matrix comes from dense::sq_dist_batch (one GEMM plus
// precomputed row norms — the ||x||^2 + ||y||^2 - 2 x.y expansion), and the
// k best (squared distance, label) pairs per query are then selected with
// the same pair ordering score_perrow's partial_sort uses. The score is the
// mean selected label — a discrete value that only depends on which
// neighbours are selected — so the batched path reproduces the reference
// scan exactly wherever candidate distances aren't closer than GEMM-
// expansion rounding, which the dense_test equivalence case pins on every
// runnable backend.
#pragma once

#include <vector>

#include "ml/model.h"

namespace lumen::ml {

struct KnnConfig {
  size_t k = 5;
  size_t max_train_rows = 4000;  // reservoir-capped training set
  uint64_t seed = 13;
};

class Knn : public Model {
 public:
  explicit Knn(KnnConfig cfg = {}) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::string name() const override { return "kNN"; }
  bool is_supervised() const override { return true; }

  /// Pre-PR reference: per-row scalar distance scan. Kept for the
  /// batched-vs-per-row equivalence tests and bench_ml's per-row baseline.
  std::vector<double> score_perrow(const FeatureTable& X) const;

 private:
  KnnConfig cfg_;
  FeatureTable train_;
  std::vector<double> train_sqnorm_;  // ||t||^2 per row (sq_dist_batch's yn)
};

}  // namespace lumen::ml
