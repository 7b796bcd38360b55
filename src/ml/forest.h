// Random forest: bagged CART trees with sqrt-feature subsampling.
#pragma once

#include "ml/tree.h"

namespace lumen::ml {

struct ForestConfig {
  size_t n_trees = 20;
  int max_depth = 12;
  size_t min_samples_leaf = 2;
  uint64_t seed = 11;
};

class RandomForest : public Model {
 public:
  explicit RandomForest(ForestConfig cfg = {}) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;
  void fit_shared(const FeatureTable& X, SharedRanks& ranks) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::string name() const override { return "RandomForest"; }
  bool is_supervised() const override { return true; }

  size_t tree_count() const { return trees_.size(); }

  /// Trees, exposed for persistence.
  const std::vector<DecisionTree>& trees() const { return trees_; }
  void restore(std::vector<DecisionTree> trees) { trees_ = std::move(trees); }

 private:
  ForestConfig cfg_;
  std::vector<DecisionTree> trees_;
};

}  // namespace lumen::ml
