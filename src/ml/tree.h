// CART decision tree classifier (gini impurity, axis-aligned splits).
// Supports bootstrap sample indices and per-split feature subsampling so the
// random forest can reuse it directly.
#pragma once

#include <cstdint>

#include "ml/model.h"

namespace lumen::ml {

struct TreeConfig {
  int max_depth = 12;
  size_t min_samples_leaf = 2;
  size_t min_samples_split = 4;
  /// Number of features considered per split; 0 = all, -1 sentinel via
  /// use_sqrt_features for sqrt(n_features).
  size_t max_features = 0;
  bool use_sqrt_features = false;
  uint64_t seed = 7;
};

class DecisionTree : public Model {
 public:
  explicit DecisionTree(TreeConfig cfg = {}) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;

  /// Fit on a subset of rows (bootstrap sample); rows may repeat.
  void fit_rows(const FeatureTable& X, const std::vector<size_t>& rows);

  std::vector<double> score(const FeatureTable& X) const override;
  std::vector<int> predict(const FeatureTable& X) const override;
  std::string name() const override { return "DecisionTree"; }
  bool is_supervised() const override { return true; }

  /// P(malicious) for one row.
  double predict_row(std::span<const double> x) const;

  /// Columns predict_row reads: the highest split feature + 1 (0 for a
  /// tree without splits). score() returns zeros for a narrower table.
  size_t input_width() const;

  size_t node_count() const { return nodes_.size(); }
  int depth() const { return depth_; }

  /// Tree structure, exposed for inspection and persistence.
  struct Node {
    int feature = -1;       // -1 for leaves
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double p_malicious = 0.0;
  };

  const std::vector<Node>& nodes() const { return nodes_; }

  /// Restore a previously saved tree (persistence path).
  void restore(std::vector<Node> nodes, int depth) {
    nodes_ = std::move(nodes);
    depth_ = depth;
  }

 private:

  int build(const FeatureTable& X, std::vector<size_t>& rows, size_t lo,
            size_t hi, int depth, Rng& rng);

  TreeConfig cfg_;
  std::vector<Node> nodes_;
  int depth_ = 0;
};

}  // namespace lumen::ml
