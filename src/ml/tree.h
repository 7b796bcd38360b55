// CART decision tree classifier (gini impurity, axis-aligned splits).
// Supports bootstrap sample indices and per-split feature subsampling so the
// random forest can reuse it directly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "ml/model.h"

namespace lumen::ml {

/// Every column of a training table rank-encoded once per fit: the column's
/// sorted distinct values and, column-major, each row's rank among them.
/// The split search counts rows and labels per rank instead of sorting
/// values at every node. Values that compare equal (-0.0 and +0.0) share a
/// rank; NaNs share one rank above every number.
class ColumnRanks {
 public:
  explicit ColumnRanks(const FeatureTable& X);

  /// Sorted distinct values of column c.
  std::span<const double> values(size_t c) const {
    return {values_.data() + starts_[c], starts_[c + 1] - starts_[c]};
  }
  /// Rank of every table row in column c: values(c)[ranks(c)[r]] == X(r, c).
  std::span<const uint32_t> ranks(size_t c) const {
    return {ranks_.data() + c * rows_, rows_};
  }

 private:
  size_t rows_ = 0;
  std::vector<uint32_t> ranks_;  // cols * rows, column-major
  std::vector<double> values_;   // every column's distinct values, in order
  std::vector<size_t> starts_;   // cols + 1 offsets into values_
};

/// The ColumnRanks of one training table, built on first use. Models
/// fitted on the same table share it through Model::fit_shared, so the
/// table is encoded at most once. get() does not lock: call it on the
/// fitting thread before handing the encoding to workers.
class SharedRanks {
 public:
  explicit SharedRanks(const FeatureTable& X) : X_(X) {}

  const ColumnRanks& get() {
    if (!ranks_) ranks_.emplace(X_);
    return *ranks_;
  }

 private:
  const FeatureTable& X_;
  std::optional<ColumnRanks> ranks_;
};

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
  void fit_shared(const FeatureTable& X, SharedRanks& ranks) override;

  /// Fit on a subset of rows (bootstrap sample); rows may repeat. `ranks`
  /// encodes X and is only read, so trees may share it across threads.
  void fit_rows(const FeatureTable& X, const ColumnRanks& ranks,
                const std::vector<size_t>& rows);

  std::vector<double> score(const FeatureTable& X) const override;
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
  TreeConfig cfg_;
  std::vector<Node> nodes_;
  int depth_ = 0;
};

}  // namespace lumen::ml
