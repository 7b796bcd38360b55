#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace lumen::ml {

namespace {

double gini(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  return 2.0 * p * (1.0 - p);
}

}  // namespace

void DecisionTree::fit(const FeatureTable& X) {
  std::vector<size_t> rows(X.rows);
  std::iota(rows.begin(), rows.end(), 0);
  fit_rows(X, rows);
}

void DecisionTree::fit_rows(const FeatureTable& X,
                            const std::vector<size_t>& rows) {
  nodes_.clear();
  depth_ = 0;
  if (rows.empty() || X.cols == 0) {
    nodes_.push_back(Node{});
    return;
  }
  std::vector<size_t> work = rows;
  Rng rng(cfg_.seed);
  build(X, work, 0, work.size(), 0, rng);
}

int DecisionTree::build(const FeatureTable& X, std::vector<size_t>& rows,
                        size_t lo, size_t hi, int depth, Rng& rng) {
  depth_ = std::max(depth_, depth);
  const size_t n = hi - lo;
  double pos = 0.0;
  for (size_t i = lo; i < hi; ++i) pos += X.labels[rows[i]];

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_id].p_malicious = n > 0 ? pos / static_cast<double>(n) : 0.0;

  const bool pure = pos <= 0.0 || pos >= static_cast<double>(n);
  if (pure || depth >= cfg_.max_depth || n < cfg_.min_samples_split) {
    return node_id;
  }

  // Decide which features to scan at this node.
  size_t n_try = cfg_.max_features;
  if (cfg_.use_sqrt_features) {
    n_try = static_cast<size_t>(std::ceil(std::sqrt(X.cols)));
  }
  if (n_try == 0 || n_try > X.cols) n_try = X.cols;
  std::vector<size_t> feats(X.cols);
  std::iota(feats.begin(), feats.end(), 0);
  if (n_try < X.cols) rng.shuffle(feats);

  double best_gain = 1e-12;
  int best_feat = -1;
  double best_thresh = 0.0;
  const double parent_impurity = gini(pos, static_cast<double>(n));

  std::vector<std::pair<double, int>> vals;
  vals.reserve(n);
  for (size_t fi = 0; fi < n_try; ++fi) {
    const size_t f = feats[fi];
    vals.clear();
    for (size_t i = lo; i < hi; ++i) {
      vals.emplace_back(X.at(rows[i], f), X.labels[rows[i]]);
    }
    std::sort(vals.begin(), vals.end());
    if (vals.front().first == vals.back().first) continue;

    double left_pos = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left_pos += vals[i].second;
      if (vals[i].first == vals[i + 1].first) continue;
      const size_t left_n = i + 1;
      const size_t right_n = n - left_n;
      if (left_n < cfg_.min_samples_leaf || right_n < cfg_.min_samples_leaf) {
        continue;
      }
      const double right_pos = pos - left_pos;
      const double weighted =
          (static_cast<double>(left_n) * gini(left_pos, left_n) +
           static_cast<double>(right_n) * gini(right_pos, right_n)) /
          static_cast<double>(n);
      const double gain = parent_impurity - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feat = static_cast<int>(f);
        best_thresh = 0.5 * (vals[i].first + vals[i + 1].first);
      }
    }
  }

  if (best_feat < 0) return node_id;

  // Partition rows in place around the chosen split.
  auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(lo),
      rows.begin() + static_cast<std::ptrdiff_t>(hi), [&](size_t r) {
        return X.at(r, static_cast<size_t>(best_feat)) <= best_thresh;
      });
  const size_t mid = static_cast<size_t>(mid_it - rows.begin());
  if (mid == lo || mid == hi) return node_id;  // degenerate partition

  nodes_[node_id].feature = best_feat;
  nodes_[node_id].threshold = best_thresh;
  const int left = build(X, rows, lo, mid, depth + 1, rng);
  const int right = build(X, rows, mid, hi, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double DecisionTree::predict_row(std::span<const double> x) const {
  if (nodes_.empty()) return 0.0;
  int id = 0;
  while (nodes_[id].feature >= 0) {
    const Node& nd = nodes_[id];
    id = x[static_cast<size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                            : nd.right;
  }
  return nodes_[id].p_malicious;
}

size_t DecisionTree::input_width() const {
  size_t width = 0;
  for (const Node& nd : nodes_) {
    if (nd.feature >= 0) {
      width = std::max(width, static_cast<size_t>(nd.feature) + 1);
    }
  }
  return width;
}

std::vector<double> DecisionTree::score(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  if (X.cols < input_width()) return out;
  for (size_t r = 0; r < X.rows; ++r) out[r] = predict_row(X.row(r));
  return out;
}

std::vector<int> DecisionTree::predict(const FeatureTable& X) const {
  const std::vector<double> s = score(X);
  std::vector<int> out(X.rows);
  for (size_t r = 0; r < X.rows; ++r) out[r] = s[r] >= 0.5 ? 1 : 0;
  return out;
}

}  // namespace lumen::ml
