#include "ml/tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

namespace lumen::ml {

namespace {

double gini(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  return 2.0 * p * (1.0 - p);
}

/// The rank order: numbers ascending, NaN above every number.
bool rank_less(double a, double b) { return a < b || (b != b && a == a); }

/// Grows one CART tree over rank-encoded columns. For each tried feature a
/// node counts its rows and sums their labels per rank, then scans the
/// ranks in ascending order: the order in which a sort of the node's values
/// would visit them. Each boundary between two present ranks is the
/// boundary the sort found between two distinct values, with the same exact
/// left count and label sum, the same threshold and the same gain, tried in
/// the same order under the same strict `>`, so the tree is the sort-built
/// tree, node for node.
class TreeBuilder {
 public:
  using Node = DecisionTree::Node;

  TreeBuilder(const FeatureTable& X, const ColumnRanks& ranks,
              const TreeConfig& cfg, std::vector<Node>& nodes, int& depth)
      : X_(X), ranks_(ranks), cfg_(cfg), nodes_(nodes), depth_(depth) {
    n_try_ = cfg_.max_features;
    if (cfg_.use_sqrt_features) {
      n_try_ = static_cast<size_t>(std::ceil(std::sqrt(X.cols)));
    }
    if (n_try_ == 0 || n_try_ > X.cols) n_try_ = X.cols;
    size_t max_distinct = 0;
    for (size_t c = 0; c < X.cols; ++c) {
      max_distinct = std::max(max_distinct, ranks.values(c).size());
    }
    count_.resize(max_distinct);
    label_sum_.resize(max_distinct);
    feats_.resize(X.cols);
  }

  int build(std::vector<size_t>& rows, size_t lo, size_t hi, int depth,
            Rng& rng) {
    depth_ = std::max(depth_, depth);
    const size_t n = hi - lo;
    labels_.resize(n);
    int64_t pos_sum = 0;
    for (size_t i = 0; i < n; ++i) {
      labels_[i] = X_.labels[rows[lo + i]];
      pos_sum += labels_[i];
    }
    const double pos = static_cast<double>(pos_sum);

    const int node_id = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    nodes_[node_id].p_malicious = n > 0 ? pos / static_cast<double>(n) : 0.0;

    const bool pure = pos <= 0.0 || pos >= static_cast<double>(n);
    if (pure || depth >= cfg_.max_depth || n < cfg_.min_samples_split) {
      return node_id;
    }

    // Decide which features to scan at this node.
    std::iota(feats_.begin(), feats_.end(), 0);
    if (n_try_ < X_.cols) rng.shuffle(feats_);

    Split best;
    const double parent_impurity = gini(pos, static_cast<double>(n));
    const std::span<const size_t> node_rows(rows.data() + lo, n);
    for (size_t fi = 0; fi < n_try_; ++fi) {
      search(feats_[fi], node_rows, pos, parent_impurity, best);
    }
    if (best.feature < 0) return node_id;

    // Partition rows in place around the chosen split. values[ranks[r]]
    // equals X(r, f), so this is the partition by X(r, f) <= threshold.
    const size_t f = static_cast<size_t>(best.feature);
    const std::span<const uint32_t> rank = ranks_.ranks(f);
    const std::span<const double> value = ranks_.values(f);
    auto mid_it = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(lo),
        rows.begin() + static_cast<std::ptrdiff_t>(hi),
        [&](size_t r) { return value[rank[r]] <= best.threshold; });
    const size_t mid = static_cast<size_t>(mid_it - rows.begin());
    if (mid == lo || mid == hi) return node_id;  // degenerate partition

    nodes_[node_id].feature = best.feature;
    nodes_[node_id].threshold = best.threshold;
    const int left = build(rows, lo, mid, depth + 1, rng);
    const int right = build(rows, mid, hi, depth + 1, rng);
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
  }

 private:
  struct Split {
    double gain = 1e-12;
    int feature = -1;
    double threshold = 0.0;
  };

  /// Tries every boundary of feature f over the node's rows (whose labels
  /// are labels_) and keeps the first one that beats `best`.
  void search(size_t f, std::span<const size_t> rows, double pos,
              double parent_impurity, Split& best) {
    const std::span<const uint32_t> rank = ranks_.ranks(f);
    const std::span<const double> value = ranks_.values(f);
    const size_t d = value.size();
    if (d < 2) return;  // constant over the whole table
    const size_t n = rows.size();

    // The node's ranks arrive in ascending order, each with its row count
    // and label sum. Every rank after the first closes a boundary: the rows
    // up to the previous rank, `below`, go left.
    size_t left_n = 0;
    double left_pos = 0.0;
    uint32_t below = 0;
    const auto next_rank = [&](uint32_t k, size_t count, int64_t label_sum) {
      const size_t right_n = n - left_n;
      if (left_n > 0 && left_n >= cfg_.min_samples_leaf &&
          right_n >= cfg_.min_samples_leaf) {
        const double right_pos = pos - left_pos;
        const double weighted =
            (static_cast<double>(left_n) * gini(left_pos, left_n) +
             static_cast<double>(right_n) * gini(right_pos, right_n)) /
            static_cast<double>(n);
        const double gain = parent_impurity - weighted;
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = static_cast<int>(f);
          best.threshold = 0.5 * (value[below] + value[k]);
        }
      }
      left_n += count;
      left_pos += static_cast<double>(label_sum);
      below = k;
    };

    if (d <= 4 * n) {
      // Dense histogram over every rank of the column.
      std::fill_n(count_.begin(), d, 0u);
      std::fill_n(label_sum_.begin(), d, int64_t{0});
      for (size_t i = 0; i < n; ++i) {
        const uint32_t k = rank[rows[i]];
        ++count_[k];
        label_sum_[k] += labels_[i];
      }
      for (uint32_t k = 0; k < d; ++k) {
        if (count_[k] > 0) next_rank(k, count_[k], label_sum_[k]);
      }
      return;
    }

    // Far more ranks than rows: sort the node's ranks instead.
    node_ranks_.resize(n);
    for (size_t i = 0; i < n; ++i) node_ranks_[i] = {rank[rows[i]], labels_[i]};
    std::sort(node_ranks_.begin(), node_ranks_.end());
    for (size_t i = 0; i < n;) {
      const uint32_t k = node_ranks_[i].first;
      int64_t label_sum = 0;
      size_t j = i;
      for (; j < n && node_ranks_[j].first == k; ++j) {
        label_sum += node_ranks_[j].second;
      }
      next_rank(k, j - i, label_sum);
      i = j;
    }
  }

  const FeatureTable& X_;
  const ColumnRanks& ranks_;
  const TreeConfig& cfg_;
  std::vector<Node>& nodes_;
  int& depth_;
  size_t n_try_ = 0;
  std::vector<size_t> feats_;
  std::vector<int> labels_;          // labels of the node's rows, in order
  std::vector<uint32_t> count_;      // rows per rank
  std::vector<int64_t> label_sum_;   // label sum per rank
  std::vector<std::pair<uint32_t, int>> node_ranks_;
};

}  // namespace

ColumnRanks::ColumnRanks(const FeatureTable& X)
    : rows_(X.rows), ranks_(X.rows * X.cols), starts_(X.cols + 1, 0) {
  constexpr uint32_t kScanned = 32;
  // Pass 1, row-major: collect each column's first kScanned distinct values
  // by scanning, tagging every row with its value's first-seen slot. A
  // column holding more (n_seen past kScanned) is sorted in pass 2.
  std::vector<std::array<double, kScanned>> seen(X.cols);
  std::vector<uint32_t> n_seen(X.cols, 0);
  for (size_t r = 0; r < rows_; ++r) {
    const std::span<const double> x = X.row(r);
    for (size_t c = 0; c < X.cols; ++c) {
      uint32_t& n = n_seen[c];
      if (n > kScanned) continue;
      const double v = x[c];
      const std::array<double, kScanned>& s = seen[c];
      // The slots hold distinct values, so at most one matches; looking at
      // all of them avoids a data-dependent exit.
      uint32_t k = n;
      if (v == v) {
        for (uint32_t j = 0; j < n; ++j) k = s[j] == v ? j : k;
      } else {
        for (uint32_t j = 0; j < n; ++j) k = s[j] != s[j] ? j : k;
      }
      if (k == n) {
        if (n == kScanned) {
          n = kScanned + 1;
          continue;
        }
        seen[c][n++] = v;
      }
      ranks_[c * rows_ + r] = k;
    }
  }

  // Pass 2, per column: renumber the slots in sorted order, or sort the
  // column once.
  std::vector<std::pair<double, uint32_t>> sorted;
  for (size_t c = 0; c < X.cols; ++c) {
    uint32_t* rank = ranks_.data() + c * rows_;
    const uint32_t n = n_seen[c];
    if (n <= kScanned) {
      const std::array<double, kScanned>& s = seen[c];
      std::array<uint32_t, kScanned> order;  // sorted position -> slot
      std::iota(order.begin(), order.begin() + n, 0u);
      std::sort(order.begin(), order.begin() + n, [&](uint32_t a, uint32_t b) {
        return rank_less(s[a], s[b]);
      });
      std::array<uint32_t, kScanned> slot_rank;
      for (uint32_t k = 0; k < n; ++k) {
        slot_rank[order[k]] = k;
        values_.push_back(s[order[k]]);
      }
      for (size_t r = 0; r < rows_; ++r) rank[r] = slot_rank[rank[r]];
    } else {
      sorted.resize(rows_);
      for (size_t r = 0; r < rows_; ++r) {
        sorted[r] = {X.at(r, c), static_cast<uint32_t>(r)};
      }
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) {
                  return rank_less(a.first, b.first);
                });
      uint32_t k = 0;
      values_.push_back(sorted[0].first);
      for (const auto& [v, r] : sorted) {
        if (rank_less(values_.back(), v)) {
          values_.push_back(v);
          ++k;
        }
        rank[r] = k;
      }
    }
    starts_[c + 1] = values_.size();
  }
}

void DecisionTree::fit(const FeatureTable& X) {
  SharedRanks ranks(X);
  fit_shared(X, ranks);
}

void DecisionTree::fit_shared(const FeatureTable& X, SharedRanks& ranks) {
  std::vector<size_t> rows(X.rows);
  std::iota(rows.begin(), rows.end(), 0);
  fit_rows(X, ranks.get(), rows);
}

void DecisionTree::fit_rows(const FeatureTable& X, const ColumnRanks& ranks,
                            const std::vector<size_t>& rows) {
  nodes_.clear();
  depth_ = 0;
  if (rows.empty() || X.cols == 0) {
    nodes_.push_back(Node{});
    return;
  }
  std::vector<size_t> work = rows;
  Rng rng(cfg_.seed);
  TreeBuilder(X, ranks, cfg_, nodes_, depth_)
      .build(work, 0, work.size(), 0, rng);
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

}  // namespace lumen::ml
