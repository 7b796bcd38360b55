// Training oracles. The sort-based CART split search and the per-step
// standardizing SGD loop below are the builders ml/tree.cpp and
// ml/linear.cpp used before the split search moved to rank-encoded columns
// and SGD to a once-per-fit standardized table. They are kept here verbatim
// so the fast builders can be checked against them bit for bit: every tree
// node (feature, threshold and P(malicious) bit patterns, children, depth)
// and every linear weight and score must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>

#include "common/parallel.h"
#include "common/rng.h"
#include "features/stats.h"
#include "ml/automl.h"
#include "ml/bayes.h"
#include "ml/ensemble.h"
#include "ml/forest.h"
#include "ml/linear.h"
#include "ml/tree.h"

namespace lumen::ml {
namespace {

using Node = DecisionTree::Node;

// ---- Oracle: sort-based CART -----------------------------------------------

double gini(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  return 2.0 * p * (1.0 - p);
}

/// The sort-based builder: gathers (value, label) pairs and sorts them for
/// every tried feature at every node.
struct OracleTree {
  explicit OracleTree(TreeConfig cfg) : cfg_(cfg) {}

  void fit(const FeatureTable& X) {
    std::vector<size_t> rows(X.rows);
    std::iota(rows.begin(), rows.end(), 0);
    fit_rows(X, rows);
  }

  void fit_rows(const FeatureTable& X, const std::vector<size_t>& rows) {
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

  int build(const FeatureTable& X, std::vector<size_t>& rows, size_t lo,
            size_t hi, int depth, Rng& rng) {
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
        if (left_n < cfg_.min_samples_leaf ||
            right_n < cfg_.min_samples_leaf) {
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

  TreeConfig cfg_;
  std::vector<Node> nodes_;
  int depth_ = 0;
};

/// RandomForest::fit's seeds and bootstrap samples, each tree grown by the
/// oracle builder.
std::vector<OracleTree> oracle_forest(const FeatureTable& X,
                                      const ForestConfig& cfg) {
  Rng rng(cfg.seed);
  std::vector<std::pair<uint64_t, uint64_t>> seeds(cfg.n_trees);
  for (auto& [tree_seed, boot_seed] : seeds) {
    tree_seed = rng.next();
    boot_seed = rng.next();
  }
  std::vector<OracleTree> trees;
  for (size_t t = 0; t < cfg.n_trees; ++t) {
    TreeConfig tc;
    tc.max_depth = cfg.max_depth;
    tc.min_samples_leaf = cfg.min_samples_leaf;
    tc.use_sqrt_features = true;
    tc.seed = seeds[t].first;
    OracleTree tree(tc);
    Rng boot(seeds[t].second);
    std::vector<size_t> rows(X.rows);
    for (size_t i = 0; i < X.rows; ++i) {
      rows[i] = static_cast<size_t>(boot.below(X.rows == 0 ? 1 : X.rows));
    }
    tree.fit_rows(X, rows);
    trees.push_back(std::move(tree));
  }
  return trees;
}

// ---- Oracle: per-step standardizing SGD ------------------------------------

/// The SGD loop that standardized the row into a fresh vector on every
/// step, shrank the weights, then let the loss update recompute the margin.
struct OracleLinear {
  OracleLinear(LinearConfig cfg, bool logistic)
      : cfg_(cfg), logistic_(logistic) {}

  void standardize_fit(const FeatureTable& X) {
    mean_.assign(X.cols, 0.0);
    inv_sd_.assign(X.cols, 1.0);
    for (size_t c = 0; c < X.cols; ++c) {
      features::RunningStats rs;
      for (size_t r = 0; r < X.rows; ++r) rs.add(X.at(r, c));
      mean_[c] = rs.mean();
      const double sd = rs.stddev();
      inv_sd_[c] = sd > 1e-12 ? 1.0 / sd : 1.0;
    }
  }

  std::vector<double> standardized(std::span<const double> x) const {
    std::vector<double> z(x.size());
    for (size_t c = 0; c < x.size(); ++c) {
      z[c] = (x[c] - mean_[c]) * inv_sd_[c];
    }
    return z;
  }

  double margin(std::span<const double> x) const {
    double m = b_;
    for (size_t c = 0; c < w_.size() && c < x.size(); ++c) m += w_[c] * x[c];
    return m;
  }

  void fit(const FeatureTable& X) {
    standardize_fit(X);
    w_.assign(X.cols, 0.0);
    b_ = 0.0;
    if (X.rows == 0) return;

    size_t n_pos = 0;
    for (int y : X.labels) n_pos += (y != 0);
    const size_t n_neg = X.rows - n_pos;
    const double w_pos =
        n_pos > 0 ? static_cast<double>(X.rows) / (2.0 * n_pos) : 1.0;
    const double w_neg =
        n_neg > 0 ? static_cast<double>(X.rows) / (2.0 * n_neg) : 1.0;

    std::vector<size_t> order(X.rows);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(cfg_.seed);

    for (size_t e = 0; e < cfg_.epochs; ++e) {
      rng.shuffle(order);
      const double lr = cfg_.lr / (1.0 + 0.1 * static_cast<double>(e));
      for (size_t r : order) {
        const std::vector<double> z = standardized(X.row(r));
        const double y = X.labels[r] != 0 ? 1.0 : -1.0;
        const double cw = X.labels[r] != 0 ? w_pos : w_neg;
        // L2 shrink then loss-specific update.
        const double shrink = 1.0 - lr * cfg_.l2;
        for (double& wi : w_) wi *= shrink;
        if (logistic_) {
          logistic_update(z, y, lr, cw);
        } else {
          svm_update(z, y, lr, cw);
        }
      }
    }
  }

  void svm_update(std::span<const double> x, double y, double lr,
                  double class_weight) {
    if (y * margin(x) < 1.0) {
      for (size_t c = 0; c < w_.size(); ++c) {
        w_[c] += lr * class_weight * y * x[c];
      }
      b_ += lr * class_weight * y;
    }
  }

  void logistic_update(std::span<const double> x, double y, double lr,
                       double class_weight) {
    const double p = 1.0 / (1.0 + std::exp(-margin(x)));
    const double target = y > 0 ? 1.0 : 0.0;
    const double g = class_weight * (target - p);
    for (size_t c = 0; c < w_.size(); ++c) w_[c] += lr * g * x[c];
    b_ += lr * g;
  }

  LinearConfig cfg_;
  bool logistic_;
  std::vector<double> w_;
  double b_ = 0.0;
  std::vector<double> mean_;
  std::vector<double> inv_sd_;
};

/// A linear model with its fitted state in reach, so the oracle's weights
/// can be compared and scored through the production score().
template <class M>
struct Exposed : M {
  using M::M;
  using M::b_;
  using M::inv_sd_;
  using M::mean_;
  using M::w_;

  void load(const OracleLinear& o) {
    w_ = o.w_;
    b_ = o.b_;
    mean_ = o.mean_;
    inv_sd_ = o.inv_sd_;
  }
};

// ---- Tables ----------------------------------------------------------------

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Bit equality, except that any two NaNs match: x86 keeps the first
/// operand's NaN and the compiler may swap the operands of a commutative
/// operation, so a NaN's sign and payload depend on code generation.
bool same_bits(double a, double b) {
  return bits(a) == bits(b) || (std::isnan(a) && std::isnan(b));
}

std::vector<std::string> names(size_t cols) {
  std::vector<std::string> out(cols, "f");
  for (size_t c = 0; c < cols; ++c) out[c] += std::to_string(c);
  return out;
}

/// Columns that stress every branch of the split search: a constant;
/// 2 distinct values; signed zeros; exactly 32 and 33 distinct values (the
/// scan / sort edge of ColumnRanks); ~n distinct values (the dense / sort
/// edge of the node histogram once nodes shrink); coarse duplicates;
/// adjacent doubles (midpoints that round onto a neighbour); values whose
/// midpoint overflows; and two label-correlated columns so trees grow deep.
FeatureTable adversarial(size_t rows, uint64_t seed, bool huge = true) {
  const size_t cols = huge ? 12 : 11;
  FeatureTable t = FeatureTable::make(rows, names(cols));
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double signal = rng.normal();
    const int label = signal + 0.8 * rng.normal() > 0.3 ? 1 : 0;
    t.labels[r] = label;
    t.at(r, 0) = 3.5;
    t.at(r, 1) = rng.bernoulli(label != 0 ? 0.7 : 0.3) ? 1.0 : -1.0;
    const double zeros[] = {-0.0, 0.0, -1.0, 2.0};
    t.at(r, 2) = zeros[rng.below(label != 0 ? 4 : 2)];
    t.at(r, 3) = static_cast<double>(rng.below(32));
    t.at(r, 4) = static_cast<double>(rng.below(33)) - 16.0;
    t.at(r, 5) = signal + rng.normal(0.0, 0.5);
    t.at(r, 6) = std::round(4.0 * (signal + rng.normal())) / 4.0;
    double adj = 1.0;
    for (uint64_t k = rng.below(6); k > 0; --k) adj = std::nextafter(adj, 2.0);
    t.at(r, 7) = label != 0 && rng.bernoulli(0.6) ? std::nextafter(adj, 2.0)
                                                  : adj;
    t.at(r, 8) = static_cast<double>(rng.below(3));
    t.at(r, 9) = static_cast<double>(label) + rng.normal(0.0, 0.7);
    t.at(r, 10) = rng.bernoulli(0.5) ? signal : std::floor(signal);
    if (huge) {
      const double big[] = {-1.7e308, 1.0e308, 1.7e308};
      t.at(r, 11) = big[rng.below(label != 0 ? 3 : 2)];
    }
  }
  // Exact duplicate rows, as a bootstrap sample would repeat them.
  for (size_t r = 1; r < rows; r += 7) {
    for (size_t c = 0; c < cols; ++c) t.at(r, c) = t.at(r - 1, c);
    t.labels[r] = t.labels[r - 1];
  }
  return t;
}

/// An nPrint-like table: wide, every cell in {-1, 0, 1}.
FeatureTable bit_table(size_t rows, size_t cols, uint64_t seed) {
  FeatureTable t = FeatureTable::make(rows, names(cols));
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int label = rng.bernoulli(0.4) ? 1 : 0;
    t.labels[r] = label;
    for (size_t c = 0; c < cols; ++c) {
      if (c % 5 == 4) {
        t.at(r, c) = -1.0;  // absent header field
      } else {
        const double p = c % 3 == 0 ? (label != 0 ? 0.8 : 0.2) : 0.5;
        t.at(r, c) = rng.bernoulli(p) ? 1.0 : 0.0;
      }
    }
  }
  return t;
}

void expect_same_tree(const std::vector<Node>& got, int got_depth,
                      const OracleTree& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.nodes_.size()) << what;
  EXPECT_EQ(got_depth, want.depth_) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const Node& a = got[i];
    const Node& b = want.nodes_[i];
    ASSERT_EQ(a.feature, b.feature) << what << " node " << i;
    ASSERT_EQ(bits(a.threshold), bits(b.threshold)) << what << " node " << i;
    ASSERT_EQ(a.left, b.left) << what << " node " << i;
    ASSERT_EQ(a.right, b.right) << what << " node " << i;
    ASSERT_EQ(bits(a.p_malicious), bits(b.p_malicious))
        << what << " node " << i;
  }
}

void expect_tree_matches(const FeatureTable& X, const TreeConfig& cfg,
                         const std::string& what) {
  DecisionTree tree(cfg);
  tree.fit(X);
  OracleTree oracle(cfg);
  oracle.fit(X);
  expect_same_tree(tree.nodes(), tree.depth(), oracle, what);
}

void expect_forest_matches(const FeatureTable& X, const ForestConfig& cfg,
                           const std::string& what) {
  RandomForest rf(cfg);
  rf.fit(X);
  const std::vector<OracleTree> oracle = oracle_forest(X, cfg);
  ASSERT_EQ(rf.trees().size(), oracle.size()) << what;
  for (size_t t = 0; t < oracle.size(); ++t) {
    const DecisionTree& tree = rf.trees()[t];
    expect_same_tree(tree.nodes(), tree.depth(), oracle[t],
                     what + " tree " + std::to_string(t));
  }
}

// ---- ColumnRanks -----------------------------------------------------------

TEST(ColumnRanks, EncodesEveryColumnBySortedDistinctValues) {
  const FeatureTable X = adversarial(300, 5);
  const ColumnRanks ranks(X);
  const size_t want_distinct[] = {1, 2, 3, 32, 33};
  for (size_t c = 0; c < X.cols; ++c) {
    const std::span<const double> v = ranks.values(c);
    const std::span<const uint32_t> rk = ranks.ranks(c);
    ASSERT_EQ(rk.size(), X.rows);
    for (size_t k = 1; k < v.size(); ++k) EXPECT_LT(v[k - 1], v[k]) << c;
    std::vector<uint8_t> used(v.size(), 0);
    for (size_t r = 0; r < X.rows; ++r) {
      ASSERT_LT(rk[r], v.size()) << c;
      EXPECT_EQ(v[rk[r]], X.at(r, c)) << "col " << c << " row " << r;
      used[rk[r]] = 1;
    }
    // Every stored value occurs in the column.
    EXPECT_EQ(std::count(used.begin(), used.end(), 1),
              static_cast<std::ptrdiff_t>(v.size()));
    if (c < std::size(want_distinct)) {
      EXPECT_EQ(v.size(), want_distinct[c]) << "col " << c;
    }
  }
}

TEST(ColumnRanks, EmptyAndSingleRowTables) {
  const ColumnRanks none(FeatureTable::make(0, names(3)));
  EXPECT_TRUE(none.values(2).empty());
  EXPECT_TRUE(none.ranks(2).empty());
  FeatureTable one = FeatureTable::make(1, names(2));
  one.at(0, 1) = -0.0;
  const ColumnRanks r(one);
  ASSERT_EQ(r.values(1).size(), 1u);
  EXPECT_EQ(r.ranks(1)[0], 0u);
}

TEST(ColumnRanks, NaNsShareOneRankAboveEveryNumber) {
  // Column 0 has 3 distinct values plus NaN (the scanned path), column 1
  // has 37 plus NaN (the sorted path).
  FeatureTable X = FeatureTable::make(120, names(2));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t r = 0; r < X.rows; ++r) {
    X.at(r, 0) = r % 4 == 0 ? nan : static_cast<double>(r % 3);
    X.at(r, 1) = r % 5 == 0 ? nan : static_cast<double>(r % 37);
    X.labels[r] = r % 4 == 0;
  }
  const ColumnRanks ranks(X);
  for (size_t c = 0; c < X.cols; ++c) {
    const std::span<const double> v = ranks.values(c);
    ASSERT_EQ(v.size(), c == 0 ? 4u : 38u);
    EXPECT_TRUE(std::isnan(v.back()));
    for (size_t r = 0; r < X.rows; ++r) {
      const uint32_t k = ranks.ranks(c)[r];
      if (std::isnan(X.at(r, c))) {
        EXPECT_EQ(k, v.size() - 1);
      } else {
        EXPECT_EQ(v[k], X.at(r, c));
      }
    }
  }
  // A split onto NaN has a NaN threshold and a degenerate partition.
  DecisionTree tree;
  tree.fit(X);
  EXPECT_GE(tree.node_count(), 1u);
}

// ---- Trees -----------------------------------------------------------------

TEST(TrainOracle, DecisionTreeMatchesSortBasedBuilder) {
  // The overflowing column's best split has an infinite threshold, whose
  // partition is degenerate: such a node stays a leaf.
  expect_tree_matches(adversarial(400, 11), TreeConfig{}, "default");
  FeatureTable X = adversarial(400, 11, /*huge=*/false);
  Rng flip(99);  // label noise no column explains, so the tree grows deep
  for (int& y : X.labels) y = flip.bernoulli(0.2) ? 1 - y : y;
  TreeConfig deep;
  deep.max_depth = 40;
  deep.min_samples_leaf = 1;
  deep.min_samples_split = 2;
  expect_tree_matches(X, TreeConfig{}, "default, finite");
  expect_tree_matches(X, deep, "deep");
  // The deep tree reaches nodes far smaller than a quarter of the ~n
  // distinct values of column 5, where the search sorts the node's ranks.
  DecisionTree probe(deep);
  probe.fit(X);
  EXPECT_GT(probe.node_count(), 60u);
  EXPECT_GT(probe.depth(), 8);
}

TEST(TrainOracle, DecisionTreeMinSamplesEdges) {
  const FeatureTable X = adversarial(240, 12);
  for (size_t leaf : {size_t{0}, size_t{1}, size_t{3}, size_t{60},
                      size_t{119}, size_t{120}, size_t{121}, size_t{240}}) {
    for (size_t split : {size_t{0}, size_t{2}, size_t{50}, size_t{241}}) {
      TreeConfig cfg;
      cfg.max_depth = 30;
      cfg.min_samples_leaf = leaf;
      cfg.min_samples_split = split;
      expect_tree_matches(X, cfg,
                          "leaf " + std::to_string(leaf) + " split " +
                              std::to_string(split));
    }
  }
}

TEST(TrainOracle, DecisionTreeFeatureSubsets) {
  const FeatureTable X = adversarial(300, 13);
  for (size_t max_features : {size_t{1}, size_t{3}, size_t{11}, size_t{12},
                              size_t{99}}) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{7}, uint64_t{12345}}) {
      TreeConfig cfg;
      cfg.max_depth = 25;
      cfg.min_samples_leaf = 1;
      cfg.max_features = max_features;
      cfg.seed = seed;
      expect_tree_matches(X, cfg, "max_features " +
                                      std::to_string(max_features) +
                                      " seed " + std::to_string(seed));
      cfg.use_sqrt_features = true;
      expect_tree_matches(X, cfg, "sqrt seed " + std::to_string(seed));
    }
  }
}

TEST(TrainOracle, DecisionTreeDegenerateTables) {
  expect_tree_matches(adversarial(1, 3), TreeConfig{}, "one row");
  expect_tree_matches(adversarial(5, 4), TreeConfig{}, "five rows");
  expect_tree_matches(FeatureTable::make(50, {}), TreeConfig{}, "no columns");
  expect_tree_matches(FeatureTable::make(0, names(4)), TreeConfig{},
                      "no rows");
  FeatureTable pure = adversarial(80, 6);
  std::fill(pure.labels.begin(), pure.labels.end(), 1);
  expect_tree_matches(pure, TreeConfig{}, "one class");
  FeatureTable flat = FeatureTable::make(60, names(3));
  for (size_t r = 0; r < flat.rows; ++r) flat.labels[r] = r % 2;
  expect_tree_matches(flat, TreeConfig{}, "every column constant");
}

TEST(TrainOracle, DecisionTreeOnBitTables) {
  const FeatureTable X = bit_table(500, 96, 21);
  expect_tree_matches(X, TreeConfig{}, "bits");
  TreeConfig sub;
  sub.use_sqrt_features = true;
  sub.min_samples_leaf = 1;
  expect_tree_matches(X, sub, "bits sqrt");
}

TEST(TrainOracle, RandomForestMatchesSortBasedBuilder) {
  const FeatureTable X = adversarial(350, 31);
  expect_forest_matches(X, ForestConfig{.n_trees = 6}, "default");
  expect_forest_matches(X,
                        ForestConfig{.n_trees = 5,
                                     .max_depth = 40,
                                     .min_samples_leaf = 1,
                                     .seed = 3},
                        "deep");
  expect_forest_matches(X,
                        ForestConfig{.n_trees = 4,
                                     .max_depth = 12,
                                     .min_samples_leaf = 20,
                                     .seed = 5},
                        "wide leaves");
  expect_forest_matches(bit_table(300, 64, 8), ForestConfig{.n_trees = 5},
                        "bits");
  expect_forest_matches(adversarial(1, 9), ForestConfig{.n_trees = 3},
                        "one row");
  expect_forest_matches(FeatureTable::make(20, {}), ForestConfig{.n_trees = 2},
                        "no columns");
}

// ---- One encoding shared by several models ---------------------------------

// VotingEnsemble's members and AutoMl's candidates fit through one
// SharedRanks of their table. Fitted at top level, the forest's tree workers
// read that shared encoding from the pool.
TEST(SharedRanks, EnsembleMembersMatchSortBasedBuilders) {
  const FeatureTable X = adversarial(300, 61);
  const ForestConfig fcfg{.n_trees = 6};
  auto forest = std::make_shared<RandomForest>(fcfg);
  auto tree = std::make_shared<DecisionTree>();
  VotingEnsemble ens({forest, std::make_shared<GaussianNB>(), tree});
  ens.fit(X);
  const std::vector<OracleTree> oracle = oracle_forest(X, fcfg);
  ASSERT_EQ(forest->trees().size(), oracle.size());
  for (size_t t = 0; t < oracle.size(); ++t) {
    expect_same_tree(forest->trees()[t].nodes(), forest->trees()[t].depth(),
                     oracle[t], "ensemble forest tree " + std::to_string(t));
  }
  OracleTree lone(TreeConfig{});
  lone.fit(X);
  expect_same_tree(tree->nodes(), tree->depth(), lone, "ensemble tree");
}

TEST(SharedRanks, AutoMlOnThePoolMatchesSerial) {
  const FeatureTable X = bit_table(400, 64, 62);
  AutoMl serial;
  {
    SerialGuard guard;
    serial.fit(X);
  }
  AutoMl pooled;
  pooled.fit(X);
  EXPECT_EQ(pooled.winner(), serial.winner());
  EXPECT_TRUE(same_bits(pooled.winner_validation_f1(),
                        serial.winner_validation_f1()));
  const std::vector<double> want = serial.score(X);
  const std::vector<double> got = pooled.score(X);
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_TRUE(same_bits(got[r], want[r])) << "row " << r;
  }
}

// ---- Linear SGD ------------------------------------------------------------

template <class M>
void expect_linear_matches(const FeatureTable& train, const FeatureTable& test,
                           const LinearConfig& cfg, const std::string& what) {
  Exposed<M> model(cfg);
  model.fit(train);
  OracleLinear oracle(cfg, std::is_same_v<M, LogisticRegression>);
  oracle.fit(train);
  ASSERT_EQ(model.w_.size(), oracle.w_.size()) << what;
  for (size_t c = 0; c < oracle.w_.size(); ++c) {
    ASSERT_TRUE(same_bits(model.w_[c], oracle.w_[c])) << what << " w" << c;
    ASSERT_TRUE(same_bits(model.mean_[c], oracle.mean_[c])) << what;
    ASSERT_TRUE(same_bits(model.inv_sd_[c], oracle.inv_sd_[c])) << what;
  }
  EXPECT_TRUE(same_bits(model.b_, oracle.b_)) << what;
  Exposed<M> from_oracle(cfg);
  from_oracle.load(oracle);
  for (const FeatureTable* t : {&train, &test}) {
    const std::vector<double> got = model.score(*t);
    const std::vector<double> want = from_oracle.score(*t);
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t r = 0; r < got.size(); ++r) {
      ASSERT_TRUE(same_bits(got[r], want[r])) << what << " row " << r;
    }
  }
}

template <class M>
void expect_linear_cases() {
  const std::string name = M().name();
  const FeatureTable train = adversarial(400, 41, /*huge=*/false);
  const FeatureTable test = adversarial(150, 42, /*huge=*/false);
  expect_linear_matches<M>(train, test, LinearConfig{}, name + " default");
  expect_linear_matches<M>(train, test,
                           LinearConfig{.lr = 0.3, .l2 = 1e-2, .epochs = 7,
                                        .seed = 5},
                           name + " large steps");
  expect_linear_matches<M>(bit_table(300, 48, 9), bit_table(100, 48, 10),
                           LinearConfig{.epochs = 5}, name + " bits");
  FeatureTable skew = adversarial(200, 43, /*huge=*/false);
  for (size_t r = 0; r < skew.rows; ++r) skew.labels[r] = r % 20 == 0;
  expect_linear_matches<M>(skew, test, LinearConfig{.epochs = 4},
                           name + " 95/5 classes");
  FeatureTable one_class = adversarial(60, 44, /*huge=*/false);
  std::fill(one_class.labels.begin(), one_class.labels.end(), 0);
  expect_linear_matches<M>(one_class, test, LinearConfig{.epochs = 3},
                           name + " one class");
  expect_linear_matches<M>(adversarial(1, 45, false), test, LinearConfig{},
                           name + " one row");
  expect_linear_matches<M>(FeatureTable::make(30, {}),
                           FeatureTable::make(4, {}), LinearConfig{},
                           name + " no columns");
  expect_linear_matches<M>(FeatureTable::make(0, names(5)),
                           FeatureTable::make(3, names(5)), LinearConfig{},
                           name + " no rows");
  expect_linear_matches<M>(adversarial(120, 46, /*huge=*/true),
                           adversarial(40, 47, /*huge=*/true),
                           LinearConfig{.epochs = 3}, name + " overflowing");
}

TEST(TrainOracle, LinearSvmMatchesPerStepSgd) {
  expect_linear_cases<LinearSvm>();
}

TEST(TrainOracle, LogisticRegressionMatchesPerStepSgd) {
  expect_linear_cases<LogisticRegression>();
}

}  // namespace
}  // namespace lumen::ml
