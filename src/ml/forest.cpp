#include "ml/forest.h"

#include <algorithm>

#include "common/parallel.h"

namespace lumen::ml {

void RandomForest::fit(const FeatureTable& X) {
  SharedRanks ranks(X);
  fit_shared(X, ranks);
}

void RandomForest::fit_shared(const FeatureTable& X, SharedRanks& shared) {
  // Hoist per-tree seed derivation out of the loop so every tree's config
  // seed and bootstrap stream depend only on its index — trees can then fit
  // in parallel with results identical to the serial loop.
  Rng rng(cfg_.seed);
  std::vector<std::pair<uint64_t, uint64_t>> seeds(cfg_.n_trees);
  for (auto& [tree_seed, boot_seed] : seeds) {
    tree_seed = rng.next();
    boot_seed = rng.next();
  }
  // Every tree's split search reads the one rank encoding.
  const ColumnRanks& ranks = shared.get();
  trees_.assign(cfg_.n_trees, DecisionTree(TreeConfig{}));
  parallel_for(
      0, cfg_.n_trees,
      [&](size_t t) {
        TreeConfig tc;
        tc.max_depth = cfg_.max_depth;
        tc.min_samples_leaf = cfg_.min_samples_leaf;
        tc.use_sqrt_features = true;
        tc.seed = seeds[t].first;
        DecisionTree tree(tc);
        // Bootstrap sample (with replacement) from a per-tree stream.
        Rng boot(seeds[t].second);
        std::vector<size_t> rows(X.rows);
        for (size_t i = 0; i < X.rows; ++i) {
          rows[i] = static_cast<size_t>(boot.below(X.rows == 0 ? 1 : X.rows));
        }
        tree.fit_rows(X, ranks, rows);
        trees_[t] = std::move(tree);
      },
      /*min_parallel=*/2);
}

std::vector<double> RandomForest::score(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  // A table narrower than the highest split feature scores zeros; a wider
  // one is fine (trees index rows by feature).
  size_t width = 0;
  for (const DecisionTree& t : trees_) width = std::max(width, t.input_width());
  if (trees_.empty() || X.cols < width) return out;
  const double inv = 1.0 / static_cast<double>(trees_.size());
  parallel_for(
      0, X.rows,
      [&](size_t r) {
        double acc = 0.0;
        for (const DecisionTree& t : trees_) acc += t.predict_row(X.row(r));
        out[r] = acc * inv;
      },
      /*min_parallel=*/64);
  return out;
}

}  // namespace lumen::ml
