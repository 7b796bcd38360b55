// AutoML: holdout-validated grid search over the supervised model zoo
// (the nPrint paper delegates model choice to an AutoML engine; this is our
// native equivalent). The winning candidate is refit on all training data.
#pragma once

#include <functional>

#include "ml/model.h"

namespace lumen::ml {

struct AutoMlConfig {
  double holdout_fraction = 0.25;
  /// Candidates tried; empty = the default grid (RF variants, DT, NB,
  /// logistic regression).
  std::vector<std::function<ModelPtr()>> candidates;
  uint64_t seed = 59;
};

class AutoMl : public Model {
 public:
  explicit AutoMl(AutoMlConfig cfg = {});

  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  /// The winner's scores and its own decisions.
  Scored score_and_decide(const FeatureTable& X) const override;
  std::string name() const override;
  bool is_supervised() const override { return true; }

  const std::string& winner() const { return winner_name_; }
  double winner_validation_f1() const { return winner_f1_; }

 private:
  AutoMlConfig cfg_;
  ModelPtr best_;
  std::string winner_name_ = "none";
  double winner_f1_ = 0.0;
};

/// The default candidate grid used when AutoMlConfig.candidates is empty.
std::vector<std::function<ModelPtr()>> default_automl_grid();

}  // namespace lumen::ml
