// Gaussian naive Bayes classifier (per-class diagonal Gaussians), as used by
// the BayesianIDS baseline (Moore & Zuev style per-flow discriminators).
#pragma once

#include "ml/model.h"

namespace lumen::ml {

class GaussianNB : public Model {
 public:
  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::string name() const override { return "GaussianNB"; }
  bool is_supervised() const override { return true; }

  /// Fitted parameters, exposed for persistence.
  struct Params {
    std::vector<double> mean[2];
    std::vector<double> var[2];
    double log_prior[2] = {0.0, 0.0};
    bool has_class[2] = {false, false};
    size_t cols = 0;
  };
  Params params() const {
    Params p;
    for (int c = 0; c < 2; ++c) {
      p.mean[c] = mean_[c];
      p.var[c] = var_[c];
      p.log_prior[c] = log_prior_[c];
      p.has_class[c] = has_class_[c];
    }
    p.cols = cols_;
    return p;
  }
  void restore(const Params& p) {
    for (int c = 0; c < 2; ++c) {
      mean_[c] = p.mean[c];
      var_[c] = p.var[c];
      log_prior_[c] = p.log_prior[c];
      has_class_[c] = p.has_class[c];
    }
    cols_ = p.cols;
  }

 private:
  double log_likelihood(std::span<const double> x, int cls) const;

  std::vector<double> mean_[2];
  std::vector<double> var_[2];
  double log_prior_[2] = {0.0, 0.0};
  bool has_class_[2] = {false, false};
  size_t cols_ = 0;
};

}  // namespace lumen::ml
