// Linear models trained by SGD:
//  * LinearSVM        — hinge loss + L2, with internal feature standardization
//                       and class balancing (ML-DDoS ensemble member).
//  * LogisticRegression — log loss + L2 (AutoML candidate).
#pragma once

#include "ml/model.h"

namespace lumen::ml {

struct LinearConfig {
  double lr = 0.05;
  double l2 = 1e-4;
  size_t epochs = 30;
  uint64_t seed = 17;
};

/// Shared SGD machinery; subclasses define the per-example gradient.
class LinearModel : public Model {
 public:
  explicit LinearModel(LinearConfig cfg) : cfg_(cfg) {}

  /// Standardizes X once, then runs SGD over its standardized rows.
  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  bool is_supervised() const override { return true; }

  /// Per-row reference: standardize + margin loop. Kept for the
  /// batched-vs-per-row equivalence tests.
  std::vector<double> score_perrow(const FeatureTable& X) const;

 protected:
  /// Raw decision value w.x + b for a standardized row.
  double margin(std::span<const double> x) const;
  /// Loss-specific weight update for one standardized example z whose
  /// margin w.z + b is `m`. y in {-1, +1}.
  virtual void update(std::span<const double> z, double m, double y,
                      double lr, double class_weight) = 0;
  /// Map margin to a [0,1] score.
  virtual double to_score(double margin_value) const = 0;

  LinearConfig cfg_;
  std::vector<double> w_;
  double b_ = 0.0;
  std::vector<double> mean_;
  std::vector<double> inv_sd_;

 private:
  void standardize_fit(const FeatureTable& X);
  std::vector<double> standardized(std::span<const double> x) const;
};

class LinearSvm : public LinearModel {
 public:
  explicit LinearSvm(LinearConfig cfg = {}) : LinearModel(cfg) {}
  std::string name() const override { return "LinearSVM"; }

 protected:
  void update(std::span<const double> z, double m, double y, double lr,
              double class_weight) override;
  double to_score(double m) const override;
};

class LogisticRegression : public LinearModel {
 public:
  explicit LogisticRegression(LinearConfig cfg = {}) : LinearModel(cfg) {}
  std::string name() const override { return "LogisticRegression"; }

 protected:
  void update(std::span<const double> z, double m, double y, double lr,
              double class_weight) override;
  double to_score(double m) const override;
};

}  // namespace lumen::ml
