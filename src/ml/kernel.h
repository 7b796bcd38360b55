// Kernel machinery for the Efficient-OCSVM family (Yang et al.):
//  * RBF kernel with median-heuristic bandwidth
//  * Nyström feature map (landmarks + K_mm^{-1/2} projection)
//  * One-class SVM solved in the dual by projected gradient descent
#pragma once

#include "ml/eigen.h"
#include "ml/model.h"

namespace lumen::ml {

/// exp(-gamma * ||x - y||^2).
double rbf_kernel(std::span<const double> x, std::span<const double> y,
                  double gamma);

/// Median-of-pairwise-distances heuristic for gamma (on a row sample).
double median_heuristic_gamma(const FeatureTable& X, size_t sample = 200,
                              uint64_t seed = 19);

/// Nyström approximation: embeds rows into an m-dimensional space where the
/// dot product approximates the RBF kernel.
class NystromMap {
 public:
  struct Config {
    size_t n_landmarks = 64;
    double gamma = 0.0;  // 0 = use the median heuristic
    uint64_t seed = 23;
  };

  NystromMap() : NystromMap(Config{}) {}
  explicit NystromMap(Config cfg) : cfg_(cfg) {}

  /// Pick landmarks from X and form the whitening projection.
  void fit(const FeatureTable& X);

  /// Map a table into the landmark space (labels/metadata carried over).
  FeatureTable transform(const FeatureTable& X) const;

  double gamma() const { return gamma_; }
  size_t dim() const { return rank_; }

  /// Pre-PR reference: per-row kernel-vector + projection loop. Kept for
  /// the batched-vs-per-row equivalence tests.
  FeatureTable transform_perrow(const FeatureTable& X) const;

 private:
  Config cfg_;
  double gamma_ = 1.0;
  size_t n_features_ = 0;
  size_t rank_ = 0;
  std::vector<double> landmarks_;       // n_landmarks x n_features
  std::vector<double> landmark_norms_;  // ||landmark||^2 per row
  std::vector<double> projection_;      // n_landmarks x rank (K_mm^{-1/2})
  size_t n_landmarks_ = 0;
};

/// Kernel one-class SVM: dual problem
///   min 0.5 a^T K a   s.t. 0 <= a_i <= 1/(nu*n), sum a = 1,
/// solved by projected gradient with a simplex-box projection. Anomaly score
/// is rho - sum_i a_i k(x_i, x); threshold calibrated on benign scores.
class OneClassSvm : public Model {
 public:
  struct Config {
    double nu = 0.05;
    double gamma = 0.0;  // 0 = median heuristic
    size_t max_train_rows = 600;
    size_t iters = 200;
    double quantile = 0.98;  // benign-score threshold quantile
    uint64_t seed = 29;
  };

  OneClassSvm() : OneClassSvm(Config{}) {}
  explicit OneClassSvm(Config cfg) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::string name() const override { return "OneClassSVM"; }
  bool is_supervised() const override { return false; }

  double threshold() const { return threshold_; }

  /// Pre-PR reference: per-row decision() loop over all stored training
  /// rows. Kept for the batched-vs-per-row equivalence tests and bench.
  std::vector<double> score_perrow(const FeatureTable& X) const;

 protected:
  std::vector<int> decide(const std::vector<double>& scores) const override {
    return threshold_predict(scores, threshold_);
  }

 private:
  double decision(std::span<const double> x) const;

  Config cfg_;
  double gamma_ = 1.0;
  double rho_ = 0.0;
  double threshold_ = 0.0;
  FeatureTable support_;
  std::vector<double> alpha_;
  // Compact support set (alpha > 1e-10) for the batched decision path:
  // score blocks get their distance matrix to sv_x_ in one sq_dist_batch,
  // then exp + a GEMV against sv_alpha_.
  size_t n_sv_ = 0;
  std::vector<double> sv_x_;      // n_sv x n_features
  std::vector<double> sv_alpha_;  // n_sv
  std::vector<double> sv_norms_;  // ||sv||^2 per row
};

/// Linear one-class SVM over already-embedded features (Nyström + OCSVM):
/// primal SGD on  0.5||w||^2 - rho + (1/nu n) sum max(0, rho - w.x).
class LinearOneClassSvm : public Model {
 public:
  struct Config {
    double nu = 0.05;
    size_t epochs = 40;
    double lr = 0.05;
    double quantile = 0.98;
    uint64_t seed = 31;
  };

  LinearOneClassSvm() : LinearOneClassSvm(Config{}) {}
  explicit LinearOneClassSvm(Config cfg) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::string name() const override { return "LinearOCSVM"; }
  bool is_supervised() const override { return false; }

  /// Pre-PR reference: per-row dot-product loop.
  std::vector<double> score_perrow(const FeatureTable& X) const;

  double threshold() const { return threshold_; }

 protected:
  std::vector<int> decide(const std::vector<double>& scores) const override {
    return threshold_predict(scores, threshold_);
  }

 private:
  Config cfg_;
  std::vector<double> w_;
  double rho_ = 0.0;
  double threshold_ = 0.0;
};

}  // namespace lumen::ml
