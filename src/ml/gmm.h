// k-means and diagonal-covariance Gaussian mixture models (EM). The GMM is
// used as a density-based anomaly detector (Nyström + GMM baseline): fit on
// benign rows, score = negative log-likelihood.
#pragma once

#include "ml/model.h"

namespace lumen::ml {

/// Plain k-means (Lloyd's algorithm with k-means++-style seeding).
class KMeans {
 public:
  struct Config {
    size_t k = 4;
    size_t iters = 50;
    uint64_t seed = 37;
  };

  KMeans() : KMeans(Config{}) {}
  explicit KMeans(Config cfg) : cfg_(cfg) {}

  void fit(const FeatureTable& X, const std::vector<size_t>& rows);
  size_t assign(std::span<const double> x) const;
  const std::vector<double>& centroids() const { return centroids_; }
  size_t k() const { return k_; }
  size_t dim() const { return dim_; }

 private:
  Config cfg_;
  size_t k_ = 0;
  size_t dim_ = 0;
  std::vector<double> centroids_;  // k x dim
};

/// Diagonal GMM trained by EM on benign rows; anomaly score is the negative
/// log-likelihood, thresholded at a benign quantile.
class Gmm : public Model {
 public:
  struct Config {
    size_t components = 4;
    size_t iters = 40;
    double quantile = 0.98;
    uint64_t seed = 41;
  };

  Gmm() : Gmm(Config{}) {}
  explicit Gmm(Config cfg) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::string name() const override { return "GMM"; }
  bool is_supervised() const override { return false; }

  /// Mean train-set log-likelihood after fit (EM should not decrease it).
  double final_log_likelihood() const { return final_ll_; }

  /// Pre-PR reference: per-row log_density loop. Kept for the
  /// batched-vs-per-row equivalence tests and bench_ml's per-row baseline.
  std::vector<double> score_perrow(const FeatureTable& X) const;

  double threshold() const { return threshold_; }

 protected:
  std::vector<int> decide(const std::vector<double>& scores) const override {
    return threshold_predict(scores, threshold_);
  }

 private:
  double log_density(std::span<const double> x) const;

  /// Fold weight/mean/var into the quadratic scoring form
  ///   logp[c](x) = const_c + sum_d w1[c][d] x_d^2 + w2[c][d] x_d
  /// so a block of rows scores as two GEMMs plus a per-row logsumexp.
  void prepare_scoring();

  /// Score rows of the m x dim_ row-major block x (stride ldx) into out.
  void score_block(const double* x, size_t m, size_t ldx, double* out) const;

  Config cfg_;
  size_t k_ = 0;
  size_t dim_ = 0;
  std::vector<double> weight_;  // k
  std::vector<double> mean_;    // k x dim
  std::vector<double> var_;     // k x dim
  std::vector<double> w1_;      // k x dim: -0.5 / var
  std::vector<double> w2_;      // k x dim: mean / var
  std::vector<double> const_;   // k: log w - 0.5 sum(log(2 pi v) + mean^2/v)
  double threshold_ = 0.0;
  double final_ll_ = 0.0;
};

}  // namespace lumen::ml
