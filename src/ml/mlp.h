// Feed-forward neural nets trained by SGD:
//  * Mlp         — binary classifier, ReLU hidden layers + sigmoid output.
//  * AutoEncoderCore — one-hidden-layer autoencoder with online 0-1 input
//    normalization (the building block Kitsune stacks into KitNET).
//  * AutoEncoderDetector — Model adapter: train on benign rows, score by
//    reconstruction RMSE, threshold at a benign quantile.
//
// All the forward/backward math routes through the dense-kernel library
// (ml/dense.h): training runs minibatch GEMMs over the contiguous row-major
// weights, and Mlp::score processes dense::kScoreBlock-row blocks.
// AutoEncoderDetector::fit lowers its trained core into an f64 compiled
// plan (ml/compiled.h), which its score() runs. The row-at-a-time scorers
// are kept as *_perrow / score_sample reference paths for the equivalence
// tests and the batched-vs-per-row benchmark gate.
#pragma once

#include "ml/compiled.h"
#include "ml/dense.h"
#include "ml/model.h"

namespace lumen::ml {

struct MlpConfig {
  std::vector<size_t> hidden = {32, 16};
  double lr = 0.02;
  size_t epochs = 30;
  size_t batch = 32;  // minibatch size for the GEMM-based SGD
  uint64_t seed = 43;
};

class Mlp : public Model {
 public:
  explicit Mlp(MlpConfig cfg = {}) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::vector<int> predict(const FeatureTable& X) const override;
  std::string name() const override { return "MLP"; }
  bool is_supervised() const override { return true; }

  /// Pre-PR reference: row-at-a-time scalar forward with per-row activation
  /// allocations. Kept for the batched-vs-per-row equivalence tests and the
  /// BENCH_ml baseline; not a production path.
  std::vector<double> score_perrow(const FeatureTable& X) const;

 private:
  struct Layer {
    size_t in = 0, out = 0;
    std::vector<double> w;  // out x in
    std::vector<double> b;  // out
  };

  double forward(std::span<const double> x, std::vector<std::vector<double>>* acts) const;
  void fit_standardizer(const FeatureTable& X);
  std::vector<double> standardized(std::span<const double> x) const;
  /// Standardize rows [lo, hi) of X into z (row-major, X.cols stride).
  void standardize_block(const FeatureTable& X, size_t lo, size_t hi,
                         double* z) const;
  /// One minibatch SGD step over rows[lo, hi) of the shuffled order.
  void train_batch(const FeatureTable& X, const std::vector<size_t>& order,
                   size_t lo, size_t hi, double lr, double w_pos,
                   double w_neg, std::vector<std::vector<double>>& acts,
                   std::vector<double>& delta, std::vector<double>& delta_prev);

  MlpConfig cfg_;
  std::vector<Layer> layers_;
  std::vector<double> mean_, inv_sd_;
};

/// Single-hidden-layer autoencoder with sigmoid activations and online
/// min-max input normalization, trained per-sample (Kitsune-style).
class AutoEncoderCore {
 public:
  /// hidden_ratio: hidden size = max(1, ceil(ratio * dim)).
  AutoEncoderCore(size_t dim, double hidden_ratio, double lr, uint64_t seed);

  /// Reusable buffers for allocation-free scoring; one scratch may be
  /// shared across cores of different dimensions (buffers are resized).
  struct ScoreScratch {
    std::vector<double> z;  // normalized input
    std::vector<double> h;  // hidden activations
  };

  /// One SGD step on x; returns the reconstruction RMSE *before* the update.
  double train_sample(std::span<const double> x);

  /// Reconstruction RMSE without updating weights: the per-row reference
  /// the compiled plans are tested against.
  double score_sample(std::span<const double> x) const;

  /// Same, but reusing caller-owned buffers.
  double score_sample(std::span<const double> x, ScoreScratch& scratch) const;

  size_t dim() const { return dim_; }
  size_t hidden() const { return hidden_; }

  /// Read-only view of the fitted parameters for the model compiler
  /// (ml/compiled.*): raw layer weights plus the normalization ranges.
  struct ParamsView {
    size_t dim = 0, hidden = 0;
    const double* w1 = nullptr;  // hidden x dim
    const double* b1 = nullptr;  // hidden
    const double* w2 = nullptr;  // dim x hidden
    const double* b2 = nullptr;  // dim
    const double* norm_min = nullptr;  // dim
    const double* norm_max = nullptr;  // dim
  };
  ParamsView params_view() const {
    return {dim_,       hidden_,    w1_.data(),       b1_.data(),
            w2_.data(), b2_.data(), norm_min_.data(), norm_max_.data()};
  }

 private:
  void normalize_into(std::span<const double> x, std::vector<double>& z) const;
  void update_norm(std::span<const double> x);

  size_t dim_;
  size_t hidden_;
  double lr_;
  std::vector<double> w1_, b1_;  // hidden x dim, hidden
  std::vector<double> w2_, b2_;  // dim x hidden, dim
  std::vector<double> norm_min_, norm_max_;
  bool norm_init_ = false;
  // Reused train_sample buffers (z, h, y, dy, dh, dvec); copying a core
  // copies them harmlessly.
  std::vector<double> tz_, th_, ty_, tdy_, tdh_, tdv_;
};

struct AutoEncoderConfig {
  double hidden_ratio = 0.5;
  double lr = 0.1;
  size_t epochs = 4;
  double quantile = 0.97;
  uint64_t seed = 47;
};

class AutoEncoderDetector : public Model {
 public:
  explicit AutoEncoderDetector(AutoEncoderConfig cfg = {}) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::vector<int> predict(const FeatureTable& X) const override;
  std::string name() const override { return "AutoEncoder"; }
  bool is_supervised() const override { return false; }

  double threshold() const { return plan_ ? plan_->threshold() : 0.0; }

  /// The fitted core (null before fit) — for the model compiler.
  const AutoEncoderCore* core() const { return ae_.get(); }

  /// The f64 plan fit() built — the one inference path (null before fit).
  const compiled::PlanPtr& plan() const { return plan_; }

  /// Per-row reference path (row-at-a-time score_sample loop).
  std::vector<double> score_perrow(const FeatureTable& X) const;

 private:
  AutoEncoderConfig cfg_;
  std::unique_ptr<AutoEncoderCore> ae_;
  compiled::PlanPtr plan_;
};

}  // namespace lumen::ml
