// KitNET — Kitsune's anomaly detector (Mirsky et al., NDSS'18):
// an ensemble of small autoencoders over correlation-clustered feature
// subsets, whose per-cluster reconstruction errors feed an output
// autoencoder. Score = output-layer RMSE; trained online on benign traffic.
// fit() lowers the trained ensemble into an f64 compiled plan
// (ml/compiled.h); score() and the threshold both come from that plan.
#pragma once

#include "ml/compiled.h"
#include "ml/mlp.h"
#include "ml/model.h"

namespace lumen::ml {

class KitNet : public Model {
 public:
  struct Config {
    size_t max_cluster_size = 10;   // Kitsune's m
    double hidden_ratio = 0.75;     // beta
    double lr = 0.1;
    size_t fm_grace = 500;          // instances used to learn the feature map
    size_t epochs = 2;              // passes over the benign training stream
    double quantile = 0.97;         // benign-score threshold quantile
    uint64_t seed = 53;
  };

  KitNet() : KitNet(Config{}) {}
  explicit KitNet(Config cfg) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::string name() const override { return "KitNET"; }
  bool is_supervised() const override { return false; }

  const std::vector<std::vector<size_t>>& clusters() const { return clusters_; }
  double threshold() const { return plan_ ? plan_->threshold() : 0.0; }

  /// The f64 plan fit() built — the one inference path (null before fit,
  /// and after a fit with no benign rows).
  const compiled::PlanPtr& plan() const { return plan_; }

  /// Ensemble internals for the model compiler (ml/compiled.*): the fitted
  /// per-cluster cores and the output core (null before fit).
  const AutoEncoderCore* ensemble_core(size_t k) const {
    return ensemble_[k].get();
  }
  const AutoEncoderCore* output_core() const { return output_.get(); }

  /// Reusable buffers for allocation-free single-row scoring. One scratch
  /// serves the whole ensemble plus the output autoencoder.
  struct ScoreScratch {
    std::vector<double> sub;    // per-cluster feature subset
    std::vector<double> rmses;  // per-cluster reconstruction errors
    AutoEncoderCore::ScoreScratch ae;
  };

  /// Per-row reference scorer over the trained cores (the test oracle for
  /// the plan; agrees with it to ~1e-15 relative, not bitwise).
  double score_row(std::span<const double> x) const;

  /// Same, reusing caller-owned scratch.
  double score_row(std::span<const double> x, ScoreScratch& scratch) const;

  /// Row-at-a-time score_row loop over a table: the reference for the
  /// equivalence tests and bench_ml's per-row baseline.
  std::vector<double> score_perrow(const FeatureTable& X) const;

 protected:
  std::vector<int> decide(const std::vector<double>& scores) const override {
    return threshold_predict(scores, threshold());
  }

 private:
  /// Agglomerative clustering on correlation distance, clusters capped at
  /// max_cluster_size (Kitsune's feature-mapping phase).
  void build_feature_map(const FeatureTable& X,
                         const std::vector<size_t>& rows);

  Config cfg_;
  std::vector<std::vector<size_t>> clusters_;
  // Trained cores, shared by copies: nothing mutates them after fit(),
  // which replaces them wholesale.
  std::vector<std::shared_ptr<const AutoEncoderCore>> ensemble_;
  std::shared_ptr<const AutoEncoderCore> output_;
  compiled::PlanPtr plan_;
};

}  // namespace lumen::ml
