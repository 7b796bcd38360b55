// Compiled inference: lower a fitted neural detector (KitNET or the
// autoencoder) into an immutable, cache-optimized f64 scoring plan — the
// detector's one inference path and the deployable artifact the live path
// scores through.
//
// The plan's weights live in a single contiguous arena laid out in scoring
// order: a fused single-pass encode→decode→RMSE over packed panels, with
// the per-cluster gather and the min-max normalization folded into the
// panel staging (gather indices + precomputed reciprocal ranges sit next to
// the weights they feed). The models' fit() lowers the trained cores into
// it and calibrates the threshold on its scores, and their score() runs it,
// so the threshold and the scores it gates come from the same arithmetic.
//
// The table models (forest, tree, GMM, SVMs, kNN) have no plan: each scores
// only through its own batched score().
//
// Plans are immutable after they are built and safe to share across
// consumer threads: score_rows is const and all mutable state lives in the
// caller's Scratch. OnlineKitsune scores the packet hot path through its
// detector's plan — IngestRuntime::deploy() then hot-swaps it like any
// other scorer.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/model.h"

namespace lumen::ml {
class KitNet;
class AutoEncoderCore;
}  // namespace lumen::ml

namespace lumen::ml::compiled {

/// Plan arithmetic: f64 is the only one. OnlineKitsune::compile still takes
/// it for its existing callers.
enum class Precision : uint8_t { kF64 };

/// Reusable buffers for allocation-free plan scoring. One scratch may be
/// shared across plans of different shapes (buffers are resized); it must
/// not be shared across threads.
struct Scratch {
  std::vector<double> a, b, c, d;
};

class Plan;
using PlanPtr = std::shared_ptr<const Plan>;

/// Lower trained cores into a plan whose threshold is the `quantile` of the
/// plan's own scores over rows `benign` of X. KitNet::fit and
/// AutoEncoderDetector::fit build their inference path here.
PlanPtr calibrate_kitnet(const KitNet& net, const FeatureTable& X,
                         std::span<const size_t> benign, double quantile);
PlanPtr calibrate_autoencoder(const AutoEncoderCore& ae,
                              const FeatureTable& X,
                              std::span<const size_t> benign,
                              double quantile);

/// An immutable compiled scoring plan: a KitNET ensemble plus its output
/// autoencoder, or a single autoencoder. score_rows follows the micro-batch
/// contract: out[i] = score of row i of the m x dim() row-major block x
/// (row stride ldx >= dim()), and row i's result does not depend on how the
/// stream is chopped into batches.
class Plan {
 public:
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  void score_rows(const double* x, size_t m, size_t ldx, double* out,
                  Scratch& scratch) const;

  /// Minimum row width score_rows reads. Rows may be wider (ldx carries
  /// the stride).
  size_t dim() const { return dim_; }
  /// Alert threshold, calibrated on this plan's scores.
  double threshold() const { return threshold_; }
  /// Size of the compiled weight arena — what deploying this plan ships.
  size_t weight_bytes() const {
    return arena_.size() * sizeof(double) + gather_.size() * sizeof(uint32_t);
  }

 private:
  /// One compiled autoencoder: gather indices, normalization constants, and
  /// the two packed weight panels, all as offsets into the arena so the
  /// whole ensemble is a single contiguous, scoring-ordered block.
  struct Unit {
    size_t in = 0, hidden = 0;
    size_t hp = 0, dp = 0;  // padded panel widths (hidden / in)
    size_t gather = SIZE_MAX;  // offset into gather_; SIZE_MAX: none
    // Arena offsets, in scoring order.
    size_t nmin = 0, inv = 0, enc_wt = 0, enc_b = 0, dec_wt = 0, dec_b = 0;
  };

  explicit Plan(const KitNet& net);
  explicit Plan(const AutoEncoderCore& ae);
  Unit lower(const AutoEncoderCore& ae, const std::vector<size_t>* cluster);
  size_t alloc(size_t n);
  void calibrate(const FeatureTable& X, std::span<const size_t> benign,
                 double quantile);
  void run_unit(const Unit& u, const double* src, size_t m, size_t lds,
                double* out, size_t out_stride, Scratch& s) const;

  friend PlanPtr calibrate_kitnet(const KitNet&, const FeatureTable&,
                                  std::span<const size_t>, double);
  friend PlanPtr calibrate_autoencoder(const AutoEncoderCore&,
                                       const FeatureTable&,
                                       std::span<const size_t>, double);

  size_t dim_ = 0;
  double threshold_ = 0.0;
  std::vector<double> arena_;
  std::vector<uint32_t> gather_;
  std::vector<Unit> ensemble_;  // empty for a single-autoencoder plan
  Unit output_;
};

/// Score every row of X through the plan in dense::kScoreBlock blocks
/// under parallel_for. A table narrower than plan.dim() scores zeros (the
/// plan would read past its rows); wider tables are fine — X.cols is the
/// row stride. The neural models' score() is this over their plan.
std::vector<double> score_table(const Plan& plan, const FeatureTable& X);

}  // namespace lumen::ml::compiled
