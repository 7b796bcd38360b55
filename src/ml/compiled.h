// Compiled inference: lower a fitted neural detector (KitNET or the
// autoencoder) into an immutable, cache-optimized scoring plan — the
// detector's one inference path and the deployable artifact the live path
// scores through.
//
// The plan's weights live in a single contiguous arena laid out in scoring
// order: a fused single-pass encode→decode→RMSE over packed panels, with
// the per-cluster gather and the min-max normalization folded into the
// panel staging (gather indices + precomputed reciprocal ranges sit next to
// the weights they feed). The f64 plan is these models' only inference
// path: their fit() lowers the trained cores into it and calibrates the
// threshold on its scores, and their score() runs it. f32 is the one opt-in
// alternative: float panels driven by 8-lane AVX2 kernels, ~2x the f64
// throughput, score divergence bounded and gated (see docs).
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

#include "common/result.h"
#include "ml/model.h"

namespace lumen::ml {
class KitNet;
class AutoEncoderCore;
class AutoEncoderDetector;
}  // namespace lumen::ml

namespace lumen::ml::compiled {

enum class Precision : uint8_t { kF64, kF32 };
const char* precision_name(Precision p);

struct Options {
  /// Requested plan arithmetic.
  Precision precision = Precision::kF64;
};

/// Reusable buffers for allocation-free plan scoring. One scratch may be
/// shared across plans of different shapes (buffers are resized); it must
/// not be shared across threads.
struct Scratch {
  std::vector<double> a, b, c, d;
  std::vector<float> fa, fb, fc, fd, fx;
};

/// An immutable compiled scoring plan. score_rows follows the micro-batch
/// contract: out[i] = score of row i of the m x dim() row-major block x
/// (row stride ldx >= dim()), and row i's result does not depend on how the
/// stream is chopped into batches.
class Plan {
 public:
  virtual ~Plan() = default;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  virtual void score_rows(const double* x, size_t m, size_t ldx, double* out,
                          Scratch& scratch) const = 0;

  /// Source model family: "kitnet" or "autoencoder".
  virtual const char* kind() const = 0;

  /// Minimum row width score_rows reads. Rows may be wider (ldx carries
  /// the stride).
  size_t dim() const { return dim_; }
  Precision precision() const { return precision_; }
  /// Alert threshold carried over from the source model.
  double threshold() const { return threshold_; }
  /// Size of the compiled weight arena — what deploying this plan ships.
  size_t weight_bytes() const { return weight_bytes_; }

 protected:
  Plan() = default;
  size_t dim_ = 0;
  Precision precision_ = Precision::kF64;
  double threshold_ = 0.0;
  size_t weight_bytes_ = 0;
};

using PlanPtr = std::shared_ptr<const Plan>;

/// The detector's plan at the requested precision. kF64 returns the plan
/// the model's fit() built; kF32 lowers the same cores in float. Both carry
/// the model's threshold. Error on an unfitted model.
Result<PlanPtr> compile_kitnet(const KitNet& net, const Options& opts = {});
Result<PlanPtr> compile_autoencoder(const AutoEncoderDetector& ae,
                                    const Options& opts = {});

/// Lower trained cores into an f64 plan whose threshold is the `quantile`
/// of the plan's own scores over rows `benign` of X. KitNet::fit and
/// AutoEncoderDetector::fit build their inference path here, so the
/// threshold and the scores it gates come from the same arithmetic.
PlanPtr calibrate_kitnet(const KitNet& net, const FeatureTable& X,
                         std::span<const size_t> benign, double quantile);
PlanPtr calibrate_autoencoder(const AutoEncoderCore& ae,
                              const FeatureTable& X,
                              std::span<const size_t> benign,
                              double quantile);

/// Score every row of X through the plan in dense::kScoreBlock blocks
/// under parallel_for. A table narrower than plan.dim() scores zeros (the
/// plan would read past its rows); wider tables are fine — X.cols is the
/// row stride. The neural models' score() is this over their f64 plan.
std::vector<double> score_table(const Plan& plan, const FeatureTable& X);

// ------------------------------------------------------- float32 kernels
//
// The f32 counterparts of the dense kernels the neural plans ride. Same
// dispatch policy as lumen::ml::dense: the backend resolves off
// dense::active_backend(), so LUMEN_SIMD=off and dense::ScopedBackend
// steer these too. Panels pad output columns to kPackPadF32 so the AVX2
// kernel never runs a scalar column tail.
constexpr size_t kPackPadF32 = 8;

struct KernelsF32 {
  /// y[m x n_pad] = x[m x k] * wt[k x n_pad] + bias[n_pad]; same
  /// batch-size-independent accumulation contract as dense::packed_apply.
  void (*packed_apply)(size_t m, size_t n_pad, size_t k, const float* x,
                       size_t ldx, const float* wt, const float* bias,
                       float* y, size_t ldy);
  /// x[i] = 1 / (1 + exp(-x[i]))
  void (*sigmoid_sweep)(size_t n, float* x);
};

const KernelsF32& scalar_kernels_f32();
const KernelsF32* avx2_kernels_f32();
/// The table matching dense::active_backend() right now.
const KernelsF32& active_kernels_f32();

}  // namespace lumen::ml::compiled
