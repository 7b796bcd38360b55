// Compiled inference plans — see compiled.h for the layout and equivalence
// contracts. The f64 neural plans run the dense f64 kernels; the f32 plans
// ride the KernelsF32 table below.
#include "ml/compiled.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/parallel.h"
#include "ml/dense.h"
#include "ml/forest.h"
#include "ml/gmm.h"
#include "ml/kernel.h"
#include "ml/kitnet.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "ml/tree.h"

namespace lumen::ml::compiled {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kF64:
      return "f64";
    case Precision::kF32:
      return "f32";
  }
  return "?";
}

// --------------------------------------------------------- float32 kernels

namespace {

void packed_apply_f32_k(size_t m, size_t n_pad, size_t k, const float* x,
                        size_t ldx, const float* wt, const float* bias,
                        float* y, size_t ldy) {
  // Reference semantics: per element, bias + sequential-k accumulation —
  // batch-size independent, mirroring dense's scalar packed_apply.
  for (size_t i = 0; i < m; ++i) {
    const float* xi = x + i * ldx;
    float* yi = y + i * ldy;
    for (size_t o = 0; o < n_pad; ++o) yi[o] = bias[o];
    for (size_t l = 0; l < k; ++l) {
      const float xl = xi[l];
      const float* wrow = wt + l * n_pad;
      for (size_t o = 0; o < n_pad; ++o) yi[o] += xl * wrow[o];
    }
  }
}

void sigmoid_sweep_f32_k(size_t n, float* x) {
  for (size_t i = 0; i < n; ++i) x[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

}  // namespace

const KernelsF32& scalar_kernels_f32() {
  static const KernelsF32 k = {packed_apply_f32_k, sigmoid_sweep_f32_k};
  return k;
}

#ifdef LUMEN_DENSE_HAVE_AVX2
// Defined in compiled_avx2.cpp (the only TU built with -mavx2 -mfma).
const KernelsF32& avx2_kernels_f32_impl();
#endif

const KernelsF32* avx2_kernels_f32() {
#ifdef LUMEN_DENSE_HAVE_AVX2
  return dense::avx2_available() ? &avx2_kernels_f32_impl() : nullptr;
#else
  return nullptr;
#endif
}

const KernelsF32& active_kernels_f32() {
  if (dense::active_backend() == dense::Backend::kAvx2) {
    if (const KernelsF32* k = avx2_kernels_f32()) return *k;
  }
  return scalar_kernels_f32();
}

namespace {

constexpr size_t kNoGather = static_cast<size_t>(-1);

size_t pad_to(size_t n, size_t pad) { return (n + pad - 1) / pad * pad; }

// ------------------------------------------------------------ KitNET / AE
//
// One compiled autoencoder: gather indices, normalization constants, and
// the two packed weight panels, all as offsets into the owning plan's
// arena so the whole ensemble is a single contiguous, scoring-ordered
// block.
struct AeUnit {
  size_t in = 0, hidden = 0;
  size_t hp = 0, dp = 0;      // padded panel widths (hidden / in)
  size_t gather = kNoGather;  // offset into gather index table
  // Arena offsets, in scoring order.
  size_t nmin = 0, inv = 0, enc_wt = 0, enc_b = 0, dec_wt = 0, dec_b = 0;
};

/// Append `n` zeroed elements to the arena, returning their offset.
template <typename V>
size_t arena_alloc(V& arena, size_t n) {
  const size_t off = arena.size();
  arena.resize(off + n, typename V::value_type(0));
  return off;
}

/// Pack an `out x in` row-major weight matrix into the transposed
/// `in x out_pad` panel layout packed_apply reads (padding columns zero).
template <typename T>
void pack_panel(const double* w, size_t out, size_t in, size_t out_pad,
                T* dst) {
  for (size_t o = 0; o < out; ++o) {
    for (size_t l = 0; l < in; ++l) {
      dst[l * out_pad + o] = static_cast<T>(w[o * in + l]);
    }
  }
}

/// Compile one AutoEncoderCore into an arena of T, panels padded to `pad`
/// columns. `cluster` (null for a full-width unit) is the source columns
/// the unit gathers.
template <typename T>
AeUnit lower_ae(const AutoEncoderCore& ae, const std::vector<size_t>* cluster,
                size_t pad, std::vector<T>& arena,
                std::vector<uint32_t>& gather) {
  const AutoEncoderCore::ParamsView p = ae.params_view();
  AeUnit u;
  u.in = p.dim;
  u.hidden = p.hidden;
  u.hp = pad_to(p.hidden, pad);
  u.dp = pad_to(p.dim, pad);
  if (cluster != nullptr) {
    u.gather = gather.size();
    for (size_t c : *cluster) gather.push_back(static_cast<uint32_t>(c));
  }
  const auto put = [&](const double* src, size_t n, size_t len) {
    const size_t off = arena_alloc(arena, len);
    for (size_t i = 0; i < n; ++i) arena[off + i] = static_cast<T>(src[i]);
    return off;
  };
  u.nmin = put(p.norm_min, u.in, u.in);
  u.inv = arena_alloc(arena, u.in);
  for (size_t c = 0; c < u.in; ++c) {
    // Guarded reciprocal of the normalization range, hoisted out of the
    // score loop (the per-row reference divides by the range instead).
    const double range = p.norm_max[c] - p.norm_min[c];
    arena[u.inv + c] = range > 1e-12 ? static_cast<T>(1.0 / range) : T(0);
  }
  u.enc_wt = arena_alloc(arena, u.in * u.hp);
  pack_panel(p.w1, u.hidden, u.in, u.hp, arena.data() + u.enc_wt);
  u.enc_b = put(p.b1, u.hidden, u.hp);
  u.dec_wt = arena_alloc(arena, u.hidden * u.dp);
  pack_panel(p.w2, u.in, u.hidden, u.dp, arena.data() + u.dec_wt);
  u.dec_b = put(p.b2, u.in, u.dp);
  return u;
}

/// The arena a KitNET (ensemble + output AE) or a single autoencoder
/// lowers into, shared by both precisions.
template <typename T>
class NeuralPlan : public Plan {
 public:
  const char* kind() const override {
    return aes_.empty() ? "autoencoder" : "kitnet";
  }

 protected:
  NeuralPlan(const KitNet& net, size_t pad, double threshold) {
    threshold_ = threshold;
    const auto& clusters = net.clusters();
    for (const auto& cl : clusters) {
      for (size_t c : cl) dim_ = std::max(dim_, c + 1);
    }
    for (size_t k = 0; k < clusters.size(); ++k) {
      aes_.push_back(
          lower_ae(*net.ensemble_core(k), &clusters[k], pad, arena_, gather_));
    }
    output_ = lower_ae(*net.output_core(), nullptr, pad, arena_, gather_);
    weight_bytes_ =
        arena_.size() * sizeof(T) + gather_.size() * sizeof(uint32_t);
  }

  NeuralPlan(const AutoEncoderCore& ae, size_t pad, double threshold) {
    threshold_ = threshold;
    dim_ = ae.dim();
    output_ = lower_ae(ae, nullptr, pad, arena_, gather_);
    weight_bytes_ = arena_.size() * sizeof(T);
  }

  std::vector<T> arena_;
  std::vector<uint32_t> gather_;
  std::vector<AeUnit> aes_;  // empty for a single-AE plan
  AeUnit output_;
};

// The f64 KitNET/AE plan — the models' own inference path. Activations
// sweep each row over its true width, so row i's score does not depend on
// how rows are grouped into batches.
class KitnetPlanF64 final : public NeuralPlan<double> {
 public:
  template <typename Source>
  explicit KitnetPlanF64(const Source& src)
      : NeuralPlan(src, dense::kPackPad, 0.0) {}

  /// Set the carried threshold to the `quantile` of this plan's scores over
  /// rows `benign` of X; called once, before the plan is shared. The rows
  /// are gathered only when they are not the whole table.
  void calibrate(const FeatureTable& X, std::span<const size_t> benign,
                 double quantile) {
    threshold_ = quantile_threshold(
        benign.size() == X.rows ? score_table(*this, X)
                                : score_table(*this, X.select_rows(benign)),
        quantile);
  }

  void score_rows(const double* x, size_t m, size_t ldx, double* out,
                  Scratch& s) const override {
    if (aes_.empty()) {
      run_ae(output_, x, m, ldx, out, 1, s);
      return;
    }
    const size_t n_cl = aes_.size();
    s.d.resize(m * n_cl);
    for (size_t k = 0; k < n_cl; ++k) {
      run_ae(aes_[k], x, m, ldx, s.d.data() + k, n_cl, s);
    }
    run_ae(output_, s.d.data(), m, n_cl, out, 1, s);
  }

 private:
  /// Score the unit over the m x * source block; write the per-row RMSE to
  /// out[i * out_stride].
  void run_ae(const AeUnit& u, const double* src, size_t m, size_t lds,
              double* out, size_t out_stride, Scratch& s) const {
    const double* ar = arena_.data();
    const double* nmin = ar + u.nmin;
    const double* inv = ar + u.inv;
    s.a.resize(m * u.in);
    for (size_t i = 0; i < m; ++i) {
      const double* xi = src + i * lds;
      double* zi = s.a.data() + i * u.in;
      if (u.gather != kNoGather) {
        const uint32_t* g = gather_.data() + u.gather;
        for (size_t j = 0; j < u.in; ++j) {
          zi[j] = std::clamp((xi[g[j]] - nmin[j]) * inv[j], 0.0, 1.0);
        }
      } else {
        for (size_t j = 0; j < u.in; ++j) {
          zi[j] = std::clamp((xi[j] - nmin[j]) * inv[j], 0.0, 1.0);
        }
      }
    }
    s.b.resize(m * u.hp);
    dense::packed_apply(m, u.hp, u.in, s.a.data(), u.in, ar + u.enc_wt,
                        ar + u.enc_b, s.b.data(), u.hp);
    for (size_t i = 0; i < m; ++i) {
      dense::sigmoid_sweep(u.hidden, s.b.data() + i * u.hp);
    }
    s.c.resize(m * u.dp);
    dense::packed_apply(m, u.dp, u.hidden, s.b.data(), u.hp, ar + u.dec_wt,
                        ar + u.dec_b, s.c.data(), u.dp);
    for (size_t i = 0; i < m; ++i) {
      double* yi = s.c.data() + i * u.dp;
      dense::sigmoid_sweep(u.in, yi);
      const double* zi = s.a.data() + i * u.in;
      double mse = 0.0;
      for (size_t c = 0; c < u.in; ++c) {
        const double e = yi[c] - zi[c];
        mse += e * e;
      }
      out[i * out_stride] = std::sqrt(mse / static_cast<double>(u.in));
    }
  }
};

// The f32 KitNET/AE plan: identical structure in float, 8-lane panels.
class KitnetPlanF32 final : public NeuralPlan<float> {
 public:
  template <typename Source>
  KitnetPlanF32(const Source& src, double threshold)
      : NeuralPlan(src, kPackPadF32, threshold) {
    precision_ = Precision::kF32;
  }

  void score_rows(const double* x, size_t m, size_t ldx, double* out,
                  Scratch& s) const override {
    const KernelsF32& kf = active_kernels_f32();
    // One f64->f32 conversion of the source rows, shared by every cluster.
    s.fx.resize(m * dim_);
    for (size_t i = 0; i < m; ++i) {
      const double* xi = x + i * ldx;
      float* fi = s.fx.data() + i * dim_;
      for (size_t c = 0; c < dim_; ++c) fi[c] = static_cast<float>(xi[c]);
    }
    if (aes_.empty()) {
      run_ae(kf, output_, s.fx.data(), m, dim_, nullptr, 0, out, s);
      return;
    }
    const size_t n_cl = aes_.size();
    s.fd.resize(m * n_cl);
    for (size_t k = 0; k < n_cl; ++k) {
      run_ae(kf, aes_[k], s.fx.data(), m, dim_, s.fd.data() + k, n_cl,
             nullptr, s);
    }
    run_ae(kf, output_, s.fd.data(), m, n_cl, nullptr, 0, out, s);
  }

 private:
  /// fout (stride fstride) receives f32 RMSEs for ensemble units; out
  /// receives f64 scores for the output unit (exactly one is non-null).
  void run_ae(const KernelsF32& kf, const AeUnit& u, const float* src,
              size_t m, size_t lds, float* fout, size_t fstride, double* out,
              Scratch& s) const {
    const float* ar = arena_.data();
    const float* nmin = ar + u.nmin;
    const float* inv = ar + u.inv;
    s.fa.resize(m * u.in);
    for (size_t i = 0; i < m; ++i) {
      const float* xi = src + i * lds;
      float* zi = s.fa.data() + i * u.in;
      if (u.gather != kNoGather) {
        const uint32_t* g = gather_.data() + u.gather;
        for (size_t j = 0; j < u.in; ++j) {
          zi[j] = std::clamp((xi[g[j]] - nmin[j]) * inv[j], 0.0f, 1.0f);
        }
      } else {
        for (size_t j = 0; j < u.in; ++j) {
          zi[j] = std::clamp((xi[j] - nmin[j]) * inv[j], 0.0f, 1.0f);
        }
      }
    }
    // Sigmoid runs over the whole m x padded block in one sweep: rows are
    // contiguous at stride hp/dp, both multiples of the 8-lane pack width,
    // so every row lands on full SIMD chunks regardless of m (batch-size
    // invariance holds) and the padded lanes — never read downstream — cost
    // one wasted lane instead of a per-row kernel dispatch. The f64 plan
    // keeps the per-row sweep over the true width, as the per-row
    // reference does.
    s.fb.resize(m * u.hp);
    kf.packed_apply(m, u.hp, u.in, s.fa.data(), u.in, ar + u.enc_wt,
                    ar + u.enc_b, s.fb.data(), u.hp);
    kf.sigmoid_sweep(m * u.hp, s.fb.data());
    s.fc.resize(m * u.dp);
    kf.packed_apply(m, u.dp, u.hidden, s.fb.data(), u.hp, ar + u.dec_wt,
                    ar + u.dec_b, s.fc.data(), u.dp);
    kf.sigmoid_sweep(m * u.dp, s.fc.data());
    for (size_t i = 0; i < m; ++i) {
      float* yi = s.fc.data() + i * u.dp;
      const float* zi = s.fa.data() + i * u.in;
      float mse = 0.0f;
      for (size_t c = 0; c < u.in; ++c) {
        const float e = yi[c] - zi[c];
        mse += e * e;
      }
      const float rmse = std::sqrt(mse / static_cast<float>(u.in));
      if (fout != nullptr) {
        fout[i * fstride] = rmse;
      } else {
        out[i] = static_cast<double>(rmse);
      }
    }
  }
};

// ------------------------------------------------------------ Forest / Tree
//
// Flattened SoA node tables: feature / threshold / child-offset / leaf-value
// parallel arrays for every tree in one block. Leaves carry feature -1, so
// traversal descends until the loaded feature goes negative — it stops at
// the leaf's actual depth like the reference walk (a fixed max-depth bound
// pays the tree's worst case on every row) and takes the same
// `x[feat] <= thr` branches to the same leaf, bit-identical to predict_row.
class ForestPlan final : public Plan {
 public:
  ForestPlan(const std::vector<const DecisionTree*>& trees, bool single_tree,
             size_t dim) {
    single_tree_ = single_tree;
    dim_ = dim;
    threshold_ = 0.5;
    supervised_ = true;
    inv_ = trees.empty() ? 0.0 : 1.0 / static_cast<double>(trees.size());
    for (const DecisionTree* t : trees) {
      const int32_t base = static_cast<int32_t>(feat_.size());
      root_.push_back(base);
      const auto& nodes = t->nodes();
      if (nodes.empty()) {
        // An empty tree scores 0; represent it as a single zero leaf.
        feat_.push_back(-1);
        thr_.push_back(0.0);
        left_.push_back(base);
        right_.push_back(base);
        value_.push_back(0.0);
        continue;
      }
      for (const auto& nd : nodes) {
        if (nd.feature >= 0) {
          feat_.push_back(nd.feature);
          thr_.push_back(nd.threshold);
          left_.push_back(base + nd.left);
          right_.push_back(base + nd.right);
        } else {
          feat_.push_back(-1);
          thr_.push_back(0.0);
          left_.push_back(base);
          right_.push_back(base);
        }
        value_.push_back(nd.p_malicious);
      }
    }
    weight_bytes_ = feat_.size() * (sizeof(int32_t) * 3 + sizeof(double) * 2) +
                    root_.size() * sizeof(int32_t);
  }

  const char* kind() const override { return single_tree_ ? "tree" : "forest"; }

  void score_rows(const double* x, size_t m, size_t ldx, double* out,
                  Scratch&) const override {
    const int32_t* feat = feat_.data();
    const double* thr = thr_.data();
    const int32_t* left = left_.data();
    const int32_t* right = right_.data();
    const size_t n_trees = root_.size();
    for (size_t i = 0; i < m; ++i) {
      const double* xi = x + i * ldx;
      double acc = 0.0;
      for (size_t t = 0; t < n_trees; ++t) {
        int32_t id = root_[t];
        for (int32_t f = feat[id]; f >= 0; f = feat[id]) {
          id = xi[f] <= thr[id] ? left[id] : right[id];
        }
        acc += value_[static_cast<size_t>(id)];
      }
      out[i] = single_tree_ ? acc : acc * inv_;
    }
  }

 private:
  std::vector<int32_t> feat_, left_, right_, root_;
  std::vector<double> thr_, value_;
  double inv_ = 0.0;
  bool single_tree_ = false;
};

// ------------------------------------------------------------------- GMM
//
// The folded quadratic form copied into one arena; scoring replicates
// Gmm::score_block (two GEMMs + per-row logsumexp) in kScoreBlock chunks.
class GmmPlan final : public Plan {
 public:
  GmmPlan(const Gmm::FoldedView& v, double threshold) {
    dim_ = v.dim;
    k_ = v.k;
    threshold_ = threshold;
    w1_ = arena_alloc(arena_, v.k * v.dim);
    std::copy(v.w1, v.w1 + v.k * v.dim, arena_.begin() + w1_);
    w2_ = arena_alloc(arena_, v.k * v.dim);
    std::copy(v.w2, v.w2 + v.k * v.dim, arena_.begin() + w2_);
    cst_ = arena_alloc(arena_, v.k);
    std::copy(v.cst, v.cst + v.k, arena_.begin() + cst_);
    weight_bytes_ = arena_.size() * sizeof(double);
  }

  const char* kind() const override { return "gmm"; }

  void score_rows(const double* x, size_t m, size_t ldx, double* out,
                  Scratch& s) const override {
    for (size_t lo = 0; lo < m; lo += dense::kScoreBlock) {
      const size_t mb = std::min(dense::kScoreBlock, m - lo);
      block(x + lo * ldx, mb, ldx, out + lo, s);
    }
  }

 private:
  void block(const double* x, size_t m, size_t ldx, double* out,
             Scratch& s) const {
    s.a.resize(m * dim_);
    for (size_t i = 0; i < m; ++i) {
      const double* xi = x + i * ldx;
      double* qi = s.a.data() + i * dim_;
      for (size_t d = 0; d < dim_; ++d) qi[d] = xi[d] * xi[d];
    }
    s.b.resize(m * k_);
    dense::gemm_nt(m, k_, dim_, s.a.data(), dim_, arena_.data() + w1_, dim_,
                   arena_.data() + cst_, 0.0, s.b.data(), k_);
    dense::gemm_nt(m, k_, dim_, x, ldx, arena_.data() + w2_, dim_, nullptr,
                   1.0, s.b.data(), k_);
    for (size_t i = 0; i < m; ++i) {
      const double* li = s.b.data() + i * k_;
      double maxl = -std::numeric_limits<double>::max();
      for (size_t c = 0; c < k_; ++c) maxl = std::max(maxl, li[c]);
      double denom = 0.0;
      for (size_t c = 0; c < k_; ++c) denom += std::exp(li[c] - maxl);
      out[i] = -(maxl + std::log(denom));
    }
  }

  std::vector<double> arena_;
  size_t k_ = 0;
  size_t w1_ = 0, w2_ = 0, cst_ = 0;
};

// ------------------------------------------------------------------ OCSVM
//
// Compact support panel (vectors, alphas, norms) in one arena; scoring
// replicates OneClassSvm::score's blocked sq_dist_batch + exp + GEMV.
class OcsvmPlan final : public Plan {
 public:
  OcsvmPlan(const OneClassSvm::SupportView& v, double threshold) {
    dim_ = v.dim;
    n_sv_ = v.n_sv;
    gamma_ = v.gamma;
    rho_ = v.rho;
    threshold_ = threshold;
    svx_ = arena_alloc(arena_, v.n_sv * v.dim);
    std::copy(v.sv_x, v.sv_x + v.n_sv * v.dim, arena_.begin() + svx_);
    alpha_ = arena_alloc(arena_, v.n_sv);
    std::copy(v.sv_alpha, v.sv_alpha + v.n_sv, arena_.begin() + alpha_);
    norms_ = arena_alloc(arena_, v.n_sv);
    std::copy(v.sv_norms, v.sv_norms + v.n_sv, arena_.begin() + norms_);
    weight_bytes_ = arena_.size() * sizeof(double);
  }

  const char* kind() const override { return "ocsvm"; }

  void score_rows(const double* x, size_t m, size_t ldx, double* out,
                  Scratch& s) const override {
    for (size_t lo = 0; lo < m; lo += dense::kScoreBlock) {
      const size_t mb = std::min(dense::kScoreBlock, m - lo);
      block(x + lo * ldx, mb, ldx, out + lo, s);
    }
  }

 private:
  void block(const double* x, size_t m, size_t ldx, double* out,
             Scratch& s) const {
    s.a.resize(m * n_sv_);
    dense::sq_dist_batch(m, n_sv_, dim_, x, ldx, arena_.data() + svx_, dim_,
                         /*xn=*/nullptr, arena_.data() + norms_, s.a.data(),
                         n_sv_);
    double* kmat = s.a.data();
    for (size_t i = 0; i < m * n_sv_; ++i) kmat[i] *= -gamma_;
    dense::exp_sweep(m * n_sv_, kmat);
    dense::gemv(m, n_sv_, kmat, n_sv_, arena_.data() + alpha_, nullptr, out);
    for (size_t i = 0; i < m; ++i) out[i] = rho_ - out[i];
  }

  std::vector<double> arena_;
  size_t n_sv_ = 0;
  size_t svx_ = 0, alpha_ = 0, norms_ = 0;
  double gamma_ = 0.0, rho_ = 0.0;
};

// ------------------------------------------------------------- linear family
//
// The standardizer folded into an effective hyperplane at compile time
// (exactly the per-call fold the batched reference does), one GEMV at score
// time plus the family's margin squash.
class LinearPlan final : public Plan {
 public:
  enum class Squash { kNone, kSigmoid, kSigmoid2x };

  /// Standardized family (LinearSvm / LogisticRegression).
  LinearPlan(const LinearModel::WeightsView& v, Squash squash) {
    dim_ = v.dim;
    squash_ = squash;
    threshold_ = 0.5;
    supervised_ = true;
    w_ = arena_alloc(arena_, v.dim);
    for (size_t c = 0; c < v.dim; ++c) {
      arena_[w_ + c] = v.w[c] * v.inv_sd[c];
    }
    b_ = v.b - dense::dot(v.dim, arena_.data() + w_, v.mean);
    weight_bytes_ = arena_.size() * sizeof(double);
  }

  /// Linear one-class SVM: out = rho - w.x, no squash, no standardizer.
  LinearPlan(const LinearOneClassSvm::PlaneView& v, double threshold) {
    dim_ = v.dim;
    squash_ = Squash::kNone;
    negate_ = true;
    threshold_ = threshold;
    w_ = arena_alloc(arena_, v.dim);
    std::copy(v.w, v.w + v.dim, arena_.begin() + w_);
    b_ = v.rho;
    weight_bytes_ = arena_.size() * sizeof(double);
  }

  const char* kind() const override {
    return negate_ ? "linear_ocsvm" : "linear";
  }

  void score_rows(const double* x, size_t m, size_t ldx, double* out,
                  Scratch&) const override {
    dense::gemv(m, dim_, x, ldx, arena_.data() + w_, nullptr, out);
    if (negate_) {
      for (size_t i = 0; i < m; ++i) out[i] = b_ - out[i];
      return;
    }
    switch (squash_) {
      case Squash::kNone:
        for (size_t i = 0; i < m; ++i) out[i] += b_;
        break;
      case Squash::kSigmoid:
        for (size_t i = 0; i < m; ++i) {
          out[i] = 1.0 / (1.0 + std::exp(-(out[i] + b_)));
        }
        break;
      case Squash::kSigmoid2x:
        for (size_t i = 0; i < m; ++i) {
          out[i] = 1.0 / (1.0 + std::exp(-2.0 * (out[i] + b_)));
        }
        break;
    }
  }

 private:
  std::vector<double> arena_;
  size_t w_ = 0;
  double b_ = 0.0;
  Squash squash_ = Squash::kNone;
  bool negate_ = false;
};

// -------------------------------------------------------------------- kNN
//
// Compacted training matrix + labels + the fit-time squared row norms;
// scoring is the shared GEMM-expansion scan (the norms are copied from the
// model, so results are bit-identical to Knn::score).
class KnnPlan final : public Plan {
 public:
  KnnPlan(const FeatureTable& train, const std::vector<double>& sqnorm,
          size_t k) {
    dim_ = train.cols;
    n_train_ = train.rows;
    k_ = std::min(k, train.rows);
    threshold_ = 0.5;
    supervised_ = true;
    data_ = train.data;
    labels_ = train.labels;
    sqnorm_ = sqnorm;
    weight_bytes_ = (data_.size() + sqnorm_.size()) * sizeof(double) +
                    labels_.size() * sizeof(int);
  }

  const char* kind() const override { return "knn"; }

  void score_rows(const double* x, size_t m, size_t ldx, double* out,
                  Scratch& s) const override {
    knn_score_rows_batched(x, m, ldx, data_.data(), n_train_, dim_,
                           labels_.data(), sqnorm_.data(), k_, out, s.a,
                           s.nn);
  }

 private:
  std::vector<double> data_;
  std::vector<double> sqnorm_;  // ||t||^2 per training row
  std::vector<int> labels_;
  size_t n_train_ = 0, k_ = 0;
};

// ---------------------------------------------------------------- adapter

class PlanModel final : public Model {
 public:
  PlanModel(PlanPtr plan, std::string name)
      : plan_(std::move(plan)), name_(std::move(name)) {}

  void fit(const FeatureTable&) override {
    // Compiled plans are immutable artifacts; refit the source model and
    // recompile instead.
  }

  std::vector<double> score(const FeatureTable& X) const override {
    return score_table(*plan_, X);
  }

  std::vector<int> predict(const FeatureTable& X) const override {
    return threshold_predict(score(X), plan_->threshold());
  }

  std::string name() const override { return name_; }
  bool is_supervised() const override { return plan_->supervised(); }

 private:
  PlanPtr plan_;
  std::string name_;
};

Error err(const std::string& what) { return Error::make("compile", what); }

}  // namespace

// ------------------------------------------------------------ entry points

std::vector<double> score_table(const Plan& plan, const FeatureTable& X) {
  std::vector<double> out(X.rows, 0.0);
  // dim() is the minimum row width the plan reads (for tree plans it is
  // the highest feature any split references + 1, which can be narrower
  // than the training table); wider rows are fine — ldx carries X.cols.
  if (X.cols < plan.dim()) return out;
  const size_t nblocks =
      (X.rows + dense::kScoreBlock - 1) / dense::kScoreBlock;
  parallel_for(
      0, nblocks,
      [&](size_t blk) {
        const size_t lo = blk * dense::kScoreBlock;
        const size_t hi = std::min(X.rows, lo + dense::kScoreBlock);
        thread_local Scratch scratch;
        plan.score_rows(X.data.data() + lo * X.cols, hi - lo, X.cols,
                        out.data() + lo, scratch);
      },
      /*min_parallel=*/2);
  return out;
}

PlanPtr calibrate_kitnet(const KitNet& net, const FeatureTable& X,
                         std::span<const size_t> benign, double quantile) {
  auto plan = std::make_shared<KitnetPlanF64>(net);
  plan->calibrate(X, benign, quantile);
  return plan;
}

PlanPtr calibrate_autoencoder(const AutoEncoderCore& ae,
                              const FeatureTable& X,
                              std::span<const size_t> benign,
                              double quantile) {
  auto plan = std::make_shared<KitnetPlanF64>(ae);
  plan->calibrate(X, benign, quantile);
  return plan;
}

Result<PlanPtr> compile_kitnet(const KitNet& net, const Options& opts) {
  if (net.plan() == nullptr) return err("KitNet is not fitted");
  if (opts.precision == Precision::kF32) {
    return PlanPtr(std::make_shared<KitnetPlanF32>(net, net.threshold()));
  }
  return net.plan();
}

Result<PlanPtr> compile_autoencoder(const AutoEncoderDetector& ae,
                                    const Options& opts) {
  if (ae.plan() == nullptr) return err("AutoEncoder is not fitted");
  if (opts.precision == Precision::kF32) {
    return PlanPtr(std::make_shared<KitnetPlanF32>(*ae.core(), ae.threshold()));
  }
  return ae.plan();
}

Result<PlanPtr> compile(const Model& model, const Options& opts) {
  if (const auto* kit = dynamic_cast<const KitNet*>(&model)) {
    return compile_kitnet(*kit, opts);
  }
  if (const auto* aed = dynamic_cast<const AutoEncoderDetector*>(&model)) {
    return compile_autoencoder(*aed, opts);
  }
  if (const auto* rf = dynamic_cast<const RandomForest*>(&model)) {
    if (rf->trees().empty()) return err("RandomForest is not fitted");
    std::vector<const DecisionTree*> trees;
    size_t dim = 1;
    for (const auto& t : rf->trees()) {
      trees.push_back(&t);
      for (const auto& nd : t.nodes()) {
        if (nd.feature >= 0) {
          dim = std::max(dim, static_cast<size_t>(nd.feature) + 1);
        }
      }
    }
    return PlanPtr(std::make_shared<ForestPlan>(trees, false, dim));
  }
  if (const auto* dt = dynamic_cast<const DecisionTree*>(&model)) {
    if (dt->nodes().empty()) return err("DecisionTree is not fitted");
    std::vector<const DecisionTree*> trees = {dt};
    size_t dim = 1;
    for (const auto& nd : dt->nodes()) {
      if (nd.feature >= 0) {
        dim = std::max(dim, static_cast<size_t>(nd.feature) + 1);
      }
    }
    return PlanPtr(std::make_shared<ForestPlan>(trees, true, dim));
  }
  if (const auto* gmm = dynamic_cast<const Gmm*>(&model)) {
    const Gmm::FoldedView v = gmm->folded_view();
    if (v.w1 == nullptr) return err("GMM is not fitted");
    return PlanPtr(std::make_shared<GmmPlan>(v, gmm->threshold()));
  }
  if (const auto* svm = dynamic_cast<const OneClassSvm*>(&model)) {
    const OneClassSvm::SupportView v = svm->support_view();
    if (v.sv_x == nullptr) return err("OneClassSVM is not fitted");
    return PlanPtr(std::make_shared<OcsvmPlan>(v, svm->threshold()));
  }
  if (const auto* losvm = dynamic_cast<const LinearOneClassSvm*>(&model)) {
    const LinearOneClassSvm::PlaneView v = losvm->plane_view();
    if (v.w == nullptr) return err("LinearOCSVM is not fitted");
    return PlanPtr(std::make_shared<LinearPlan>(v, losvm->threshold()));
  }
  if (const auto* lin = dynamic_cast<const LinearModel*>(&model)) {
    const LinearModel::WeightsView v = lin->weights_view();
    if (v.w == nullptr) return err("linear model is not fitted");
    const bool logistic =
        dynamic_cast<const LogisticRegression*>(&model) != nullptr;
    return PlanPtr(std::make_shared<LinearPlan>(
        v, logistic ? LinearPlan::Squash::kSigmoid
                    : LinearPlan::Squash::kSigmoid2x));
  }
  if (const auto* knn = dynamic_cast<const Knn*>(&model)) {
    const Knn::TrainView v = knn->train_view();
    if (v.train == nullptr) return err("kNN is not fitted");
    return PlanPtr(std::make_shared<KnnPlan>(*v.train, *v.sqnorm, v.k));
  }
  return err("no compiled form for model '" + model.name() + "'");
}

ModelPtr wrap(PlanPtr plan, std::string display_name) {
  return std::make_shared<PlanModel>(std::move(plan),
                                     std::move(display_name));
}

}  // namespace lumen::ml::compiled
