// Compiled inference plans — see compiled.h for the layout and equivalence
// contracts. The plans run the dense f64 kernels.
#include "ml/compiled.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "ml/dense.h"
#include "ml/kitnet.h"
#include "ml/mlp.h"

namespace lumen::ml::compiled {

namespace {

size_t pad_to(size_t n, size_t pad) { return (n + pad - 1) / pad * pad; }

}  // namespace

// ------------------------------------------------------------ lowering

Plan::Plan(const KitNet& net) {
  const auto& clusters = net.clusters();
  for (const auto& cl : clusters) {
    for (size_t c : cl) dim_ = std::max(dim_, c + 1);
  }
  for (size_t k = 0; k < clusters.size(); ++k) {
    ensemble_.push_back(lower(*net.ensemble_core(k), &clusters[k]));
  }
  output_ = lower(*net.output_core(), nullptr);
}

Plan::Plan(const AutoEncoderCore& ae) {
  dim_ = ae.dim();
  output_ = lower(ae, nullptr);
}

/// Append `n` zeroed elements to the arena, returning their offset.
size_t Plan::alloc(size_t n) {
  const size_t off = arena_.size();
  arena_.resize(off + n, 0.0);
  return off;
}

/// Compile one AutoEncoderCore into the arena, panels padded to
/// dense::kPackPad columns. `cluster` (null for a full-width unit) is the
/// source columns the unit gathers.
Plan::Unit Plan::lower(const AutoEncoderCore& ae,
                       const std::vector<size_t>* cluster) {
  const AutoEncoderCore::ParamsView p = ae.params_view();
  Unit u;
  u.in = p.dim;
  u.hidden = p.hidden;
  u.hp = pad_to(p.hidden, dense::kPackPad);
  u.dp = pad_to(p.dim, dense::kPackPad);
  if (cluster != nullptr) {
    u.gather = gather_.size();
    for (size_t c : *cluster) gather_.push_back(static_cast<uint32_t>(c));
  }
  const auto put = [&](const double* src, size_t n, size_t len) {
    const size_t off = alloc(len);
    std::copy(src, src + n, arena_.begin() + static_cast<std::ptrdiff_t>(off));
    return off;
  };
  // Pack an `out x in` row-major weight matrix into the transposed
  // `in x out_pad` panel layout packed_apply reads (padding columns zero).
  const auto pack = [&](const double* w, size_t out, size_t in,
                        size_t out_pad) {
    const size_t off = alloc(in * out_pad);
    for (size_t o = 0; o < out; ++o) {
      for (size_t l = 0; l < in; ++l) {
        arena_[off + l * out_pad + o] = w[o * in + l];
      }
    }
    return off;
  };
  u.nmin = put(p.norm_min, u.in, u.in);
  u.inv = alloc(u.in);
  for (size_t c = 0; c < u.in; ++c) {
    // Guarded reciprocal of the normalization range, hoisted out of the
    // score loop (the per-row reference divides by the range instead).
    const double range = p.norm_max[c] - p.norm_min[c];
    arena_[u.inv + c] = range > 1e-12 ? 1.0 / range : 0.0;
  }
  u.enc_wt = pack(p.w1, u.hidden, u.in, u.hp);
  u.enc_b = put(p.b1, u.hidden, u.hp);
  u.dec_wt = pack(p.w2, u.in, u.hidden, u.dp);
  u.dec_b = put(p.b2, u.in, u.dp);
  return u;
}

/// Set the threshold to the `quantile` of this plan's scores over rows
/// `benign` of X; called once, before the plan is shared. The rows are
/// gathered only when they are not the whole table.
void Plan::calibrate(const FeatureTable& X, std::span<const size_t> benign,
                     double quantile) {
  threshold_ = quantile_threshold(
      benign.size() == X.rows ? score_table(*this, X)
                              : score_table(*this, X.select_rows(benign)),
      quantile);
}

// ------------------------------------------------------------- scoring
//
// Activations sweep each row over its true width, so row i's score does not
// depend on how rows are grouped into batches.

void Plan::score_rows(const double* x, size_t m, size_t ldx, double* out,
                      Scratch& s) const {
  if (ensemble_.empty()) {
    run_unit(output_, x, m, ldx, out, 1, s);
    return;
  }
  const size_t n_cl = ensemble_.size();
  s.d.resize(m * n_cl);
  for (size_t k = 0; k < n_cl; ++k) {
    run_unit(ensemble_[k], x, m, ldx, s.d.data() + k, n_cl, s);
  }
  run_unit(output_, s.d.data(), m, n_cl, out, 1, s);
}

/// Score the unit over the m x * source block; write the per-row RMSE to
/// out[i * out_stride].
void Plan::run_unit(const Unit& u, const double* src, size_t m, size_t lds,
                    double* out, size_t out_stride, Scratch& s) const {
  const double* ar = arena_.data();
  const double* nmin = ar + u.nmin;
  const double* inv = ar + u.inv;
  s.a.resize(m * u.in);
  for (size_t i = 0; i < m; ++i) {
    const double* xi = src + i * lds;
    double* zi = s.a.data() + i * u.in;
    if (u.gather != SIZE_MAX) {
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

// ------------------------------------------------------------ entry points

std::vector<double> score_table(const Plan& plan, const FeatureTable& X) {
  std::vector<double> out(X.rows, 0.0);
  // dim() is the minimum row width the plan reads; wider rows are fine —
  // ldx carries X.cols.
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
  std::shared_ptr<Plan> plan(new Plan(net));
  plan->calibrate(X, benign, quantile);
  return plan;
}

PlanPtr calibrate_autoencoder(const AutoEncoderCore& ae,
                              const FeatureTable& X,
                              std::span<const size_t> benign,
                              double quantile) {
  std::shared_ptr<Plan> plan(new Plan(ae));
  plan->calibrate(X, benign, quantile);
  return plan;
}

}  // namespace lumen::ml::compiled
