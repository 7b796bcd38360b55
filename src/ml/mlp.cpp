#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "features/stats.h"
#include "ml/dense.h"

namespace lumen::ml {

namespace {
double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

// ----------------------------------------------------------------- Mlp

void Mlp::fit_standardizer(const FeatureTable& X) {
  mean_.assign(X.cols, 0.0);
  inv_sd_.assign(X.cols, 1.0);
  for (size_t c = 0; c < X.cols; ++c) {
    features::RunningStats rs;
    for (size_t r = 0; r < X.rows; ++r) rs.add(X.at(r, c));
    mean_[c] = rs.mean();
    const double sd = rs.stddev();
    inv_sd_[c] = sd > 1e-12 ? 1.0 / sd : 1.0;
  }
}

std::vector<double> Mlp::standardized(std::span<const double> x) const {
  std::vector<double> z(x.size());
  for (size_t c = 0; c < x.size(); ++c) z[c] = (x[c] - mean_[c]) * inv_sd_[c];
  return z;
}

void Mlp::standardize_block(const FeatureTable& X, size_t lo, size_t hi,
                            double* z) const {
  for (size_t r = lo; r < hi; ++r) {
    const auto x = X.row(r);
    double* zr = z + (r - lo) * X.cols;
    for (size_t c = 0; c < X.cols; ++c) zr[c] = (x[c] - mean_[c]) * inv_sd_[c];
  }
}

// Pre-PR row-at-a-time forward; kept as the reference scorer.
double Mlp::forward(std::span<const double> x,
                    std::vector<std::vector<double>>* acts) const {
  std::vector<double> cur(x.begin(), x.end());
  if (acts != nullptr) acts->push_back(cur);
  for (size_t li = 0; li < layers_.size(); ++li) {
    const Layer& L = layers_[li];
    std::vector<double> next(L.out, 0.0);
    const bool last = li + 1 == layers_.size();
    for (size_t o = 0; o < L.out; ++o) {
      double s = L.b[o];
      for (size_t i = 0; i < L.in; ++i) s += L.w[o * L.in + i] * cur[i];
      next[o] = last ? sigmoid(s) : std::max(0.0, s);  // ReLU hidden
    }
    cur = std::move(next);
    if (acts != nullptr) acts->push_back(cur);
  }
  return cur.empty() ? 0.0 : cur[0];
}

void Mlp::train_batch(const FeatureTable& X, const std::vector<size_t>& order,
                      size_t lo, size_t hi, double lr, double w_pos,
                      double w_neg, std::vector<std::vector<double>>& acts,
                      std::vector<double>& delta,
                      std::vector<double>& delta_prev) {
  const size_t B = hi - lo;
  // acts[l] is the B x dims[l] activation matrix entering layer l;
  // acts[L] is the B x 1 sigmoid output.
  acts[0].resize(B * X.cols);
  for (size_t b = 0; b < B; ++b) {
    const auto x = X.row(order[lo + b]);
    double* z = acts[0].data() + b * X.cols;
    for (size_t c = 0; c < X.cols; ++c) z[c] = (x[c] - mean_[c]) * inv_sd_[c];
  }
  const size_t L = layers_.size();
  for (size_t li = 0; li < L; ++li) {
    const Layer& lay = layers_[li];
    acts[li + 1].resize(B * lay.out);
    dense::gemm_nt(B, lay.out, lay.in, acts[li].data(), lay.in, lay.w.data(),
                   lay.in, lay.b.data(), 0.0, acts[li + 1].data(), lay.out);
    if (li + 1 == L) {
      dense::sigmoid_sweep(B * lay.out, acts[li + 1].data());
    } else {
      dense::relu_sweep(B * lay.out, acts[li + 1].data());
    }
  }

  // Output delta for sigmoid + cross-entropy: class_weight * (p - target).
  delta.resize(B);
  for (size_t b = 0; b < B; ++b) {
    const int label = X.labels[order[lo + b]];
    const double target = label != 0 ? 1.0 : 0.0;
    const double cw = label != 0 ? w_pos : w_neg;
    delta[b] = cw * (acts[L][b] - target);
  }

  for (size_t li = L; li-- > 0;) {
    Layer& lay = layers_[li];
    // Backprop to the previous activation with the pre-update weights,
    // then apply the summed minibatch gradient.
    if (li > 0) {
      delta_prev.resize(B * lay.in);
      dense::gemm_nn(B, lay.in, lay.out, delta.data(), lay.out, lay.w.data(),
                     lay.in, 0.0, delta_prev.data(), lay.in);
      const std::vector<double>& a_in = acts[li];  // ReLU outputs
      for (size_t i = 0; i < B * lay.in; ++i) {
        if (a_in[i] <= 0.0) delta_prev[i] = 0.0;
      }
    }
    dense::gemm_tn(lay.out, lay.in, B, -lr, delta.data(), lay.out,
                   acts[li].data(), lay.in, lay.w.data(), lay.in);
    for (size_t b = 0; b < B; ++b) {
      const double* db = delta.data() + b * lay.out;
      for (size_t o = 0; o < lay.out; ++o) lay.b[o] -= lr * db[o];
    }
    if (li > 0) delta.swap(delta_prev);
  }
}

void Mlp::fit(const FeatureTable& X) {
  fit_standardizer(X);
  layers_.clear();
  Rng rng(cfg_.seed);
  size_t in_dim = X.cols;
  std::vector<size_t> dims = cfg_.hidden;
  dims.push_back(1);  // sigmoid output unit
  for (size_t d : dims) {
    Layer L;
    L.in = in_dim;
    L.out = d;
    L.w.resize(L.out * L.in);
    L.b.assign(L.out, 0.0);
    const double bound = 1.0 / std::sqrt(static_cast<double>(L.in));
    for (double& w : L.w) w = rng.uniform(-bound, bound);
    layers_.push_back(std::move(L));
    in_dim = d;
  }
  if (X.rows == 0) return;

  // Class-balanced sample weights.
  size_t n_pos = 0;
  for (int y : X.labels) n_pos += (y != 0);
  const size_t n_neg = X.rows - n_pos;
  const double w_pos = n_pos > 0 ? static_cast<double>(X.rows) / (2.0 * n_pos) : 1.0;
  const double w_neg = n_neg > 0 ? static_cast<double>(X.rows) / (2.0 * n_neg) : 1.0;

  std::vector<size_t> order(X.rows);
  std::iota(order.begin(), order.end(), 0);

  const size_t batch = std::max<size_t>(1, cfg_.batch);
  std::vector<std::vector<double>> acts(layers_.size() + 1);
  std::vector<double> delta, delta_prev;
  for (size_t e = 0; e < cfg_.epochs; ++e) {
    rng.shuffle(order);
    const double lr = cfg_.lr / (1.0 + 0.1 * static_cast<double>(e));
    for (size_t lo = 0; lo < X.rows; lo += batch) {
      const size_t hi = std::min(X.rows, lo + batch);
      train_batch(X, order, lo, hi, lr, w_pos, w_neg, acts, delta,
                  delta_prev);
    }
  }
}

std::vector<double> Mlp::score(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  if (layers_.empty()) return out;
  const size_t nblocks =
      (X.rows + dense::kScoreBlock - 1) / dense::kScoreBlock;
  parallel_for(
      0, nblocks,
      [&](size_t blk) {
        const size_t lo = blk * dense::kScoreBlock;
        const size_t hi = std::min(X.rows, lo + dense::kScoreBlock);
        const size_t m = hi - lo;
        thread_local std::vector<double> a, b;
        a.resize(m * X.cols);
        standardize_block(X, lo, hi, a.data());
        std::vector<double>* cur = &a;
        std::vector<double>* nxt = &b;
        for (size_t li = 0; li < layers_.size(); ++li) {
          const Layer& L = layers_[li];
          nxt->resize(m * L.out);
          dense::gemm_nt(m, L.out, L.in, cur->data(), L.in, L.w.data(), L.in,
                         L.b.data(), 0.0, nxt->data(), L.out);
          if (li + 1 == layers_.size()) {
            dense::sigmoid_sweep(m * L.out, nxt->data());
          } else {
            dense::relu_sweep(m * L.out, nxt->data());
          }
          std::swap(cur, nxt);
        }
        for (size_t b2 = 0; b2 < m; ++b2) out[lo + b2] = (*cur)[b2];
      },
      /*min_parallel=*/2);
  return out;
}

std::vector<double> Mlp::score_perrow(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  parallel_for(
      0, X.rows,
      [&](size_t r) { out[r] = forward(standardized(X.row(r)), nullptr); },
      /*min_parallel=*/64);
  return out;
}

// ------------------------------------------------------- AutoEncoderCore

AutoEncoderCore::AutoEncoderCore(size_t dim, double hidden_ratio, double lr,
                                 uint64_t seed)
    : dim_(dim),
      hidden_(std::max<size_t>(
          1, static_cast<size_t>(std::ceil(hidden_ratio * static_cast<double>(dim))))),
      lr_(lr) {
  Rng rng(seed);
  const double bound = 1.0 / std::sqrt(static_cast<double>(std::max<size_t>(dim_, 1)));
  w1_.resize(hidden_ * dim_);
  b1_.assign(hidden_, 0.0);
  w2_.resize(dim_ * hidden_);
  b2_.assign(dim_, 0.0);
  for (double& w : w1_) w = rng.uniform(-bound, bound);
  for (double& w : w2_) w = rng.uniform(-bound, bound);
  norm_min_.assign(dim_, 0.0);
  norm_max_.assign(dim_, 1.0);
}

void AutoEncoderCore::update_norm(std::span<const double> x) {
  if (!norm_init_) {
    for (size_t i = 0; i < dim_; ++i) {
      norm_min_[i] = x[i];
      norm_max_[i] = x[i];
    }
    norm_init_ = true;
    return;
  }
  for (size_t i = 0; i < dim_; ++i) {
    norm_min_[i] = std::min(norm_min_[i], x[i]);
    norm_max_[i] = std::max(norm_max_[i], x[i]);
  }
}

void AutoEncoderCore::normalize_into(std::span<const double> x,
                                     std::vector<double>& z) const {
  z.resize(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    const double range = norm_max_[i] - norm_min_[i];
    z[i] = range > 1e-12 ? (x[i] - norm_min_[i]) / range : 0.0;
    z[i] = std::clamp(z[i], 0.0, 1.0);
  }
}

double AutoEncoderCore::train_sample(std::span<const double> x) {
  update_norm(x);
  normalize_into(x, tz_);
  const std::vector<double>& z = tz_;

  // Forward: two GEMVs with fused sigmoid sweeps.
  th_.resize(hidden_);
  dense::gemv(hidden_, dim_, w1_.data(), dim_, z.data(), b1_.data(),
              th_.data());
  dense::sigmoid_sweep(hidden_, th_.data());
  ty_.resize(dim_);
  dense::gemv(dim_, hidden_, w2_.data(), hidden_, th_.data(), b2_.data(),
              ty_.data());
  dense::sigmoid_sweep(dim_, ty_.data());

  double mse = 0.0;
  for (size_t i = 0; i < dim_; ++i) {
    const double e = ty_[i] - z[i];
    mse += e * e;
  }
  const double rmse = std::sqrt(mse / static_cast<double>(dim_));

  // Backprop (MSE, sigmoid everywhere). dh must use the pre-update w2.
  tdy_.resize(dim_);
  for (size_t o = 0; o < dim_; ++o) {
    tdy_[o] = (ty_[o] - z[o]) * ty_[o] * (1.0 - ty_[o]);
  }
  tdh_.resize(hidden_);
  dense::gemv_t(dim_, hidden_, w2_.data(), hidden_, tdy_.data(), tdh_.data());
  dense::ger(dim_, hidden_, -lr_, tdy_.data(), th_.data(), w2_.data(),
             hidden_);
  dense::axpy(dim_, -lr_, tdy_.data(), b2_.data());

  tdv_.resize(hidden_);
  for (size_t o = 0; o < hidden_; ++o) {
    tdv_[o] = tdh_[o] * th_[o] * (1.0 - th_[o]);
  }
  dense::ger(hidden_, dim_, -lr_, tdv_.data(), z.data(), w1_.data(), dim_);
  dense::axpy(hidden_, -lr_, tdv_.data(), b1_.data());
  return rmse;
}

double AutoEncoderCore::score_sample(std::span<const double> x) const {
  ScoreScratch scratch;
  return score_sample(x, scratch);
}

double AutoEncoderCore::score_sample(std::span<const double> x,
                                     ScoreScratch& scratch) const {
  normalize_into(x, scratch.z);
  const std::vector<double>& z = scratch.z;
  scratch.h.resize(hidden_);
  std::vector<double>& h = scratch.h;
  dense::gemv(hidden_, dim_, w1_.data(), dim_, z.data(), b1_.data(), h.data());
  dense::sigmoid_sweep(hidden_, h.data());
  double mse = 0.0;
  for (size_t o = 0; o < dim_; ++o) {
    const double s =
        sigmoid(b2_[o] + dense::dot(hidden_, w2_.data() + o * hidden_, h.data()));
    const double e = s - z[o];
    mse += e * e;
  }
  return std::sqrt(mse / static_cast<double>(dim_));
}

// --------------------------------------------------- AutoEncoderDetector

void AutoEncoderDetector::fit(const FeatureTable& X) {
  ae_ = std::make_unique<AutoEncoderCore>(X.cols, cfg_.hidden_ratio, cfg_.lr,
                                          cfg_.seed);
  const std::vector<size_t> rows = benign_rows(X);
  for (size_t e = 0; e < cfg_.epochs; ++e) {
    for (size_t r : rows) ae_->train_sample(X.row(r));
  }
  // Lower the trained core into the f64 plan score() runs, and calibrate
  // the threshold on the plan's scores over the benign rows.
  plan_ = compiled::calibrate_autoencoder(*ae_, X, rows, cfg_.quantile);
}

std::vector<double> AutoEncoderDetector::score(const FeatureTable& X) const {
  if (!plan_) return std::vector<double>(X.rows, 0.0);
  return compiled::score_table(*plan_, X);
}

std::vector<double> AutoEncoderDetector::score_perrow(
    const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  if (!ae_) return out;
  parallel_for(
      0, X.rows, [&](size_t r) { out[r] = ae_->score_sample(X.row(r)); },
      /*min_parallel=*/64);
  return out;
}

}  // namespace lumen::ml
