#include "ml/kernel.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "features/stats.h"
#include "ml/dense.h"

namespace lumen::ml {

namespace {

/// In-place k[i] = exp(-gamma * k[i]) over a buffer of squared distances.
void rbf_from_sq_dists(size_t n, double gamma, double* k) {
  for (size_t i = 0; i < n; ++i) k[i] *= -gamma;
  dense::exp_sweep(n, k);
}

}  // namespace

double rbf_kernel(std::span<const double> x, std::span<const double> y,
                  double gamma) {
  double d = 0.0;
  const size_t n = std::min(x.size(), y.size());
  for (size_t i = 0; i < n; ++i) {
    const double diff = x[i] - y[i];
    d += diff * diff;
  }
  return std::exp(-gamma * d);
}

double median_heuristic_gamma(const FeatureTable& X, size_t sample,
                              uint64_t seed) {
  if (X.rows < 2) return 1.0;
  Rng rng(seed);
  const size_t n = std::min(sample, X.rows);
  std::vector<size_t> idx(X.rows);
  std::iota(idx.begin(), idx.end(), 0);
  rng.shuffle(idx);
  idx.resize(n);
  // Gather the sample contiguously, then take each row's distances to all
  // later rows in one sq_dist call.
  std::vector<double> rows(n * X.cols);
  for (size_t i = 0; i < n; ++i) {
    const auto r = X.row(idx[i]);
    std::copy(r.begin(), r.end(), rows.begin() + i * X.cols);
  }
  std::vector<double> dists(n * (n - 1) / 2);
  size_t off = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    dense::sq_dist(n - i - 1, X.cols, rows.data() + i * X.cols,
                   rows.data() + (i + 1) * X.cols, X.cols, dists.data() + off);
    off += n - i - 1;
  }
  const double med = features::median(dists);
  return med > 1e-12 ? 1.0 / med : 1.0;
}

// ---------------------------------------------------------------- Nyström

void NystromMap::fit(const FeatureTable& X) {
  n_features_ = X.cols;
  n_landmarks_ = std::min(cfg_.n_landmarks, X.rows);
  if (n_landmarks_ == 0) return;
  gamma_ = cfg_.gamma > 0.0 ? cfg_.gamma : median_heuristic_gamma(X);

  // Sample landmark rows.
  std::vector<size_t> idx(X.rows);
  std::iota(idx.begin(), idx.end(), 0);
  Rng rng(cfg_.seed);
  rng.shuffle(idx);
  idx.resize(n_landmarks_);
  landmarks_.assign(n_landmarks_ * n_features_, 0.0);
  for (size_t i = 0; i < n_landmarks_; ++i) {
    const auto row = X.row(idx[i]);
    std::copy(row.begin(), row.end(),
              landmarks_.begin() + static_cast<std::ptrdiff_t>(i * n_features_));
  }
  landmark_norms_.resize(n_landmarks_);
  dense::row_sq_norms(n_landmarks_, n_features_, landmarks_.data(),
                      n_features_, landmark_norms_.data());

  // K_mm and its inverse square root via eigendecomposition. The whole
  // kernel matrix comes from one sq_dist_batch (GEMM) plus an exp sweep.
  const size_t m = n_landmarks_;
  std::vector<double> kmm(m * m, 0.0);
  dense::sq_dist_batch(m, m, n_features_, landmarks_.data(), n_features_,
                       landmarks_.data(), n_features_, landmark_norms_.data(),
                       landmark_norms_.data(), kmm.data(), m);
  rbf_from_sq_dists(m * m, gamma_, kmm.data());
  const SymEigen eig = jacobi_eigen(kmm, m);
  // Keep components with eigenvalue above a floor; projection = V L^{-1/2}.
  rank_ = 0;
  for (double v : eig.values) {
    if (v > 1e-8) ++rank_;
  }
  if (rank_ == 0) rank_ = 1;
  projection_.assign(m * rank_, 0.0);
  for (size_t c = 0; c < rank_; ++c) {
    const double inv_sqrt = 1.0 / std::sqrt(std::max(eig.values[c], 1e-8));
    for (size_t r = 0; r < m; ++r) {
      projection_[r * rank_ + c] = eig.vectors[r * m + c] * inv_sqrt;
    }
  }
}

FeatureTable NystromMap::transform(const FeatureTable& X) const {
  std::vector<std::string> names(rank_);
  for (size_t c = 0; c < rank_; ++c) names[c] = "nys_" + std::to_string(c);
  FeatureTable out = FeatureTable::make(X.rows, std::move(names));
  out.labels = X.labels;
  out.unit_id = X.unit_id;
  out.attack = X.attack;
  out.unit_time = X.unit_time;

  // Blocked: kernel block K[m x landmarks] from one sq_dist_batch + exp
  // sweep, then the projection as a GEMM into the output rows.
  const size_t nblocks =
      (X.rows + dense::kScoreBlock - 1) / dense::kScoreBlock;
  parallel_for(
      0, nblocks,
      [&](size_t blk) {
        const size_t lo = blk * dense::kScoreBlock;
        const size_t hi = std::min(X.rows, lo + dense::kScoreBlock);
        const size_t m = hi - lo;
        thread_local std::vector<double> kmat;
        kmat.resize(m * n_landmarks_);
        dense::sq_dist_batch(m, n_landmarks_, n_features_,
                             X.data.data() + lo * X.cols, X.cols,
                             landmarks_.data(), n_features_, /*xn=*/nullptr,
                             landmark_norms_.data(), kmat.data(),
                             n_landmarks_);
        rbf_from_sq_dists(m * n_landmarks_, gamma_, kmat.data());
        dense::gemm_nn(m, rank_, n_landmarks_, kmat.data(), n_landmarks_,
                       projection_.data(), rank_, 0.0,
                       out.data.data() + lo * rank_, rank_);
      },
      /*min_parallel=*/2);
  return out;
}

FeatureTable NystromMap::transform_perrow(const FeatureTable& X) const {
  std::vector<std::string> names(rank_);
  for (size_t c = 0; c < rank_; ++c) names[c] = "nys_" + std::to_string(c);
  FeatureTable out = FeatureTable::make(X.rows, std::move(names));
  out.labels = X.labels;
  out.unit_id = X.unit_id;
  out.attack = X.attack;
  out.unit_time = X.unit_time;

  parallel_for(
      0, X.rows,
      [&](size_t r) {
        thread_local std::vector<double> kvec;
        kvec.resize(n_landmarks_);
        const auto x = X.row(r);
        for (size_t i = 0; i < n_landmarks_; ++i) {
          kvec[i] = rbf_kernel(
              x, {landmarks_.data() + i * n_features_, n_features_}, gamma_);
        }
        for (size_t c = 0; c < rank_; ++c) {
          double acc = 0.0;
          for (size_t i = 0; i < n_landmarks_; ++i) {
            acc += kvec[i] * projection_[i * rank_ + c];
          }
          out.at(r, c) = acc;
        }
      },
      /*min_parallel=*/32);
  return out;
}

// ------------------------------------------------------------ kernel OCSVM

namespace {

/// Project v onto { 0 <= a_i <= cap, sum a_i = 1 } by bisection on the
/// Lagrange shift.
void project_capped_simplex(std::vector<double>& v, double cap) {
  double lo = -1.0, hi = 1.0;
  auto mass = [&](double shift) {
    double s = 0.0;
    for (double x : v) s += std::clamp(x - shift, 0.0, cap);
    return s;
  };
  // Expand the bracket until it contains the root of mass(shift) = 1.
  while (mass(lo) < 1.0) lo -= (hi - lo) + 1.0;
  while (mass(hi) > 1.0) hi += (hi - lo) + 1.0;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mass(mid) > 1.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double shift = 0.5 * (lo + hi);
  for (double& x : v) x = std::clamp(x - shift, 0.0, cap);
}

}  // namespace

void OneClassSvm::fit(const FeatureTable& X) {
  const std::vector<size_t> benign = benign_rows(X);
  std::vector<size_t> rows = benign;
  if (rows.size() > cfg_.max_train_rows) {
    Rng rng(cfg_.seed);
    rng.shuffle(rows);
    rows.resize(cfg_.max_train_rows);
    std::sort(rows.begin(), rows.end());
  }
  support_ = X.select_rows(rows);
  const size_t n = support_.rows;
  alpha_.assign(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  n_sv_ = 0;
  sv_x_.clear();
  sv_alpha_.clear();
  sv_norms_.clear();
  if (n == 0) return;

  gamma_ = cfg_.gamma > 0.0 ? cfg_.gamma : median_heuristic_gamma(support_);

  // Dense kernel matrix over the (capped) training set: one sq_dist_batch
  // (GEMM) plus an exp sweep.
  std::vector<double> K(n * n);
  std::vector<double> norms(n);
  dense::row_sq_norms(n, support_.cols, support_.data.data(), support_.cols,
                      norms.data());
  dense::sq_dist_batch(n, n, support_.cols, support_.data.data(),
                       support_.cols, support_.data.data(), support_.cols,
                       norms.data(), norms.data(), K.data(), n);
  rbf_from_sq_dists(n * n, gamma_, K.data());

  const double cap =
      std::max(1.0 / (cfg_.nu * static_cast<double>(n)), 1.0 / static_cast<double>(n));
  std::vector<double> grad(n);
  double step = 1.0;
  for (size_t it = 0; it < cfg_.iters; ++it) {
    // Gradient = K alpha, one GEMV per step.
    dense::gemv(n, n, K.data(), n, alpha_.data(), nullptr, grad.data());
    const double lr = step / (1.0 + 0.05 * static_cast<double>(it));
    for (size_t i = 0; i < n; ++i) alpha_[i] -= lr * grad[i];
    project_capped_simplex(alpha_, cap);
  }

  // rho = decision value at an unbounded support vector (median over them).
  std::vector<double> kalpha(n);
  dense::gemv(n, n, K.data(), n, alpha_.data(), nullptr, kalpha.data());
  std::vector<double> sv_values;
  for (size_t i = 0; i < n; ++i) {
    if (alpha_[i] > 1e-8 && alpha_[i] < cap - 1e-8) {
      sv_values.push_back(kalpha[i]);
    }
  }
  if (sv_values.empty()) sv_values = kalpha;
  rho_ = features::median(sv_values);

  // Compact support set: only rows with non-negligible alpha take part in
  // the decision function (same 1e-10 cutoff the per-row path uses).
  for (size_t i = 0; i < n; ++i) {
    if (alpha_[i] <= 1e-10) continue;
    const auto row = support_.row(i);
    sv_x_.insert(sv_x_.end(), row.begin(), row.end());
    sv_alpha_.push_back(alpha_[i]);
    ++n_sv_;
  }
  sv_norms_.resize(n_sv_);
  dense::row_sq_norms(n_sv_, support_.cols, sv_x_.data(), support_.cols,
                      sv_norms_.data());

  // Calibrate the alert threshold on benign training scores, through the
  // same batched path score() uses.
  std::vector<double> s = score(support_);
  threshold_ = quantile_threshold(std::move(s), cfg_.quantile);
}

double OneClassSvm::decision(std::span<const double> x) const {
  double g = 0.0;
  for (size_t i = 0; i < support_.rows; ++i) {
    if (alpha_[i] <= 1e-10) continue;
    g += alpha_[i] * rbf_kernel(support_.row(i), x, gamma_);
  }
  return rho_ - g;  // positive = outside the benign region
}

std::vector<double> OneClassSvm::score(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  // A table narrower than the support vectors scores zeros; a wider one is
  // read through its row stride.
  if (X.cols < support_.cols) return out;
  if (n_sv_ == 0) {
    for (size_t r = 0; r < X.rows; ++r) out[r] = rho_;
    return out;
  }
  const size_t nblocks =
      (X.rows + dense::kScoreBlock - 1) / dense::kScoreBlock;
  parallel_for(
      0, nblocks,
      [&](size_t blk) {
        const size_t lo = blk * dense::kScoreBlock;
        const size_t hi = std::min(X.rows, lo + dense::kScoreBlock);
        const size_t m = hi - lo;
        thread_local std::vector<double> kmat;
        kmat.resize(m * n_sv_);
        dense::sq_dist_batch(m, n_sv_, support_.cols,
                             X.data.data() + lo * X.cols, X.cols, sv_x_.data(),
                             support_.cols, /*xn=*/nullptr, sv_norms_.data(),
                             kmat.data(), n_sv_);
        rbf_from_sq_dists(m * n_sv_, gamma_, kmat.data());
        dense::gemv(m, n_sv_, kmat.data(), n_sv_, sv_alpha_.data(), nullptr,
                    out.data() + lo);
        for (size_t i = lo; i < hi; ++i) out[i] = rho_ - out[i];
      },
      /*min_parallel=*/2);
  return out;
}

std::vector<double> OneClassSvm::score_perrow(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  parallel_for(
      0, X.rows, [&](size_t r) { out[r] = decision(X.row(r)); },
      /*min_parallel=*/16);
  return out;
}

// ------------------------------------------------------------ linear OCSVM

void LinearOneClassSvm::fit(const FeatureTable& X) {
  const std::vector<size_t> rows = benign_rows(X);
  w_.assign(X.cols, 0.0);
  rho_ = 0.0;
  if (rows.empty()) return;

  const double inv_nu_n = 1.0 / (cfg_.nu * static_cast<double>(rows.size()));
  std::vector<size_t> order = rows;
  Rng rng(cfg_.seed);
  for (size_t e = 0; e < cfg_.epochs; ++e) {
    rng.shuffle(order);
    const double lr = cfg_.lr / (1.0 + 0.2 * static_cast<double>(e));
    for (size_t r : order) {
      const auto x = X.row(r);
      const double wx = dense::dot(X.cols, w_.data(), x.data());
      // Gradient of 0.5||w||^2 - rho + inv_nu_n * hinge(rho - w.x).
      for (size_t c = 0; c < X.cols; ++c) w_[c] -= lr * w_[c];
      double drho = -1.0;
      if (rho_ - wx > 0.0) {
        dense::axpy(X.cols, lr * inv_nu_n, x.data(), w_.data());
        drho += inv_nu_n;
      }
      rho_ -= lr * drho;
    }
  }

  std::vector<double> s;
  s.reserve(rows.size());
  for (size_t r : rows) {
    const auto x = X.row(r);
    s.push_back(rho_ - dense::dot(X.cols, w_.data(), x.data()));
  }
  threshold_ = quantile_threshold(std::move(s), cfg_.quantile);
}

std::vector<double> LinearOneClassSvm::score(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  // A table narrower than the hyperplane scores zeros; a wider one is read
  // through its row stride.
  if (X.cols < w_.size()) return out;
  // One GEMV over the whole table: out = rho - X w.
  dense::gemv(X.rows, w_.size(), X.data.data(), X.cols, w_.data(), nullptr,
              out.data());
  for (size_t r = 0; r < X.rows; ++r) out[r] = rho_ - out[r];
  return out;
}

std::vector<double> LinearOneClassSvm::score_perrow(
    const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  for (size_t r = 0; r < X.rows; ++r) {
    const auto x = X.row(r);
    double wx = 0.0;
    for (size_t c = 0; c < X.cols && c < w_.size(); ++c) wx += w_[c] * x[c];
    out[r] = rho_ - wx;
  }
  return out;
}

}  // namespace lumen::ml
