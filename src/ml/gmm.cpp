#include "ml/gmm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "ml/dense.h"

namespace lumen::ml {

namespace {
constexpr double kVarFloor = 1e-6;

double sq_dist(std::span<const double> a, const double* b, size_t n) {
  double d = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}
}  // namespace

void KMeans::fit(const FeatureTable& X, const std::vector<size_t>& rows) {
  dim_ = X.cols;
  k_ = std::min(cfg_.k, rows.size());
  centroids_.assign(k_ * dim_, 0.0);
  if (k_ == 0) return;
  Rng rng(cfg_.seed);

  // k-means++-style seeding: first centroid random, rest far from chosen.
  std::vector<size_t> chosen;
  chosen.push_back(rows[rng.below(rows.size())]);
  std::vector<double> d2(rows.size(), std::numeric_limits<double>::max());
  while (chosen.size() < k_) {
    const auto c = X.row(chosen.back());
    double total = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const double d = sq_dist(X.row(rows[i]), c.data(), dim_);
      d2[i] = std::min(d2[i], d);
      total += d2[i];
    }
    double r = rng.uniform() * total;
    size_t pick = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      r -= d2[i];
      if (r <= 0.0) {
        pick = i;
        break;
      }
    }
    chosen.push_back(rows[pick]);
  }
  for (size_t c = 0; c < k_; ++c) {
    const auto row = X.row(chosen[c]);
    std::copy(row.begin(), row.end(),
              centroids_.begin() + static_cast<std::ptrdiff_t>(c * dim_));
  }

  std::vector<size_t> assign_of(rows.size(), 0);
  for (size_t it = 0; it < cfg_.iters; ++it) {
    bool moved = false;
    for (size_t i = 0; i < rows.size(); ++i) {
      const size_t a = assign(X.row(rows[i]));
      if (a != assign_of[i]) {
        assign_of[i] = a;
        moved = true;
      }
    }
    std::vector<double> sums(k_ * dim_, 0.0);
    std::vector<size_t> counts(k_, 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto x = X.row(rows[i]);
      const size_t a = assign_of[i];
      ++counts[a];
      for (size_t d = 0; d < dim_; ++d) sums[a * dim_ + d] += x[d];
    }
    for (size_t c = 0; c < k_; ++c) {
      if (counts[c] == 0) continue;
      for (size_t d = 0; d < dim_; ++d) {
        centroids_[c * dim_ + d] =
            sums[c * dim_ + d] / static_cast<double>(counts[c]);
      }
    }
    if (!moved && it > 0) break;
  }
}

size_t KMeans::assign(std::span<const double> x) const {
  size_t best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (size_t c = 0; c < k_; ++c) {
    const double d = sq_dist(x, centroids_.data() + c * dim_, dim_);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

void Gmm::fit(const FeatureTable& X) {
  const std::vector<size_t> rows = benign_rows(X);
  dim_ = X.cols;
  k_ = std::min(cfg_.components, std::max<size_t>(rows.size(), 1));
  weight_.assign(k_, 1.0 / static_cast<double>(k_));
  mean_.assign(k_ * dim_, 0.0);
  var_.assign(k_ * dim_, 1.0);
  if (rows.empty()) {
    prepare_scoring();
    return;
  }

  // Initialize means with k-means, variances with per-cluster spread.
  KMeans::Config kc;
  kc.k = k_;
  kc.seed = cfg_.seed;
  KMeans km(kc);
  km.fit(X, rows);
  mean_ = km.centroids();
  {
    std::vector<double> acc(k_ * dim_, 0.0);
    std::vector<size_t> counts(k_, 0);
    for (size_t r : rows) {
      const auto x = X.row(r);
      const size_t a = km.assign(x);
      ++counts[a];
      for (size_t d = 0; d < dim_; ++d) {
        const double diff = x[d] - mean_[a * dim_ + d];
        acc[a * dim_ + d] += diff * diff;
      }
    }
    for (size_t c = 0; c < k_; ++c) {
      for (size_t d = 0; d < dim_; ++d) {
        var_[c * dim_ + d] =
            counts[c] > 0
                ? std::max(acc[c * dim_ + d] / static_cast<double>(counts[c]),
                           kVarFloor)
                : 1.0;
      }
    }
  }

  // EM with responsibilities in log space.
  const size_t n = rows.size();
  std::vector<double> resp(n * k_, 0.0);
  std::vector<double> row_ll(n, 0.0);
  double prev_ll = -std::numeric_limits<double>::max();
  for (size_t it = 0; it < cfg_.iters; ++it) {
    // E-step: rows are independent; per-row log-likelihoods land in an
    // index-addressed buffer and are reduced serially so the sum is
    // byte-identical to the serial loop.
    parallel_for(
        0, n,
        [&](size_t i) {
          const auto x = X.row(rows[i]);
          double maxl = -std::numeric_limits<double>::max();
          thread_local std::vector<double> logp;
          logp.resize(k_);
          for (size_t c = 0; c < k_; ++c) {
            double l = std::log(std::max(weight_[c], 1e-12));
            for (size_t d = 0; d < dim_; ++d) {
              const double v = var_[c * dim_ + d];
              const double diff = x[d] - mean_[c * dim_ + d];
              l += -0.5 * (std::log(2.0 * M_PI * v) + diff * diff / v);
            }
            logp[c] = l;
            maxl = std::max(maxl, l);
          }
          double denom = 0.0;
          for (size_t c = 0; c < k_; ++c) denom += std::exp(logp[c] - maxl);
          row_ll[i] = maxl + std::log(denom);
          for (size_t c = 0; c < k_; ++c) {
            resp[i * k_ + c] = std::exp(logp[c] - maxl) / denom;
          }
        },
        /*min_parallel=*/64);
    double total_ll = 0.0;
    for (size_t i = 0; i < n; ++i) total_ll += row_ll[i];
    final_ll_ = total_ll / static_cast<double>(n);
    if (std::fabs(final_ll_ - prev_ll) < 1e-8) break;
    prev_ll = final_ll_;

    // M-step: components touch disjoint weight/mean/var slices.
    parallel_for(
        0, k_,
        [&](size_t c) {
          double nk = 0.0;
          for (size_t i = 0; i < n; ++i) nk += resp[i * k_ + c];
          weight_[c] = std::max(nk / static_cast<double>(n), 1e-8);
          if (nk < 1e-10) return;
          for (size_t d = 0; d < dim_; ++d) {
            double m = 0.0;
            for (size_t i = 0; i < n; ++i) {
              m += resp[i * k_ + c] * X.at(rows[i], d);
            }
            mean_[c * dim_ + d] = m / nk;
          }
          for (size_t d = 0; d < dim_; ++d) {
            double v = 0.0;
            for (size_t i = 0; i < n; ++i) {
              const double diff = X.at(rows[i], d) - mean_[c * dim_ + d];
              v += resp[i * k_ + c] * diff * diff;
            }
            var_[c * dim_ + d] = std::max(v / nk, kVarFloor);
          }
        },
        /*min_parallel=*/2);
  }

  prepare_scoring();

  // Threshold from benign scores, through the same blocked path score()
  // uses (the benign rows are gathered contiguously first).
  std::vector<double> gather;
  std::vector<double> s(n, 0.0);
  for (size_t lo = 0; lo < n; lo += dense::kScoreBlock) {
    const size_t hi = std::min(n, lo + dense::kScoreBlock);
    const size_t m = hi - lo;
    gather.resize(m * dim_);
    for (size_t i = 0; i < m; ++i) {
      const auto row = X.row(rows[lo + i]);
      std::copy(row.begin(), row.end(), gather.begin() + i * dim_);
    }
    score_block(gather.data(), m, dim_, s.data() + lo);
  }
  threshold_ = quantile_threshold(std::move(s), cfg_.quantile);
}

void Gmm::prepare_scoring() {
  w1_.resize(k_ * dim_);
  w2_.resize(k_ * dim_);
  const_.resize(k_);
  for (size_t c = 0; c < k_; ++c) {
    double cst = std::log(std::max(weight_[c], 1e-12));
    for (size_t d = 0; d < dim_; ++d) {
      const double v = var_[c * dim_ + d];
      const double m = mean_[c * dim_ + d];
      w1_[c * dim_ + d] = -0.5 / v;
      w2_[c * dim_ + d] = m / v;
      cst += -0.5 * (std::log(2.0 * M_PI * v) + m * m / v);
    }
    const_[c] = cst;
  }
}

void Gmm::score_block(const double* x, size_t m, size_t ldx,
                      double* out) const {
  thread_local std::vector<double> xsq, logp;
  xsq.resize(m * dim_);
  for (size_t i = 0; i < m; ++i) {
    const double* xi = x + i * ldx;
    double* qi = xsq.data() + i * dim_;
    for (size_t d = 0; d < dim_; ++d) qi[d] = xi[d] * xi[d];
  }
  logp.resize(m * k_);
  dense::gemm_nt(m, k_, dim_, xsq.data(), dim_, w1_.data(), dim_,
                 const_.data(), 0.0, logp.data(), k_);
  dense::gemm_nt(m, k_, dim_, x, ldx, w2_.data(), dim_, nullptr, 1.0,
                 logp.data(), k_);
  for (size_t i = 0; i < m; ++i) {
    const double* li = logp.data() + i * k_;
    double maxl = -std::numeric_limits<double>::max();
    for (size_t c = 0; c < k_; ++c) maxl = std::max(maxl, li[c]);
    double denom = 0.0;
    for (size_t c = 0; c < k_; ++c) denom += std::exp(li[c] - maxl);
    out[i] = -(maxl + std::log(denom));
  }
}

double Gmm::log_density(std::span<const double> x) const {
  double maxl = -std::numeric_limits<double>::max();
  std::vector<double> logp(k_);
  for (size_t c = 0; c < k_; ++c) {
    double l = std::log(std::max(weight_[c], 1e-12));
    for (size_t d = 0; d < dim_; ++d) {
      const double v = var_[c * dim_ + d];
      const double diff = x[d] - mean_[c * dim_ + d];
      l += -0.5 * (std::log(2.0 * M_PI * v) + diff * diff / v);
    }
    logp[c] = l;
    maxl = std::max(maxl, l);
  }
  double denom = 0.0;
  for (size_t c = 0; c < k_; ++c) denom += std::exp(logp[c] - maxl);
  return maxl + std::log(denom);
}

std::vector<double> Gmm::score(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  // A table narrower than the fit width scores zeros; a wider one is read
  // through its row stride.
  if (X.cols < dim_) return out;
  const size_t nblocks =
      (X.rows + dense::kScoreBlock - 1) / dense::kScoreBlock;
  parallel_for(
      0, nblocks,
      [&](size_t blk) {
        const size_t lo = blk * dense::kScoreBlock;
        const size_t hi = std::min(X.rows, lo + dense::kScoreBlock);
        score_block(X.data.data() + lo * X.cols, hi - lo, X.cols,
                    out.data() + lo);
      },
      /*min_parallel=*/2);
  return out;
}

std::vector<double> Gmm::score_perrow(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  parallel_for(
      0, X.rows, [&](size_t r) { out[r] = -log_density(X.row(r)); },
      /*min_parallel=*/64);
  return out;
}

}  // namespace lumen::ml
