#include "ml/linear.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "features/stats.h"
#include "ml/dense.h"

namespace lumen::ml {

void LinearModel::standardize_fit(const FeatureTable& X) {
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

std::vector<double> LinearModel::standardized(std::span<const double> x) const {
  std::vector<double> z(x.size());
  for (size_t c = 0; c < x.size(); ++c) z[c] = (x[c] - mean_[c]) * inv_sd_[c];
  return z;
}

double LinearModel::margin(std::span<const double> x) const {
  double m = b_;
  for (size_t c = 0; c < w_.size() && c < x.size(); ++c) m += w_[c] * x[c];
  return m;
}

void LinearModel::fit(const FeatureTable& X) {
  standardize_fit(X);
  w_.assign(X.cols, 0.0);
  b_ = 0.0;
  if (X.rows == 0) return;

  // Class weights to compensate for the benign-heavy imbalance typical of
  // IDS training sets.
  size_t n_pos = 0;
  for (int y : X.labels) n_pos += (y != 0);
  const size_t n_neg = X.rows - n_pos;
  const double w_pos =
      n_pos > 0 ? static_cast<double>(X.rows) / (2.0 * n_pos) : 1.0;
  const double w_neg =
      n_neg > 0 ? static_cast<double>(X.rows) / (2.0 * n_neg) : 1.0;

  // Standardize the table once; every step reads its row of Z. Each z is
  // the value a per-step standardization would compute.
  const size_t dim = X.cols;
  std::vector<double> Z(X.rows * dim);
  for (size_t r = 0; r < X.rows; ++r) {
    const std::span<const double> x = X.row(r);
    double* z = Z.data() + r * dim;
    for (size_t c = 0; c < dim; ++c) z[c] = (x[c] - mean_[c]) * inv_sd_[c];
  }

  std::vector<size_t> order(X.rows);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(cfg_.seed);

  for (size_t e = 0; e < cfg_.epochs; ++e) {
    rng.shuffle(order);
    const double lr = cfg_.lr / (1.0 + 0.1 * static_cast<double>(e));
    const double shrink = 1.0 - lr * cfg_.l2;
    for (size_t r : order) {
      const std::span<const double> z(Z.data() + r * dim, dim);
      const double y = X.labels[r] != 0 ? 1.0 : -1.0;
      const double cw = X.labels[r] != 0 ? w_pos : w_neg;
      // L2 shrink fused with the margin of the shrunk weights (the same
      // products, summed in the same order as margin()), then the
      // loss-specific update.
      double m = b_;
      for (size_t c = 0; c < dim; ++c) {
        w_[c] *= shrink;
        m += w_[c] * z[c];
      }
      update(z, m, y, lr, cw);
    }
  }
}

std::vector<double> LinearModel::score(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  // An unfitted model, or a table narrower than the weights, scores zeros;
  // a wider table is read through its row stride.
  const size_t dim = w_.size();
  if (dim == 0 || X.cols < dim) return out;
  // Fold the standardizer into the weights:
  //   b + sum_c w_c (x_c - mean_c) inv_sd_c
  //     = (b - w_eff . mean) + w_eff . x   with w_eff = w * inv_sd,
  // so the whole table scores as one GEMV plus the score squash.
  std::vector<double> w_eff(dim);
  for (size_t c = 0; c < dim; ++c) w_eff[c] = w_[c] * inv_sd_[c];
  const double b_eff = b_ - dense::dot(dim, w_eff.data(), mean_.data());
  dense::gemv(X.rows, dim, X.data.data(), X.cols, w_eff.data(), nullptr,
              out.data());
  for (size_t r = 0; r < X.rows; ++r) out[r] = to_score(out[r] + b_eff);
  return out;
}

std::vector<double> LinearModel::score_perrow(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  for (size_t r = 0; r < X.rows; ++r) {
    out[r] = to_score(margin(standardized(X.row(r))));
  }
  return out;
}

void LinearSvm::update(std::span<const double> z, double m, double y,
                       double lr, double class_weight) {
  if (y * m < 1.0) {
    for (size_t c = 0; c < w_.size(); ++c) {
      w_[c] += lr * class_weight * y * z[c];
    }
    b_ += lr * class_weight * y;
  }
}

double LinearSvm::to_score(double m) const {
  // Squash margin to [0,1]; 0.5 at the decision boundary.
  return 1.0 / (1.0 + std::exp(-2.0 * m));
}

void LogisticRegression::update(std::span<const double> z, double m,
                                double y, double lr, double class_weight) {
  const double p = 1.0 / (1.0 + std::exp(-m));
  const double target = y > 0 ? 1.0 : 0.0;
  const double g = class_weight * (target - p);
  for (size_t c = 0; c < w_.size(); ++c) w_[c] += lr * g * z[c];
  b_ += lr * g;
}

double LogisticRegression::to_score(double m) const {
  return 1.0 / (1.0 + std::exp(-m));
}

}  // namespace lumen::ml
