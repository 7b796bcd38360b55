#include "ml/bayes.h"

#include <cmath>

namespace lumen::ml {

namespace {
constexpr double kVarFloor = 1e-9;
}

void GaussianNB::fit(const FeatureTable& X) {
  cols_ = X.cols;
  size_t count[2] = {0, 0};
  for (int c = 0; c < 2; ++c) {
    mean_[c].assign(cols_, 0.0);
    var_[c].assign(cols_, 0.0);
  }
  for (size_t r = 0; r < X.rows; ++r) {
    const int c = X.labels[r] != 0 ? 1 : 0;
    ++count[c];
    for (size_t j = 0; j < cols_; ++j) mean_[c][j] += X.at(r, j);
  }
  for (int c = 0; c < 2; ++c) {
    has_class_[c] = count[c] > 0;
    if (!has_class_[c]) continue;
    for (size_t j = 0; j < cols_; ++j) {
      mean_[c][j] /= static_cast<double>(count[c]);
    }
  }
  for (size_t r = 0; r < X.rows; ++r) {
    const int c = X.labels[r] != 0 ? 1 : 0;
    for (size_t j = 0; j < cols_; ++j) {
      const double d = X.at(r, j) - mean_[c][j];
      var_[c][j] += d * d;
    }
  }
  for (int c = 0; c < 2; ++c) {
    if (!has_class_[c]) continue;
    for (size_t j = 0; j < cols_; ++j) {
      var_[c][j] = std::max(var_[c][j] / static_cast<double>(count[c]),
                            kVarFloor);
    }
    log_prior_[c] = std::log(static_cast<double>(count[c]) /
                             static_cast<double>(X.rows));
  }
}

double GaussianNB::log_likelihood(std::span<const double> x, int cls) const {
  if (!has_class_[cls]) return -1e30;
  double ll = log_prior_[cls];
  for (size_t j = 0; j < cols_; ++j) {
    const double d = x[j] - mean_[cls][j];
    ll += -0.5 * (std::log(2.0 * M_PI * var_[cls][j]) + d * d / var_[cls][j]);
  }
  return ll;
}

std::vector<double> GaussianNB::score(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  for (size_t r = 0; r < X.rows; ++r) {
    const double l0 = log_likelihood(X.row(r), 0);
    const double l1 = log_likelihood(X.row(r), 1);
    // Stable softmax over two log-likelihoods -> P(malicious).
    const double m = std::max(l0, l1);
    const double e0 = std::exp(l0 - m);
    const double e1 = std::exp(l1 - m);
    out[r] = e1 / (e0 + e1);
  }
  return out;
}

}  // namespace lumen::ml
