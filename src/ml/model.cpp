#include "ml/model.h"

#include <algorithm>

namespace lumen::ml {

Scored Model::score_and_decide(const FeatureTable& X) const {
  Scored out;
  out.scores = score(X);
  out.decisions = decide(out.scores);
  return out;
}

std::vector<int> Model::decide(const std::vector<double>& scores) const {
  std::vector<int> out(scores.size());
  for (size_t r = 0; r < scores.size(); ++r) out[r] = scores[r] >= 0.5 ? 1 : 0;
  return out;
}

std::vector<size_t> benign_rows(const FeatureTable& X) {
  std::vector<size_t> idx;
  idx.reserve(X.rows);
  for (size_t r = 0; r < X.rows; ++r) {
    if (X.labels[r] == 0) idx.push_back(r);
  }
  return idx;
}

double quantile_threshold(std::vector<double> scores, double quantile) {
  if (scores.empty()) return 0.0;
  std::sort(scores.begin(), scores.end());
  // Clamp like features::percentile: q outside [0, 1] (possible from a
  // miswritten template) must not index outside the sorted array, and NaN
  // routes to the minimum.
  if (!(quantile > 0.0)) return scores.front();
  if (quantile >= 1.0) return scores.back();
  const double rank =
      quantile * static_cast<double>(scores.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, scores.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return scores[lo] * (1.0 - frac) + scores[hi] * frac;
}

std::vector<int> threshold_predict(const std::vector<double>& scores,
                                   double threshold) {
  std::vector<int> out(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    out[i] = scores[i] > threshold ? 1 : 0;
  }
  return out;
}

}  // namespace lumen::ml
