// Table-level feature transforms: normalization, correlated-feature removal,
// NaN/Inf imputation. All transforms follow a fit/apply split so that test
// data is always transformed with statistics learned on training data.
#pragma once

#include <cstdint>
#include <vector>

#include "features/table.h"

namespace lumen::features {

enum class NormKind { kMinMax, kZScore };

/// Column-wise normalizer.
class Normalizer {
 public:
  explicit Normalizer(NormKind kind = NormKind::kMinMax) : kind_(kind) {}

  void fit(const FeatureTable& t);
  void apply(FeatureTable& t) const;
  NormKind kind() const { return kind_; }

  /// Fitted statistics, exposed for persistence.
  const std::vector<double>& shift() const { return shift_; }
  const std::vector<double>& scale() const { return scale_; }
  void restore(NormKind kind, std::vector<double> shift,
               std::vector<double> scale) {
    kind_ = kind;
    shift_ = std::move(shift);
    scale_ = std::move(scale);
  }

 private:
  NormKind kind_;
  std::vector<double> shift_;  // min or mean per column
  std::vector<double> scale_;  // range or stddev per column (never 0)
};

/// Drops one column of every pair whose |Pearson correlation| exceeds the
/// threshold (keeping the earlier column), plus constant columns.
class CorrelationFilter {
 public:
  explicit CorrelationFilter(double threshold = 0.98)
      : threshold_(threshold) {}

  void fit(const FeatureTable& t);
  FeatureTable apply(const FeatureTable& t) const;

 private:
  double threshold_;
  std::vector<uint8_t> keep_;
};

/// Replace NaN/Inf entries with 0 in place; returns replaced count.
size_t impute_non_finite(FeatureTable& t);

/// Pearson correlation between two columns of a table.
double column_correlation(const FeatureTable& t, size_t a, size_t b);

}  // namespace lumen::features
