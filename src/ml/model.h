// Model interface shared by every learner in Lumen.
//
// Two families implement it:
//  * supervised classifiers  — fit() consumes X.labels; score() returns an
//    estimate of P(malicious); decide() thresholds it at 0.5.
//  * unsupervised anomaly detectors — fit() trains on the BENIGN rows only
//    (they filter internally, mirroring how Kitsune/OCSVM-style systems are
//    trained on clean traffic); score() returns an anomaly score, fit()
//    calibrates a threshold from a high quantile of benign training scores
//    and decide() thresholds there.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "features/table.h"

namespace lumen::ml {

using features::FeatureTable;

class Model {
 public:
  virtual ~Model() = default;

  /// Train. Supervised models use X.labels; unsupervised models use only the
  /// rows whose label is 0.
  virtual void fit(const FeatureTable& X) = 0;

  /// Per-row decision value. Higher = more likely malicious/anomalous.
  virtual std::vector<double> score(const FeatureTable& X) const = 0;

  /// Per-row 0/1 decision from `scores`, which score(X) returned. The
  /// default thresholds at 0.5; the anomaly detectors threshold at their
  /// calibrated threshold. Only a voting ensemble reads X.
  virtual std::vector<int> decide(const FeatureTable& X,
                                  const std::vector<double>& scores) const;

  /// Per-row 0/1 prediction: decide(X, score(X)).
  std::vector<int> predict(const FeatureTable& X) const {
    return decide(X, score(X));
  }

  virtual std::string name() const = 0;
  virtual bool is_supervised() const = 0;
};

using ModelPtr = std::shared_ptr<Model>;

/// Helper for unsupervised detectors: pick the benign row indices.
std::vector<size_t> benign_rows(const FeatureTable& X);

/// Helper: threshold = `quantile` of `scores` (copied, then sorted).
double quantile_threshold(std::vector<double> scores, double quantile);

/// Thresholded prediction shared by the anomaly detectors.
std::vector<int> threshold_predict(const std::vector<double>& scores,
                                   double threshold);

}  // namespace lumen::ml
