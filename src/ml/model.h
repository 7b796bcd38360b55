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

class SharedRanks;

/// A table's per-row scores and the 0/1 decisions made from them.
struct Scored {
  std::vector<double> scores;
  std::vector<int> decisions;
};

class Model {
 public:
  virtual ~Model() = default;

  /// Train. Supervised models use X.labels; unsupervised models use only the
  /// rows whose label is 0.
  virtual void fit(const FeatureTable& X) = 0;

  /// fit(X) for one of several models trained on the same table: `ranks`
  /// is X's rank encoding, built on first use, so the tree learners among
  /// them (AutoMl's candidates, VotingEnsemble's members) encode X once.
  /// The default ignores it and calls fit(X).
  virtual void fit_shared(const FeatureTable& X, SharedRanks& ranks) {
    fit(X);
  }

  /// Per-row decision value. Higher = more likely malicious/anomalous.
  virtual std::vector<double> score(const FeatureTable& X) const = 0;

  /// Scores X once and decides every row: by default score(X), then
  /// decide() on those scores. A voting ensemble overrides it to vote from
  /// its members' own scores and decisions.
  virtual Scored score_and_decide(const FeatureTable& X) const;

  /// Per-row 0/1 prediction: score_and_decide(X).decisions.
  std::vector<int> predict(const FeatureTable& X) const {
    return score_and_decide(X).decisions;
  }

  virtual std::string name() const = 0;
  virtual bool is_supervised() const = 0;

 protected:
  /// Per-row 0/1 decision from `scores`, which score() returned. The
  /// default thresholds at 0.5; the anomaly detectors threshold at their
  /// calibrated threshold.
  virtual std::vector<int> decide(const std::vector<double>& scores) const;
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
