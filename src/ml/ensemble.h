// Soft-voting ensemble over heterogeneous base models (the ML-DDoS and
// Ensemble-IDS baselines combine RF/SVM/DT/kNN or NB/DT/RF/DNN this way).
#pragma once

#include "ml/model.h"

namespace lumen::ml {

class VotingEnsemble : public Model {
 public:
  explicit VotingEnsemble(std::vector<ModelPtr> members, std::string label = "Ensemble")
      : members_(std::move(members)), label_(std::move(label)) {}

  void fit(const FeatureTable& X) override {
    for (auto& m : members_) m->fit(X);
  }

  std::vector<double> score(const FeatureTable& X) const override {
    std::vector<double> out(X.rows, 0.0);
    if (members_.empty()) return out;
    for (const auto& m : members_) {
      const std::vector<double> s = m->score(X);
      for (size_t r = 0; r < X.rows; ++r) out[r] += s[r];
    }
    const double inv = 1.0 / static_cast<double>(members_.size());
    for (double& v : out) v *= inv;
    return out;
  }

  /// Majority vote over member predictions, not a threshold on the mean
  /// score.
  std::vector<int> decide(const FeatureTable& X,
                          const std::vector<double>&) const override {
    std::vector<int> votes(X.rows, 0);
    for (const auto& m : members_) {
      const std::vector<int> p = m->predict(X);
      for (size_t r = 0; r < X.rows; ++r) votes[r] += p[r];
    }
    std::vector<int> out(X.rows);
    const int need = static_cast<int>((members_.size() + 1) / 2);
    for (size_t r = 0; r < X.rows; ++r) out[r] = votes[r] >= need ? 1 : 0;
    return out;
  }

  std::string name() const override { return label_; }
  bool is_supervised() const override { return true; }
  size_t member_count() const { return members_.size(); }

 private:
  std::vector<ModelPtr> members_;
  std::string label_;
};

}  // namespace lumen::ml
