// Soft-voting ensemble over heterogeneous base models (the ML-DDoS and
// Ensemble-IDS baselines combine RF/SVM/DT/kNN or NB/DT/RF/DNN this way).
#pragma once

#include "ml/tree.h"

namespace lumen::ml {

class VotingEnsemble : public Model {
 public:
  explicit VotingEnsemble(std::vector<ModelPtr> members, std::string label = "Ensemble")
      : members_(std::move(members)), label_(std::move(label)) {}

  /// Fits every member on X; the tree learners among them share one rank
  /// encoding of X.
  void fit(const FeatureTable& X) override {
    SharedRanks ranks(X);
    for (auto& m : members_) m->fit_shared(X, ranks);
  }

  std::vector<double> score(const FeatureTable& X) const override {
    return score_and_decide(X).scores;
  }

  /// The mean of the members' scores, and a majority vote over the members'
  /// own decisions, not a threshold on the mean score. Each member scores X
  /// once.
  Scored score_and_decide(const FeatureTable& X) const override {
    Scored out{std::vector<double>(X.rows, 0.0), std::vector<int>(X.rows, 0)};
    if (members_.empty()) return out;
    std::vector<int> votes(X.rows, 0);
    for (const auto& m : members_) {
      const Scored s = m->score_and_decide(X);
      for (size_t r = 0; r < X.rows; ++r) {
        out.scores[r] += s.scores[r];
        votes[r] += s.decisions[r];
      }
    }
    const double inv = 1.0 / static_cast<double>(members_.size());
    const int need = static_cast<int>((members_.size() + 1) / 2);
    for (size_t r = 0; r < X.rows; ++r) {
      out.scores[r] *= inv;
      out.decisions[r] = votes[r] >= need ? 1 : 0;
    }
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
