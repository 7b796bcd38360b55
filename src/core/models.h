// Model construction from template parameters ("model" operation), plus the
// Nyström composite detectors from the Efficient-OCSVM paper.
#pragma once

#include "core/op.h"
#include "ml/kernel.h"

namespace lumen::core {

/// Build an untrained model from a "model" op's parameters:
///   model_type: RandomForest | DecisionTree | GaussianNB | KNN | LinearSVM |
///               LogisticRegression | MLP | AutoML | Ensemble | OCSVM |
///               LinearOCSVM | NystromGMM | NystromOCSVM | GMM |
///               AutoEncoder | KitNET
///   normalize / decorrelate: bool — train-fitted transforms of the
///               evaluation protocol (ModelValue::train / predict).
///   members:    for Ensemble, a list of model_type strings.
/// The params are kept in ModelValue::params, from which train() builds
/// each fresh model. Unknown types produce an Error naming the offender.
Result<ModelValue> make_model(const Json& params);

/// Nyström feature map feeding an inner anomaly detector (GMM or linear
/// one-class SVM). The map is fitted on the benign training rows.
class NystromComposite : public ml::Model {
 public:
  enum class Inner { kGmm, kLinearOcsvm };

  NystromComposite(Inner inner, ml::NystromMap::Config cfg);

  void fit(const ml::FeatureTable& X) override;
  std::vector<double> score(const ml::FeatureTable& X) const override;
  /// The inner detector's scores and decisions over the mapped table.
  ml::Scored score_and_decide(const ml::FeatureTable& X) const override;
  std::string name() const override;
  bool is_supervised() const override { return false; }

 private:
  Inner inner_kind_;
  ml::NystromMap map_;
  ml::ModelPtr inner_;
};

}  // namespace lumen::core
