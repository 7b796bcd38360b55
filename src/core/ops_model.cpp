// Model-related operations: "model" (construction), "train", "predict",
// "evaluate" — plus the model factory and the Nyström composites.
#include "core/models.h"

#include "core/ops_common.h"
#include "ml/automl.h"
#include "ml/bayes.h"
#include "ml/ensemble.h"
#include "ml/forest.h"
#include "ml/gmm.h"
#include "ml/kitnet.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/tree.h"

namespace lumen::core {

NystromComposite::NystromComposite(Inner inner, ml::NystromMap::Config cfg)
    : inner_kind_(inner), map_(cfg) {
  if (inner == Inner::kGmm) {
    ml::Gmm::Config gc;
    gc.components = 4;
    inner_ = std::make_shared<ml::Gmm>(gc);
  } else {
    inner_ = std::make_shared<ml::LinearOneClassSvm>();
  }
}

void NystromComposite::fit(const ml::FeatureTable& X) {
  // Fit the kernel map on benign rows only (it is part of the detector).
  const std::vector<size_t> benign = ml::benign_rows(X);
  map_.fit(X.select_rows(benign));
  inner_->fit(map_.transform(X));
}

std::vector<double> NystromComposite::score(const ml::FeatureTable& X) const {
  return inner_->score(map_.transform(X));
}

ml::Scored NystromComposite::score_and_decide(
    const ml::FeatureTable& X) const {
  return inner_->score_and_decide(map_.transform(X));
}

std::string NystromComposite::name() const {
  return inner_kind_ == Inner::kGmm ? "Nystrom+GMM" : "Nystrom+OCSVM";
}

namespace {

ml::ModelPtr make_by_type(const std::string& type, const Json& params) {
  if (type == "RandomForest") {
    ml::ForestConfig cfg;
    cfg.n_trees = static_cast<size_t>(params.get_int("n_trees", 20));
    cfg.max_depth = static_cast<int>(params.get_int("max_depth", 12));
    return std::make_shared<ml::RandomForest>(cfg);
  }
  if (type == "DecisionTree") {
    ml::TreeConfig cfg;
    cfg.max_depth = static_cast<int>(params.get_int("max_depth", 12));
    return std::make_shared<ml::DecisionTree>(cfg);
  }
  if (type == "GaussianNB") return std::make_shared<ml::GaussianNB>();
  if (type == "KNN") {
    ml::KnnConfig cfg;
    cfg.k = static_cast<size_t>(params.get_int("k", 5));
    return std::make_shared<ml::Knn>(cfg);
  }
  if (type == "LinearSVM") return std::make_shared<ml::LinearSvm>();
  if (type == "LogisticRegression") {
    return std::make_shared<ml::LogisticRegression>();
  }
  if (type == "MLP") {
    ml::MlpConfig cfg;
    const std::vector<double> h = params.get_number_list("hidden");
    if (!h.empty()) {
      cfg.hidden.clear();
      for (double d : h) cfg.hidden.push_back(static_cast<size_t>(d));
    }
    cfg.epochs = static_cast<size_t>(params.get_int("epochs", 30));
    cfg.batch = static_cast<size_t>(params.get_int("batch", 32));
    return std::make_shared<ml::Mlp>(cfg);
  }
  if (type == "AutoML") return std::make_shared<ml::AutoMl>();
  if (type == "OCSVM") {
    ml::OneClassSvm::Config cfg;
    cfg.nu = params.get_number("nu", 0.05);
    return std::make_shared<ml::OneClassSvm>(cfg);
  }
  if (type == "LinearOCSVM") return std::make_shared<ml::LinearOneClassSvm>();
  if (type == "NystromGMM" || type == "NystromOCSVM") {
    ml::NystromMap::Config cfg;
    cfg.n_landmarks = static_cast<size_t>(params.get_int("landmarks", 48));
    return std::make_shared<NystromComposite>(
        type == "NystromGMM" ? NystromComposite::Inner::kGmm
                             : NystromComposite::Inner::kLinearOcsvm,
        cfg);
  }
  if (type == "GMM") {
    ml::Gmm::Config cfg;
    cfg.components = static_cast<size_t>(params.get_int("components", 4));
    return std::make_shared<ml::Gmm>(cfg);
  }
  if (type == "AutoEncoder") {
    ml::AutoEncoderConfig cfg;
    cfg.epochs = static_cast<size_t>(params.get_int("epochs", 4));
    cfg.quantile = params.get_number("quantile", 0.97);
    return std::make_shared<ml::AutoEncoderDetector>(cfg);
  }
  if (type == "KitNET") {
    ml::KitNet::Config cfg;
    cfg.max_cluster_size =
        static_cast<size_t>(params.get_int("max_cluster_size", 10));
    cfg.quantile = params.get_number("quantile", 0.97);
    return std::make_shared<ml::KitNet>(cfg);
  }
  return nullptr;
}

}  // namespace

Result<ModelValue> make_model(const Json& params) {
  const std::string type = params.get_string("model_type");
  if (type.empty()) return Error::make("model", "missing 'model_type'");

  ModelValue mv;
  mv.params = params;
  mv.normalize = params.get_bool("normalize", false);
  mv.decorrelate = params.get_bool("decorrelate", false);

  if (type == "Ensemble") {
    std::vector<ml::ModelPtr> members;
    for (const std::string& m : params.get_string_list("members")) {
      ml::ModelPtr mp = make_by_type(m, params);
      if (!mp) return Error::make("model", "unknown ensemble member '" + m + "'");
      members.push_back(std::move(mp));
    }
    if (members.empty()) {
      return Error::make("model", "Ensemble requires 'members'");
    }
    mv.model = std::make_shared<ml::VotingEnsemble>(std::move(members));
    return mv;
  }

  mv.model = make_by_type(type, params);
  if (!mv.model) return Error::make("model", "unknown model_type '" + type + "'");
  return mv;
}

namespace {

using features::FeatureTable;

Result<Value> run_model(const OpSpec& spec,
                        const std::vector<const Value*>& in, OpContext& ctx) {
  Result<ModelValue> mv = make_model(spec.params);
  if (!mv.ok()) return mv.error();
  return Value(std::move(mv).value());
}

/// A trained copy of the input model (ModelValue::train); the input stays
/// untrained, so one "model" binding can feed several trains.
Result<Value> run_train(const OpSpec& spec,
                        const std::vector<const Value*>& in, OpContext& ctx) {
  auto mr = input_as<ModelValue>(in, 0, "train");
  if (!mr.ok()) return mr.error();
  auto tr = input_as<FeatureTable>(in, 1, "train");
  if (!tr.ok()) return tr.error();
  Result<ModelValue> trained = mr.value()->train(*tr.value());
  if (!trained.ok()) return trained.error();
  return Value(std::move(trained).value());
}

Result<Value> run_predict(const OpSpec& spec,
                          const std::vector<const Value*>& in,
                          OpContext& ctx) {
  auto mr = input_as<ModelValue>(in, 0, "predict");
  if (!mr.ok()) return mr.error();
  auto tr = input_as<FeatureTable>(in, 1, "predict");
  if (!tr.ok()) return tr.error();
  const ModelValue& mv = *mr.value();
  if (!mv.model) return Error::make("predict", "model was never constructed");
  return Value(mv.predict(*tr.value()));
}

Result<Value> run_evaluate(const OpSpec& spec,
                           const std::vector<const Value*>& in,
                           OpContext& ctx) {
  auto pr = input_as<Predictions>(in, 0, "evaluate");
  if (!pr.ok()) return pr.error();
  const Predictions& p = *pr.value();
  const ml::Confusion c = ml::confusion(p.y_true, p.y_pred);
  Metrics m;
  m.values = {
      {"precision", ml::precision(c)},
      {"recall", ml::recall(c)},
      {"f1", ml::f1(c)},
      {"accuracy", ml::accuracy(c)},
      {"auc", ml::auc(p.y_true, p.scores)},
      {"tp", static_cast<double>(c.tp)},
      {"fp", static_cast<double>(c.fp)},
      {"tn", static_cast<double>(c.tn)},
      {"fn", static_cast<double>(c.fn)},
  };
  return Value(std::move(m));
}

}  // namespace

void register_model_ops() {
  register_simple("model", {}, ValueKind::kModel, run_model);
  register_simple("train", {ValueKind::kModel, ValueKind::kFeatureTable},
                  ValueKind::kModel, run_train);
  register_simple("predict", {ValueKind::kModel, ValueKind::kFeatureTable},
                  ValueKind::kPredictions, run_predict);
  register_simple("evaluate", {ValueKind::kPredictions}, ValueKind::kMetrics,
                  run_evaluate);
}

}  // namespace lumen::core
