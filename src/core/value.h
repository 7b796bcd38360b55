// The typed values that flow between Lumen operations. Each operation
// declares the kinds it consumes and produces; the execution engine
// type-checks a pipeline against these declarations before running it.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/json.h"
#include "features/table.h"
#include "features/transform.h"
#include "flow/flow.h"
#include "ml/model.h"
#include "trace/dataset.h"

namespace lumen::core {

enum class ValueKind : uint8_t {
  kPacketSet,
  kGroupedPackets,
  kFlowSet,
  kConnSet,
  kFeatureTable,
  kModel,
  kPredictions,
  kMetrics,
  kAny,  // used only in operation signatures
};

const char* value_kind_name(ValueKind k);

/// A subset of a dataset's packets (by view index). Non-owning: the Dataset
/// outlives the pipeline run (it lives in the OpContext).
struct PacketSet {
  const trace::Dataset* dataset = nullptr;
  std::vector<uint32_t> idx;
};

/// Packets grouped by some key (and possibly sub-sliced by time window).
struct Group {
  std::string key;         // printable key, e.g. "192.168.1.12" or "...#w3"
  double window_start = 0.0;
  std::vector<uint32_t> idx;
};

struct GroupedPackets {
  const trace::Dataset* dataset = nullptr;
  std::string group_field;
  std::vector<Group> groups;
};

struct FlowSet {
  const trace::Dataset* dataset = nullptr;
  std::vector<flow::Flow> flows;
};

struct ConnSet {
  const trace::Dataset* dataset = nullptr;
  std::vector<flow::Connection> conns;
  std::vector<flow::ConnRecord> records;  // aligned with conns
};

struct Predictions {
  std::vector<int> y_true;
  std::vector<int> y_pred;
  std::vector<double> scores;
  std::vector<uint8_t> attack;  // per row
};

/// A (possibly trained) model plus the train-fitted feature transforms, and
/// the one implementation of the evaluation protocol: transforms are fitted
/// on training rows only, then applied to test rows before scoring. The
/// train/predict ops, the Benchmark, the synthesis search and the streaming
/// "predict" all go through these members.
struct ModelValue {
  ml::ModelPtr model;
  /// The "model" op's parameters; train() builds its fresh model from them.
  Json params;
  bool normalize = false;
  bool decorrelate = false;
  std::shared_ptr<features::Normalizer> normalizer;
  std::shared_ptr<features::CorrelationFilter> corr_filter;

  /// A trained copy: imputes X, fits the enabled correlation filter and
  /// normalizer on it, then fits a fresh model built from `params`. `*this`
  /// is left untouched, so one untrained value can be trained on several
  /// tables. Error when no model was ever constructed.
  Result<ModelValue> train(features::FeatureTable X) const;

  /// X imputed and passed through the fitted transforms: the rows the
  /// model sees.
  features::FeatureTable transform(features::FeatureTable X) const;

  /// Scores transform(X) once and decides every row
  /// (ml::Model::score_and_decide). Requires `model`.
  Predictions predict(features::FeatureTable X) const;
};

/// Flat named metrics (the output of an "evaluate" op).
struct Metrics {
  std::vector<std::pair<std::string, double>> values;
  double get(const std::string& name, double fallback = 0.0) const {
    for (const auto& [k, v] : values) {
      if (k == name) return v;
    }
    return fallback;
  }
};

using Value = std::variant<PacketSet, GroupedPackets, FlowSet, ConnSet,
                           features::FeatureTable, ModelValue, Predictions,
                           Metrics>;

ValueKind kind_of(const Value& v);

/// Approximate resident bytes, for the engine's memory profile.
size_t value_bytes(const Value& v);

}  // namespace lumen::core
