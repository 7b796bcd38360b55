#include "core/value.h"

#include "core/models.h"

namespace lumen::core {

Result<ModelValue> ModelValue::train(features::FeatureTable X) const {
  if (!model) return Error::make("train", "model was never constructed");
  Result<ModelValue> out = make_model(params);
  if (!out.ok()) return out.error();
  ModelValue& mv = out.value();
  features::impute_non_finite(X);
  if (mv.decorrelate) {
    mv.corr_filter = std::make_shared<features::CorrelationFilter>();
    mv.corr_filter->fit(X);
    X = mv.corr_filter->apply(X);
  }
  if (mv.normalize) {
    mv.normalizer = std::make_shared<features::Normalizer>();
    mv.normalizer->fit(X);
    mv.normalizer->apply(X);
  }
  mv.model->fit(X);
  return out;
}

features::FeatureTable ModelValue::transform(features::FeatureTable X) const {
  features::impute_non_finite(X);
  if (corr_filter) X = corr_filter->apply(X);
  if (normalizer) normalizer->apply(X);
  return X;
}

Predictions ModelValue::predict(features::FeatureTable X) const {
  X = transform(std::move(X));
  Predictions p;
  ml::Scored s = model->score_and_decide(X);
  p.scores = std::move(s.scores);
  p.y_pred = std::move(s.decisions);
  p.y_true = std::move(X.labels);
  p.attack = std::move(X.attack);
  return p;
}

const char* value_kind_name(ValueKind k) {
  switch (k) {
    case ValueKind::kPacketSet: return "PacketSet";
    case ValueKind::kGroupedPackets: return "GroupedPackets";
    case ValueKind::kFlowSet: return "FlowSet";
    case ValueKind::kConnSet: return "ConnSet";
    case ValueKind::kFeatureTable: return "FeatureTable";
    case ValueKind::kModel: return "Model";
    case ValueKind::kPredictions: return "Predictions";
    case ValueKind::kMetrics: return "Metrics";
    case ValueKind::kAny: return "Any";
  }
  return "?";
}

ValueKind kind_of(const Value& v) {
  return static_cast<ValueKind>(v.index());
}

size_t value_bytes(const Value& v) {
  struct Visitor {
    size_t operator()(const PacketSet& p) const {
      return p.idx.size() * sizeof(uint32_t);
    }
    size_t operator()(const GroupedPackets& g) const {
      size_t n = 0;
      for (const Group& gr : g.groups) {
        n += gr.key.size() + gr.idx.size() * sizeof(uint32_t);
      }
      return n;
    }
    size_t operator()(const FlowSet& f) const {
      size_t n = f.flows.size() * sizeof(flow::Flow);
      for (const auto& fl : f.flows) n += fl.pkts.size() * sizeof(uint32_t);
      return n;
    }
    size_t operator()(const ConnSet& c) const {
      size_t n = c.conns.size() * (sizeof(flow::Connection) +
                                   sizeof(flow::ConnRecord));
      for (const auto& cn : c.conns) {
        n += cn.pkts.size() * (sizeof(uint32_t) + 1);
      }
      return n;
    }
    size_t operator()(const features::FeatureTable& t) const {
      return t.byte_size();
    }
    size_t operator()(const ModelValue&) const { return 1024; }
    size_t operator()(const Predictions& p) const {
      return p.y_true.size() * (2 * sizeof(int) + sizeof(double) + 1);
    }
    size_t operator()(const Metrics& m) const {
      return m.values.size() * 32;
    }
  };
  return std::visit(Visitor{}, v);
}

}  // namespace lumen::core
