#include "core/stream_op.h"

#include <algorithm>
#include <map>
#include <optional>
#include <variant>

#include "common/flat_map.h"
#include "core/engine.h"
#include "core/kitsune_extractor.h"
#include "core/ops_common.h"
#include "features/transform.h"

namespace lumen::core {

namespace stream_detail {

using features::FeatureTable;

/// The clock of time_slice (align="global"): tumbling windows of `width` s
/// from one time origin shared by all groups, the first packet's timestamp,
/// which is what the batch op's global alignment uses.
struct WindowClock {
  double width = 0.0;  // 0: the chain has no time_slice
  bool started = false;
  double t0 = 0.0;
  uint64_t window = 0;  // the open window

  double start() const {
    return window_start(static_cast<int64_t>(window), t0, width);
  }
};

/// The row producer of a chain: the one stage that turns packets into rows.
class Producer {
 public:
  virtual ~Producer() = default;
  /// Feed one packet of group `group` (0 without a groupby); true when the
  /// rows now fill a micro-batch.
  virtual bool push(const netio::PacketView& v, uint32_t group) = 0;
  virtual bool empty() const = 0;
  /// Move the rows produced since the last take() into `b`.
  virtual void take(EpochBatch& b) = 0;
  /// Release what take() left behind (outside the producer's span).
  virtual void clear() {}
  /// Forget the stream: row numbers and per-packet state too.
  virtual void reset() = 0;
};

/// "apply_aggregates": one AggAccumulator per group of the open window, fed
/// as the batch op feeds it; take() finalizes one row per group in
/// first-arrival order. clear() drops the accumulators after every flush,
/// so memory is bounded by the groups active within one window, not by
/// stream length.
class Aggregator final : public Producer {
 public:
  Aggregator(AggPlan plan, const GroupDirectory* groups,
             const WindowClock* clock)
      : plan_(std::move(plan)), groups_(groups), clock_(clock) {
    index_.reserve(64);
  }

  bool push(const netio::PacketView& v, uint32_t group) override {
    auto [slot, fresh] = index_.try_emplace(group, 0);
    if (fresh) {
      *slot = static_cast<uint32_t>(accs_.size());
      order_.push_back(group);
      accs_.emplace_back(plan_);
    }
    accs_[*slot].feed(v);
    return false;
  }

  bool empty() const override { return accs_.empty(); }

  void take(EpochBatch& b) override {
    b.epoch = clock_ != nullptr ? clock_->window : 0;
    b.window_start = clock_ != nullptr ? clock_->start() : 0.0;
    b.table = FeatureTable::make(order_.size(), plan_.names);
    b.keys.reserve(order_.size());
    for (size_t r = 0; r < order_.size(); ++r) {
      AggAccumulator& acc = accs_[r];  // accs_ follows order_
      std::string key =
          groups_ != nullptr ? groups_->key_of(order_[r]) : "all";
      if (clock_ != nullptr) {
        key += "#w" + std::to_string(static_cast<int64_t>(b.epoch));
      }
      b.keys.push_back(std::move(key));
      for (size_t c = 0; c < b.table.cols; ++c) {
        b.table.at(r, c) = acc.finalize(c);
      }
      b.table.unit_id[r] = static_cast<int64_t>(row_seq_++);
      b.table.unit_time[r] = acc.first_ts();
    }
  }

  void clear() override {
    index_.clear();
    index_.reserve(64);
    order_.clear();
    accs_.clear();
  }

  void reset() override {
    clear();
    row_seq_ = 0;
  }

 private:
  const AggPlan plan_;
  const GroupDirectory* groups_;  // nullptr when the chain has no groupby
  const WindowClock* clock_;      // nullptr when it has no time_slice

  FlatMap<uint32_t, uint32_t> index_;  // gid -> position in accs_
  std::vector<uint32_t> order_;        // first-arrival order within the epoch
  std::vector<AggAccumulator> accs_;
  uint64_t row_seq_ = 0;
};

/// "damped_stats" (the Kitsune extractor) / "packet_features" (the batch
/// op's PacketFeatureRow): one row per packet, buffered up to the
/// micro-batch size and taken as one EpochBatch (epoch = batch sequence
/// number, unit_id = capture index). The block is what Plan::score_rows
/// consumes in one call — the micro-batch staging of the ingest runtime's
/// score_batch loop. Extraction starts from fresh statistics, as the batch
/// op does on its input slice; "iat" is the gap from the previous packet.
class RowBuffer final : public Producer {
 public:
  using Source = std::variant<KitsuneExtractor, PacketFeatureRow>;

  RowBuffer(Source source, size_t micro_batch)
      : source_(std::move(source)),
        names_(std::holds_alternative<KitsuneExtractor>(source_)
                   ? std::get<KitsuneExtractor>(source_).feature_names()
                   : std::get<PacketFeatureRow>(source_).names()),
        micro_batch_(micro_batch == 0 ? 1 : micro_batch),
        row_(names_.size()) {}

  bool push(const netio::PacketView& v, uint32_t) override {
    if (auto* ex = std::get_if<KitsuneExtractor>(&source_)) {
      ex->process(v, row_);
    } else {
      std::get<PacketFeatureRow>(source_).fill(v, row_.data());
    }
    data_.insert(data_.end(), row_.begin(), row_.end());
    unit_id_.push_back(static_cast<int64_t>(v.index));
    unit_time_.push_back(v.ts);
    return unit_id_.size() >= micro_batch_;
  }

  bool empty() const override { return unit_id_.empty(); }

  void take(EpochBatch& b) override {
    b.epoch = seq_++;
    b.window_start = unit_time_.front();
    b.table = FeatureTable::make(unit_id_.size(), names_);
    b.table.data = std::move(data_);
    b.table.unit_id = std::move(unit_id_);
    b.table.unit_time = std::move(unit_time_);
    data_ = {};
    unit_id_ = {};
    unit_time_ = {};
  }

  void reset() override {
    data_.clear();
    unit_id_.clear();
    unit_time_.clear();
    seq_ = 0;
    std::visit([](auto& s) { s.reset(); }, source_);
  }

 private:
  Source source_;
  std::vector<std::string> names_;
  const size_t micro_batch_;
  std::vector<double> row_;
  std::vector<double> data_;
  std::vector<int64_t> unit_id_;
  std::vector<double> unit_time_;
  uint64_t seq_ = 0;
};

/// The stages lowered from one spec, each kind in spec order.
struct Stages {
  std::vector<PacketFilter> filters;
  std::optional<GroupDirectory> groups;
  WindowClock clock;
  std::unique_ptr<Producer> producer;
  /// "normalize": refit on each epoch's rows — identical to running the
  /// batch op on that epoch's slice (min-max fits are order-independent).
  std::vector<features::NormKind> norms;
  /// "predict": the seeded batch-trained model, scoring each epoch through
  /// ModelValue::predict (the batch op's protocol) on a copy, so the rows
  /// stay as emitted. A row's score does not depend on which rows share
  /// its table, so epoch-by-epoch scoring equals the batch whole-table pass.
  std::optional<ModelValue> model;

  /// Instruments; all null without a registry.
  telemetry::Registry* reg = nullptr;
  std::string producer_span, normalize_span, predict_span;
  telemetry::Counter* packets = nullptr;
  telemetry::Counter* rows = nullptr;
  telemetry::Counter* epochs = nullptr;
  telemetry::Counter* alerts = nullptr;
  telemetry::Counter* late = nullptr;
  StreamPipeline::Counters mirrored;  // counter values already added
};

}  // namespace stream_detail

namespace {

/// Add to `ctr` what `now` gained since `seen`, and catch `seen` up.
void mirror(telemetry::Counter* ctr, uint64_t now, uint64_t& seen) {
  ctr->add(now - seen);
  seen = now;
}

}  // namespace

// ---- StreamPipeline ------------------------------------------------------

StreamPipeline::StreamPipeline()
    : stages_(std::make_unique<stream_detail::Stages>()) {}

StreamPipeline::~StreamPipeline() = default;

void StreamPipeline::set_callback(EpochCallback cb) { cb_ = std::move(cb); }

void StreamPipeline::push(const netio::PacketView& v) {
  stream_detail::Stages& s = *stages_;
  ++counts_.packets;
  for (const PacketFilter& keep : s.filters) {
    if (!keep(v)) return;
  }
  const uint32_t group = s.groups ? s.groups->id_of(v) : 0;
  if (s.clock.width > 0.0) {
    // A packet in a later window closes the open one first. One whose
    // timestamp falls behind it (capture reordering) is clamped into it and
    // counted as late — the streaming path assumes in-order capture time;
    // the batch engine would place it in its true earlier window.
    if (!s.clock.started) {
      s.clock.started = true;
      s.clock.t0 = v.ts;
    }
    const int64_t w = window_index(v.ts, s.clock.t0, s.clock.width);
    if (w > static_cast<int64_t>(s.clock.window)) {
      flush();
      s.clock.window = static_cast<uint64_t>(w);
    } else if (w < static_cast<int64_t>(s.clock.window)) {
      ++counts_.late;
    }
  }
  if (s.producer->push(v, group)) flush();
}

void StreamPipeline::flush() {
  stream_detail::Stages& s = *stages_;
  if (s.producer->empty()) return;
  EpochBatch b;
  {
    telemetry::Span span(s.reg, s.producer_span);
    s.producer->take(b);
    span.set_value(b.table.rows);
    span.stop();
    s.producer->clear();
  }
  for (const features::NormKind kind : s.norms) {
    telemetry::Span span(s.reg, s.normalize_span);
    features::Normalizer norm(kind);
    norm.fit(b.table);
    norm.apply(b.table);
    span.set_value(b.table.rows);
  }
  if (s.model) {
    telemetry::Span span(s.reg, s.predict_span);
    Predictions p = s.model->predict(b.table);
    b.scores = std::move(p.scores);
    b.predictions = std::move(p.y_pred);
    b.scored = true;
    span.set_value(b.table.rows);
  }
  counts_.rows += b.table.rows;
  counts_.epochs += 1;
  for (const int p : b.predictions) counts_.alerts += p != 0 ? 1 : 0;
  if (s.reg != nullptr) {
    mirror(s.packets, counts_.packets, s.mirrored.packets);
    mirror(s.rows, counts_.rows, s.mirrored.rows);
    mirror(s.epochs, counts_.epochs, s.mirrored.epochs);
    mirror(s.alerts, counts_.alerts, s.mirrored.alerts);
    mirror(s.late, counts_.late, s.mirrored.late);
  }
  if (cb_) cb_(std::move(b));
}

void StreamPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  flush();
  stream_detail::Stages& s = *stages_;
  if (s.reg != nullptr) {
    mirror(s.packets, counts_.packets, s.mirrored.packets);
  }
}

void StreamPipeline::reset() {
  stream_detail::Stages& s = *stages_;
  if (s.groups) s.groups->clear();
  s.clock = {s.clock.width};
  s.producer->reset();
  s.mirrored = {};
  counts_ = {};
  finished_ = false;
}

// ---- compile_streaming ---------------------------------------------------

namespace {

constexpr const char* kSupportedOps =
    "field_extract, filter, groupby, time_slice (align=\"global\"), "
    "apply_aggregates, normalize, predict, damped_stats, packet_features";

Error lower_error(size_t i, const OpSpec& op, const std::string& msg) {
  return Error::make("compile_streaming", "op #" + std::to_string(i) + " ('" +
                                              op.func + "'): " + msg);
}

/// Where a lowerable op after the source sits in a linear chain: whether it
/// reads the rows a producer emitted (normalize, predict) or the packets
/// before them, and which input slot carries the chain (predict's slot 0 is
/// its model).
struct ChainPlace {
  bool reads_rows;
  size_t input;
};

}  // namespace

Result<std::unique_ptr<StreamPipeline>> compile_streaming(
    const PipelineSpec& spec, StreamingOptions opts) {
  // The batch engine's static analysis runs first, seeded with the same
  // bindings: unknown ops, broken wiring, and kind mismatches fail here
  // with the engine's own diagnostics before lowering even starts.
  {
    Engine::Options eopts;
    eopts.registry = nullptr;
    Result<void> tc = Engine(eopts).type_check(spec, &opts.bindings);
    if (!tc.ok()) return tc.error();
  }
  if (spec.ops.empty()) {
    return Error::make("compile_streaming", "empty pipeline");
  }

  auto pipe = std::make_unique<StreamPipeline>();
  using namespace stream_detail;
  Stages& st = *pipe->stages_;
  std::string last_out;
  static const std::map<std::string, ChainPlace> kChainPlaces = {
      {"filter", {false, 0}},       {"groupby", {false, 0}},
      {"time_slice", {false, 0}},   {"apply_aggregates", {false, 0}},
      {"damped_stats", {false, 0}}, {"packet_features", {false, 0}},
      {"normalize", {true, 0}},     {"predict", {true, 1}}};

  for (size_t i = 0; i < spec.ops.size(); ++i) {
    const OpSpec& op = spec.ops[i];

    if (op.func == "model" || op.func == "train") {
      return lower_error(
          i, op,
          "training is batch-only — run the batch Engine once, keep the "
          "trained binding, and seed it through StreamingOptions::bindings "
          "(Engine::run accepts the same map)");
    }

    if (const auto place = kChainPlaces.find(op.func);
        place != kChainPlaces.end()) {
      const auto [reads_rows, input] = place->second;
      if (reads_rows != (st.producer != nullptr) ||
          input >= op.inputs.size() || op.inputs[input] != last_out) {
        return lower_error(i, op,
                           "streaming lowering supports linear chains only: "
                           "each op reads the previous op's output, packet "
                           "ops come before the rows and normalize / "
                           "predict after them");
      }
    }

    if (op.func == "field_extract") {
      if (i != 0 || !op.inputs.empty()) {
        return lower_error(i, op,
                           "must be the chain's first operation with no "
                           "input (it is the stream source)");
      }
      const Result<void> fields = check_extract_fields(op);
      if (!fields.ok()) return fields.error();
    } else if (op.func == "filter") {
      st.filters.emplace_back(op.params.get_string_list("require"));
    } else if (op.func == "groupby") {
      std::vector<std::string> keys = op.params.get_string_list("flowid");
      if (keys.empty()) keys = op.params.get_string_list("key");
      if (keys.empty()) return lower_error(i, op, "missing 'flowid' param");
      const Result<const GroupKey*> key =
          find_group_key(keys.front(), "groupby");
      if (!key.ok()) return key.error();
      st.groups.emplace(*key.value());
    } else if (op.func == "time_slice") {
      if (st.clock.width > 0.0) {
        return lower_error(i, op, "only one time_slice stage can be lowered");
      }
      const Result<double> window = window_param(op);
      if (!window.ok()) return window.error();
      const std::string align = op.params.get_string("align", "group");
      if (align != "global") {
        return lower_error(
            i, op,
            "streaming lowering requires align=\"global\" — per-group window "
            "phases have no shared epoch boundary to flush on; set "
            "{\"align\": \"global\"} in the spec (the batch engine honors "
            "the same parameter, so both paths stay comparable)");
      }
      st.clock.width = window.value();
    } else if (op.func == "apply_aggregates") {
      const std::vector<AggSpec> aggs = parse_agg_list(op.params);
      if (std::any_of(aggs.begin(), aggs.end(),
                      [](const AggSpec& a) { return a.func == "median"; })) {
        return lower_error(i, op,
                           "aggregate func 'median' is batch-only (it needs "
                           "the whole window resident); use "
                           "mean/std/min/max/... in streaming specs");
      }
      Result<AggPlan> plan = AggPlan::build(aggs, op.func);
      if (!plan.ok()) return plan.error();
      st.producer = std::make_unique<Aggregator>(
          std::move(plan).value(), st.groups ? &*st.groups : nullptr,
          st.clock.width > 0.0 ? &st.clock : nullptr);
      st.producer_span = opts.instrument_prefix + "op." + op.func;
    } else if (op.func == "normalize") {
      const std::string kind = op.params.get_string("kind", "minmax");
      if (op.params.get_string("mode", "epoch") != "epoch") {
        return lower_error(i, op,
                           "mode must be \"epoch\" (refit per window — the "
                           "batch op on that window's rows); for statistics "
                           "frozen at training time, set the model op's "
                           "\"normalize\": true instead");
      }
      st.norms.push_back(kind == "zscore" ? features::NormKind::kZScore
                                          : features::NormKind::kMinMax);
    } else if (op.func == "predict") {
      const std::string& mname = op.inputs.empty() ? "" : op.inputs[0];
      auto it = opts.bindings.find(mname);
      if (it == opts.bindings.end()) {
        return lower_error(i, op,
                           "model binding '" + mname +
                               "' not found in StreamingOptions::bindings — "
                               "train it with the batch Engine and seed the "
                               "trained ModelValue here");
      }
      const ModelValue* mv = std::get_if<ModelValue>(&it->second);
      if (mv == nullptr || !mv->model) {
        return lower_error(i, op,
                           "binding '" + mname +
                               "' is not a constructed ModelValue");
      }
      st.model = *mv;
    } else if (op.func == "damped_stats") {
      st.producer = std::make_unique<RowBuffer>(
          KitsuneExtractor(op.params.get_number_list("lambdas")),
          opts.micro_batch);
      st.producer_span = opts.instrument_prefix + "op." + op.func;
    } else if (op.func == "packet_features") {
      Result<PacketFeatureRow> row = PacketFeatureRow::build(op);
      if (!row.ok()) return row.error();
      st.producer = std::make_unique<RowBuffer>(std::move(row).value(),
                                                opts.micro_batch);
      st.producer_span = opts.instrument_prefix + "op." + op.func;
    } else {
      return lower_error(
          i, op,
          "batch-only operation — it needs the whole run resident (flow "
          "reassembly, table surgery, evaluation, or I/O) and cannot be "
          "lowered to the streaming engine; supported ops: " +
              std::string(kSupportedOps));
    }
    last_out = op.output;
  }

  if (st.producer == nullptr) {
    return Error::make(
        "compile_streaming",
        "pipeline produces no streaming rows — end the chain with "
        "apply_aggregates, damped_stats, or packet_features (optionally "
        "followed by normalize / predict)");
  }

  const std::string& prefix = opts.instrument_prefix;
  st.normalize_span = prefix + "op.normalize";
  st.predict_span = prefix + "op.predict";
  if (opts.registry != nullptr) {
    telemetry::Registry& reg = *opts.registry;
    st.reg = &reg;
    st.packets = &reg.counter(prefix + "packets");
    st.rows = &reg.counter(prefix + "rows");
    st.epochs = &reg.counter(prefix + "epochs");
    st.alerts = &reg.counter(prefix + "alerts");
    st.late = &reg.counter(prefix + "late_packets");
  }
  return pipe;
}

}  // namespace lumen::core
