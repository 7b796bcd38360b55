#include "core/stream_op.h"

#include <algorithm>
#include <map>

#include "common/flat_map.h"
#include "core/engine.h"
#include "core/kitsune_extractor.h"
#include "core/ops_common.h"
#include "features/transform.h"

namespace lumen::core {

namespace stream_detail {

using features::FeatureTable;

// ---- packet-phase operators ----------------------------------------------

/// "field_extract": the chain's source marker. Field validation happened at
/// compile time; at runtime it only forwards (kept as a chain node so the
/// lowered op list mirrors the spec and benches can measure prefixes).
class SourceOp final : public StreamOp {
 public:
  const char* name() const override { return "field_extract"; }
};

/// "filter": drop packets failing the batch op's PacketFilter.
class FilterOp final : public StreamOp {
 public:
  explicit FilterOp(const std::vector<std::string>& require)
      : keep_(require) {}
  const char* name() const override { return "filter"; }

  void push(PacketTuple& t) override {
    if (keep_(*t.view)) forward(t);
  }

 private:
  const PacketFilter keep_;
};

/// "groupby": dense group ids from the batch op's GroupDirectory: the same
/// first-occurrence order over the same slice, the same printable keys.
class GroupByOp final : public StreamOp {
 public:
  explicit GroupByOp(const GroupKey& key) : dir_(key) {}
  const char* name() const override { return "groupby"; }

  void push(PacketTuple& t) override {
    t.group = dir_.id_of(*t.view);
    forward(t);
  }

  void reset() override { dir_.clear(); }

  /// Printable key of a group id (valid for ids issued this stream).
  const std::string& key_of(uint32_t gid) const { return dir_.key_of(gid); }

 private:
  GroupDirectory dir_;
};

/// "time_slice" (align="global"): tumbling windows on the capture clock,
/// with one time origin shared by all groups — the first pushed packet's
/// timestamp, which is what the batch op's global alignment uses. When a
/// packet crosses into a later window, every downstream accumulator is
/// flushed for the completed epoch before the packet is forwarded. Packets
/// whose timestamp falls behind the current window (possible under capture
/// reordering) are clamped into it and counted as late — the streaming
/// path assumes in-order capture time; the batch engine would place them
/// in their true earlier window.
class TimeSliceOp final : public StreamOp {
 public:
  TimeSliceOp(double window, StreamPipeline::Counters* counts)
      : window_(window), counts_(counts) {}
  const char* name() const override { return "time_slice"; }

  void push(PacketTuple& t) override {
    const double ts = t.view->ts;
    if (!started_) {
      started_ = true;
      t0_ = ts;
      cur_w_ = 0;
    }
    int64_t w = window_index(ts, t0_, window_);
    if (w > static_cast<int64_t>(cur_w_)) {
      forward_flush(cur_w_);
      cur_w_ = static_cast<uint64_t>(w);
    } else if (w < static_cast<int64_t>(cur_w_)) {
      ++counts_->late;
      w = static_cast<int64_t>(cur_w_);
    }
    t.window = static_cast<uint64_t>(w);
    t.window_start = window_start(w, t0_, window_);
    forward(t);
  }

  void reset() override {
    started_ = false;
    t0_ = 0.0;
    cur_w_ = 0;
  }

 private:
  const double window_;
  StreamPipeline::Counters* counts_;
  bool started_ = false;
  double t0_ = 0.0;
  uint64_t cur_w_ = 0;
};

// ---- aggregation ---------------------------------------------------------

/// "apply_aggregates": one AggAccumulator per (group, window) unit, fed as
/// the batch op feeds it and flushed into one FeatureTable per epoch. State
/// is cleared after every flush, so memory is bounded by the groups active
/// within one window, not by stream length.
class AggregateOp final : public StreamOp {
 public:
  AggregateOp(AggPlan plan, const GroupByOp* groups, bool windowed)
      : plan_(std::move(plan)),
        groups_(groups),
        windowed_(windowed) {
    index_.reserve(64);
  }
  const char* name() const override { return "apply_aggregates"; }

  void push(PacketTuple& t) override {
    if (!open_) {
      open_ = true;
      epoch_ = t.window;
      window_start_ = t.window_start;
    }
    auto [slot, fresh] = index_.try_emplace(t.group, 0);
    if (fresh) {
      *slot = static_cast<uint32_t>(accs_.size());
      order_.push_back(t.group);
      accs_.emplace_back(plan_);
    }
    accs_[*slot].feed(*t.view);
    forward(t);
  }

  void flush_epoch(uint64_t epoch) override {
    if (open_) {
      telemetry::Span span(reg_, span_name_);
      EpochBatch b;
      b.epoch = epoch_;
      b.window_start = window_start_;
      b.table = FeatureTable::make(order_.size(), plan_.names);
      b.keys.reserve(order_.size());
      for (size_t r = 0; r < order_.size(); ++r) {
        AggAccumulator& acc = accs_[r];  // accs_ follows order_
        std::string key =
            groups_ != nullptr ? groups_->key_of(order_[r]) : "all";
        if (windowed_) {
          key += "#w" + std::to_string(static_cast<int64_t>(epoch_));
        }
        b.keys.push_back(std::move(key));
        for (size_t c = 0; c < b.table.cols; ++c) {
          b.table.at(r, c) = acc.finalize(c);
        }
        b.table.unit_id[r] = static_cast<int64_t>(row_seq_++);
        b.table.unit_time[r] = acc.first_ts();
      }
      span.set_value(b.table.rows);
      span.stop();
      clear_epoch();
      forward_rows(std::move(b));
    }
    forward_flush(epoch);
  }

  void reset() override {
    clear_epoch();
    row_seq_ = 0;
  }

 private:
  void clear_epoch() {
    index_.clear();
    index_.reserve(64);
    order_.clear();
    accs_.clear();
    open_ = false;
  }

  const AggPlan plan_;
  const GroupByOp* groups_;  // nullptr when the chain has no groupby
  const bool windowed_;

  FlatMap<uint32_t, uint32_t> index_;  // gid -> position in accs_
  std::vector<uint32_t> order_;        // first-arrival order within the epoch
  std::vector<AggAccumulator> accs_;
  bool open_ = false;
  uint64_t epoch_ = 0;
  double window_start_ = 0.0;
  uint64_t row_seq_ = 0;
};

// ---- per-packet feature producers ----------------------------------------

/// Shared frame for damped_stats / packet_features: rows buffer up to the
/// micro-batch size, then flow downstream as one EpochBatch (epoch = batch
/// sequence number). The buffered block is what Plan::score_rows consumes
/// in one call — the same micro-batch staging the ingest runtime's
/// score_batch loop uses.
class RowBufferOp : public StreamOp {
 public:
  RowBufferOp(std::vector<std::string> names, size_t micro_batch)
      : names_(std::move(names)),
        micro_batch_(micro_batch == 0 ? 1 : micro_batch) {
    dim_ = names_.size();
  }

  void flush_epoch(uint64_t epoch) override {
    emit();
    forward_flush(epoch);
  }

  void reset() override {
    data_.clear();
    unit_id_.clear();
    unit_time_.clear();
    seq_ = 0;
  }

 protected:
  void add_row(const double* row, int64_t unit_id, double ts) {
    data_.insert(data_.end(), row, row + dim_);
    unit_id_.push_back(unit_id);
    unit_time_.push_back(ts);
    if (unit_id_.size() >= micro_batch_) emit();
  }

  void emit() {
    const size_t m = unit_id_.size();
    if (m == 0) return;
    telemetry::Span span(reg_, span_name_);
    EpochBatch b;
    b.epoch = seq_++;
    b.window_start = unit_time_.front();
    b.table = FeatureTable::make(m, names_);
    b.table.data = std::move(data_);
    b.table.unit_id = std::move(unit_id_);
    b.table.unit_time = std::move(unit_time_);
    data_ = {};
    unit_id_ = {};
    unit_time_ = {};
    span.set_value(m);
    span.stop();
    forward_rows(std::move(b));
  }

  std::vector<std::string> names_;
  size_t dim_ = 0;
  const size_t micro_batch_;
  std::vector<double> data_;
  std::vector<int64_t> unit_id_;
  std::vector<double> unit_time_;
  uint64_t seq_ = 0;
};

/// "damped_stats": the Kitsune extractor, row per packet. Starts from fresh
/// statistics like the batch op does on its input slice; unit_id carries
/// the capture index (the live-meaningful identifier).
class DampedStatsOp final : public RowBufferOp {
 public:
  DampedStatsOp(std::vector<double> lambdas, size_t micro_batch)
      : RowBufferOp(KitsuneExtractor(lambdas).feature_names(), micro_batch),
        extractor_(lambdas) {}
  const char* name() const override { return "damped_stats"; }

  void push(PacketTuple& t) override {
    extractor_.process(*t.view, row_);
    add_row(row_.data(), static_cast<int64_t>(t.view->index), t.view->ts);
  }

  void reset() override {
    RowBufferOp::reset();
    extractor_.reset();
  }

 private:
  KitsuneExtractor extractor_;
  std::vector<double> row_;
};

/// "packet_features": the batch op's PacketFeatureRow, one row per packet
/// ("iat" is the gap from the previous packet this op saw).
class PacketFeaturesOp final : public RowBufferOp {
 public:
  PacketFeaturesOp(PacketFeatureRow row, size_t micro_batch)
      : RowBufferOp(row.names(), micro_batch), row_(std::move(row)) {
    buf_.resize(dim_);
  }
  const char* name() const override { return "packet_features"; }

  void push(PacketTuple& t) override {
    row_.fill(*t.view, buf_.data());
    add_row(buf_.data(), static_cast<int64_t>(t.view->index), t.view->ts);
  }

  void reset() override {
    RowBufferOp::reset();
    row_.reset();
  }

 private:
  PacketFeatureRow row_;
  std::vector<double> buf_;
};

// ---- row-phase operators -------------------------------------------------

/// "normalize": refit on each epoch's rows — identical to running the batch
/// op on that epoch's slice. min-max fits are order-independent, so the
/// result matches the batch fit over the same rows regardless of row order.
/// The batch op's whole-table fit has no windowed streaming equivalent —
/// the evaluation protocol's train-frozen normalization (model op with
/// normalize=true) is the exactly-equivalent alternative.
class NormalizeOp final : public StreamOp {
 public:
  explicit NormalizeOp(features::NormKind kind) : kind_(kind) {}
  const char* name() const override { return "normalize"; }

  void push_rows(EpochBatch&& b) override {
    if (b.table.rows > 0) {
      telemetry::Span span(reg_, span_name_);
      features::Normalizer norm(kind_);
      norm.fit(b.table);
      norm.apply(b.table);
      span.set_value(b.table.rows);
    }
    forward_rows(std::move(b));
  }

 private:
  const features::NormKind kind_;
};

/// "predict": score each epoch's rows with the seeded batch-trained model
/// through ModelValue::predict, the batch op's own protocol, on a copy, so
/// the emitted aggregates stay raw. Model::score keeps row i's score
/// independent of which rows share the table, so scoring epoch-by-epoch
/// equals the batch engine's whole-table pass row for row.
class ScoreOp final : public StreamOp {
 public:
  explicit ScoreOp(ModelValue mv) : mv_(std::move(mv)) {}
  const char* name() const override { return "predict"; }

  void push_rows(EpochBatch&& b) override {
    if (b.table.rows > 0) {
      telemetry::Span span(reg_, span_name_);
      Predictions p = mv_.predict(b.table);
      b.scores = std::move(p.scores);
      b.predictions = std::move(p.y_pred);
      b.scored = true;
      span.set_value(b.table.rows);
    }
    forward_rows(std::move(b));
  }

 private:
  ModelValue mv_;
};

/// Terminal: hand the finished epoch to the embedder and keep the chain's
/// counters (and, when instrumented, the registry mirrors) up to date.
class EmitOp final : public StreamOp {
 public:
  EmitOp(StreamPipeline::Counters* counts, telemetry::Registry* reg,
         const std::string& prefix)
      : counts_(counts) {
    if (reg != nullptr) {
      packets_ctr_ = &reg->counter(prefix + "packets");
      rows_ctr_ = &reg->counter(prefix + "rows");
      epochs_ctr_ = &reg->counter(prefix + "epochs");
      alerts_ctr_ = &reg->counter(prefix + "alerts");
      late_ctr_ = &reg->counter(prefix + "late_packets");
    }
  }
  const char* name() const override { return "emit"; }

  void set_callback(StreamPipeline::EpochCallback cb) { cb_ = std::move(cb); }

  void push_rows(EpochBatch&& b) override {
    counts_->rows += b.table.rows;
    counts_->epochs += 1;
    uint64_t alerts = 0;
    for (const int p : b.predictions) alerts += p != 0 ? 1 : 0;
    counts_->alerts += alerts;
    if (rows_ctr_ != nullptr) {
      rows_ctr_->add(b.table.rows);
      epochs_ctr_->add(1);
      if (alerts != 0) alerts_ctr_->add(alerts);
      packets_ctr_->add(counts_->packets - mirrored_packets_);
      mirrored_packets_ = counts_->packets;
      if (counts_->late != mirrored_late_) {
        late_ctr_->add(counts_->late - mirrored_late_);
        mirrored_late_ = counts_->late;
      }
    }
    if (cb_) cb_(std::move(b));
  }

  void flush_epoch(uint64_t epoch) override {
    if (packets_ctr_ != nullptr && epoch == kFlushAll) {
      packets_ctr_->add(counts_->packets - mirrored_packets_);
      mirrored_packets_ = counts_->packets;
    }
  }

  void reset() override {
    mirrored_packets_ = 0;
    mirrored_late_ = 0;
  }

 private:
  StreamPipeline::Counters* counts_;
  StreamPipeline::EpochCallback cb_;
  telemetry::Counter* packets_ctr_ = nullptr;
  telemetry::Counter* rows_ctr_ = nullptr;
  telemetry::Counter* epochs_ctr_ = nullptr;
  telemetry::Counter* alerts_ctr_ = nullptr;
  telemetry::Counter* late_ctr_ = nullptr;
  uint64_t mirrored_packets_ = 0;
  uint64_t mirrored_late_ = 0;
};

}  // namespace stream_detail

// ---- StreamPipeline ------------------------------------------------------

void StreamPipeline::set_callback(EpochCallback cb) {
  emit_->set_callback(std::move(cb));
}

void StreamPipeline::push(const netio::PacketView& v) {
  PacketTuple t;
  t.view = &v;
  ++counts_.packets;
  front_->push(t);
}

void StreamPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  front_->flush_epoch(kFlushAll);
}

void StreamPipeline::reset() {
  for (auto& op : ops_) op->reset();
  counts_ = Counters{};
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
  GroupByOp* groupby = nullptr;
  bool windowed = false;
  bool have_rows = false;  // chain switched from packets to feature rows
  std::string last_out;
  static const std::map<std::string, ChainPlace> kChainPlaces = {
      {"filter", {false, 0}},       {"groupby", {false, 0}},
      {"time_slice", {false, 0}},   {"apply_aggregates", {false, 0}},
      {"damped_stats", {false, 0}}, {"packet_features", {false, 0}},
      {"normalize", {true, 0}},     {"predict", {true, 1}}};

  for (size_t i = 0; i < spec.ops.size(); ++i) {
    const OpSpec& op = spec.ops[i];
    std::unique_ptr<StreamOp> lowered;

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
      if (reads_rows != have_rows || input >= op.inputs.size() ||
          op.inputs[input] != last_out) {
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
      lowered = std::make_unique<SourceOp>();
    } else if (op.func == "filter") {
      lowered =
          std::make_unique<FilterOp>(op.params.get_string_list("require"));
    } else if (op.func == "groupby") {
      std::vector<std::string> keys = op.params.get_string_list("flowid");
      if (keys.empty()) keys = op.params.get_string_list("key");
      if (keys.empty()) return lower_error(i, op, "missing 'flowid' param");
      const Result<const GroupKey*> key =
          find_group_key(keys.front(), "groupby");
      if (!key.ok()) return key.error();
      auto gb = std::make_unique<GroupByOp>(*key.value());
      groupby = gb.get();
      lowered = std::move(gb);
    } else if (op.func == "time_slice") {
      if (windowed) {
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
      windowed = true;
      lowered = std::make_unique<TimeSliceOp>(window.value(), &pipe->counts_);
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
      have_rows = true;
      lowered = std::make_unique<AggregateOp>(std::move(plan).value(),
                                              groupby, windowed);
    } else if (op.func == "normalize") {
      const std::string kind = op.params.get_string("kind", "minmax");
      if (op.params.get_string("mode", "epoch") != "epoch") {
        return lower_error(i, op,
                           "mode must be \"epoch\" (refit per window — the "
                           "batch op on that window's rows); for statistics "
                           "frozen at training time, set the model op's "
                           "\"normalize\": true instead");
      }
      lowered = std::make_unique<NormalizeOp>(
          kind == "zscore" ? features::NormKind::kZScore
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
      lowered = std::make_unique<ScoreOp>(*mv);
    } else if (op.func == "damped_stats" || op.func == "packet_features") {
      if (op.func == "damped_stats") {
        lowered = std::make_unique<DampedStatsOp>(
            op.params.get_number_list("lambdas"), opts.micro_batch);
      } else {
        Result<PacketFeatureRow> row = PacketFeatureRow::build(op);
        if (!row.ok()) return row.error();
        lowered = std::make_unique<PacketFeaturesOp>(std::move(row).value(),
                                                     opts.micro_batch);
      }
      have_rows = true;
    } else {
      return lower_error(
          i, op,
          "batch-only operation — it needs the whole run resident (flow "
          "reassembly, table surgery, evaluation, or I/O) and cannot be "
          "lowered to the streaming engine; supported ops: " +
              std::string(kSupportedOps));
    }

    lowered->set_telemetry(opts.registry,
                           opts.instrument_prefix + "op." + op.func);
    pipe->ops_.push_back(std::move(lowered));
    last_out = op.output;
  }

  if (!have_rows) {
    return Error::make(
        "compile_streaming",
        "pipeline produces no streaming rows — end the chain with "
        "apply_aggregates, damped_stats, or packet_features (optionally "
        "followed by normalize / predict)");
  }

  auto emit = std::make_unique<stream_detail::EmitOp>(
      &pipe->counts_, opts.registry, opts.instrument_prefix);
  pipe->emit_ = emit.get();
  pipe->ops_.push_back(std::move(emit));
  for (size_t i = 0; i + 1 < pipe->ops_.size(); ++i) {
    pipe->ops_[i]->set_next(pipe->ops_[i + 1].get());
  }
  pipe->front_ = pipe->ops_.front().get();
  return pipe;
}

}  // namespace lumen::core
