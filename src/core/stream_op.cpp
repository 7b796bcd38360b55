#include "core/stream_op.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/flat_map.h"
#include "core/engine.h"
#include "core/kitsune_extractor.h"
#include "core/ops_common.h"
#include "features/stats.h"
#include "features/transform.h"
#include "ml/compiled.h"
#include "ml/kitnet.h"

namespace lumen::core {

namespace stream_detail {

using features::FeatureTable;
using netio::PacketView;

// ---- packet-phase operators ----------------------------------------------

/// "field_extract": the chain's source marker. Field validation happened at
/// compile time; at runtime it only forwards (kept as a chain node so the
/// lowered op list mirrors the spec and benches can measure prefixes).
class SourceOp final : public StreamOp {
 public:
  const char* name() const override { return "field_extract"; }
};

/// "filter": drop packets failing any `require` field (same semantics as
/// the batch op — a requirement holds when the field exists and is != 0).
class FilterOp final : public StreamOp {
 public:
  explicit FilterOp(std::vector<std::string> require)
      : require_(std::move(require)) {}
  const char* name() const override { return "filter"; }

  void push(PacketTuple& t) override {
    for (const std::string& req : require_) {
      double val = 0.0;
      if (!packet_field(*t.view, req, &val) || val == 0.0) return;
    }
    forward(t);
  }

 private:
  std::vector<std::string> require_;
};

/// "groupby": assign each packet a dense group id via a packed numeric key
/// (one FlatMap probe per packet, no string building on the hot path). The
/// printable key — what the batch op and the emitted rows use — is computed
/// once, on first sight of a group. Ids are issued in first-occurrence
/// order, which is exactly the batch op's group order over the same slice.
class GroupByOp final : public StreamOp {
 public:
  GroupByOp(std::function<Key128(const PacketView&)> packed,
            std::function<std::string(const PacketView&)> printable)
      : packed_(std::move(packed)), printable_(std::move(printable)) {
    ids_.reserve(64);
  }
  const char* name() const override { return "groupby"; }

  void push(PacketTuple& t) override {
    auto [slot, fresh] = ids_.try_emplace(packed_(*t.view), 0);
    if (fresh) {
      *slot = static_cast<uint32_t>(keys_.size());
      keys_.push_back(printable_(*t.view));
    }
    t.group = *slot;
    forward(t);
  }

  void reset() override {
    ids_.clear();
    keys_.clear();
    ids_.reserve(64);
  }

  /// Printable key of a group id (valid for ids issued this stream).
  const std::string& key_of(uint32_t gid) const { return keys_[gid]; }

  size_t group_count() const { return keys_.size(); }

 private:
  std::function<Key128(const PacketView&)> packed_;
  std::function<std::string(const PacketView&)> printable_;
  FlatMap<Key128, uint32_t> ids_;
  std::vector<std::string> keys_;  // gid -> printable key
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
    int64_t w = static_cast<int64_t>((ts - t0_) / window_);
    if (w > static_cast<int64_t>(cur_w_)) {
      forward_flush(cur_w_);
      cur_w_ = static_cast<uint64_t>(w);
    } else if (w < static_cast<int64_t>(cur_w_)) {
      ++counts_->late;
      w = static_cast<int64_t>(cur_w_);
    }
    t.window = static_cast<uint64_t>(w);
    t.window_start = t0_ + static_cast<double>(w) * window_;
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

/// Incremental state for one (unit, field) pair, feeding every aggregate
/// func that reads a per-packet series. The update order is the unit's
/// packet arrival order, so the sequential accumulations (Welford mean/std,
/// sum) are bit-identical to compute_agg's loop over the same series.
struct FieldAcc {
  features::RunningStats rs;
  std::unique_ptr<std::set<double>> distinct;        // allocated on demand
  std::unique_ptr<std::map<double, double>> counts;  // entropy, sorted keys
  double first = 0.0;
  double last = 0.0;
  bool any = false;
  size_t changes = 0;  // consecutive-value changes, for change_rate
};

/// What a chain's aggregate list needs per field.
struct FieldNeed {
  std::string field;  // "" already resolved to "len"
  bool distinct = false;
  bool entropy = false;
};

/// Per-unit accumulator: unit-level state plus one FieldAcc per needed
/// field. Replicates compute_agg exactly — see finalize_agg.
struct GroupAcc {
  explicit GroupAcc(size_t fields) : field(fields) {}
  size_t count = 0;
  double first_ts = 0.0;
  double last_ts = 0.0;  // arrival order, like view[idx.back()].ts
  double bytes = 0.0;
  std::vector<FieldAcc> field;
};

/// "apply_aggregates": per-(group, window) unit accumulators over FlatMap
/// state, flushed into one FeatureTable per epoch. Unit math replicates the
/// batch compute_agg bit for bit (same accumulation order, same guards);
/// per-epoch state is cleared after every flush, so memory is bounded by
/// the number of groups active within one window, not by stream length.
class AggregateOp final : public StreamOp {
 public:
  AggregateOp(std::vector<AggSpec> aggs, const GroupByOp* groups,
              bool windowed, StreamPipeline::Counters* counts)
      : aggs_(std::move(aggs)), groups_(groups), windowed_(windowed),
        counts_(counts) {
    // Resolve each agg to its field slot ("" means the default "len"
    // series; count/rate/duration/bytes_rate use unit-level state only).
    for (const AggSpec& a : aggs_) {
      col_names_.push_back(a.column_name());
      if (a.func == "count" || a.func == "rate" || a.func == "duration" ||
          a.func == "bytes_rate") {
        slot_of_.push_back(SIZE_MAX);
        continue;
      }
      const std::string field = a.field.empty() ? "len" : a.field;
      size_t slot = SIZE_MAX;
      for (size_t f = 0; f < needs_.size(); ++f) {
        if (needs_[f].field == field) slot = f;
      }
      if (slot == SIZE_MAX) {
        slot = needs_.size();
        needs_.push_back(FieldNeed{field, false, false});
      }
      if (a.func == "distinct") needs_[slot].distinct = true;
      if (a.func == "entropy") needs_[slot].entropy = true;
      slot_of_.push_back(slot);
    }
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
      accs_.emplace_back(needs_.size());
    }
    GroupAcc& g = accs_[*slot];
    const PacketView& v = *t.view;
    const bool had_prev = g.count > 0;
    const double prev_ts = g.last_ts;
    if (!had_prev) g.first_ts = v.ts;
    ++g.count;
    g.last_ts = v.ts;
    g.bytes += v.wire_len;
    for (size_t f = 0; f < needs_.size(); ++f) {
      double val = 0.0;
      if (needs_[f].field == "iat") {
        if (!had_prev) continue;  // series starts at the second packet
        val = v.ts - prev_ts;
      } else if (!packet_field(v, needs_[f].field, &val)) {
        continue;  // unknown fields were rejected at compile time
      }
      feed(g.field[f], needs_[f], val);
    }
    forward(t);
  }

  void flush_epoch(uint64_t epoch) override {
    if (open_) {
      telemetry::Span span(reg_, span_name_);
      EpochBatch b;
      b.epoch = epoch_;
      b.window_start = window_start_;
      b.table = FeatureTable::make(order_.size(), col_names_);
      b.keys.reserve(order_.size());
      for (size_t r = 0; r < order_.size(); ++r) {
        const uint32_t gid = order_[r];
        const GroupAcc& g = accs_[*index_.find(gid)];
        std::string key = groups_ != nullptr ? groups_->key_of(gid) : "all";
        if (windowed_) {
          key += "#w" + std::to_string(static_cast<int64_t>(epoch_));
        }
        b.keys.push_back(std::move(key));
        for (size_t c = 0; c < aggs_.size(); ++c) {
          b.table.at(r, c) = finalize_agg(g, aggs_[c], slot_of_[c]);
        }
        b.table.unit_id[r] = static_cast<int64_t>(row_seq_++);
        b.table.unit_time[r] = g.first_ts;
      }
      span.set_value(b.table.rows);
      span.stop();
      index_.clear();
      index_.reserve(64);
      order_.clear();
      accs_.clear();
      open_ = false;
      forward_rows(std::move(b));
    }
    forward_flush(epoch);
  }

  void reset() override {
    index_.clear();
    index_.reserve(64);
    order_.clear();
    accs_.clear();
    open_ = false;
    row_seq_ = 0;
  }

 private:
  static void feed(FieldAcc& acc, const FieldNeed& need, double val) {
    if (acc.any && val != acc.last) ++acc.changes;
    if (!acc.any) {
      acc.first = val;
      acc.any = true;
    }
    acc.last = val;
    acc.rs.add(val);
    if (need.distinct) {
      if (!acc.distinct) acc.distinct = std::make_unique<std::set<double>>();
      acc.distinct->insert(val);
    }
    if (need.entropy) {
      if (!acc.counts) {
        acc.counts = std::make_unique<std::map<double, double>>();
      }
      (*acc.counts)[val] += 1.0;
    }
  }

  /// Mirror of compute_agg over the accumulated state. `dur` is the
  /// arrival-order first-to-last gap, exactly as the batch op computes it.
  double finalize_agg(const GroupAcc& g, const AggSpec& a, size_t slot) const {
    if (a.func == "count") return static_cast<double>(g.count);
    const double dur = g.count >= 2 ? g.last_ts - g.first_ts : 0.0;
    if (a.func == "rate") {
      return dur > 1e-9 ? static_cast<double>(g.count) / dur : 0.0;
    }
    if (a.func == "duration") return dur;
    if (a.func == "bytes_rate") return dur > 1e-9 ? g.bytes / dur : 0.0;

    const FieldAcc& f = g.field[slot];
    // Batch returns 0.0 for an empty series before dispatching on func.
    if (f.rs.count() == 0) return 0.0;
    if (a.func == "distinct") {
      return f.distinct ? static_cast<double>(f.distinct->size()) : 0.0;
    }
    if (a.func == "entropy") {
      std::vector<double> c;
      if (f.counts) {
        c.reserve(f.counts->size());
        for (const auto& [k, n] : *f.counts) c.push_back(n);
      }
      return features::entropy_bits(c);
    }
    if (a.func == "change_rate") {
      return dur > 1e-9 ? static_cast<double>(f.changes) / dur
                        : static_cast<double>(f.changes);
    }
    if (a.func == "first") return f.first;
    if (a.func == "last") return f.last;
    if (a.func == "sum") return f.rs.sum();
    if (a.func == "mean") return f.rs.mean();
    if (a.func == "std") return f.rs.stddev();
    if (a.func == "min") return f.rs.min();
    if (a.func == "max") return f.rs.max();
    if (a.func == "range") return f.rs.max() - f.rs.min();
    return 0.0;  // unknown funcs rejected at compile time
  }

  std::vector<AggSpec> aggs_;
  std::vector<std::string> col_names_;
  std::vector<size_t> slot_of_;   // agg -> field slot (SIZE_MAX: unit-level)
  std::vector<FieldNeed> needs_;  // distinct fields the aggs read
  const GroupByOp* groups_;       // nullptr when the chain has no groupby
  const bool windowed_;
  StreamPipeline::Counters* counts_;

  FlatMap<uint32_t, uint32_t> index_;  // gid -> position in accs_
  std::vector<uint32_t> order_;        // first-arrival order within the epoch
  std::vector<GroupAcc> accs_;
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

/// "packet_features": per-packet field vector (optional one-hot app).
/// "iat" is the gap from the previous packet this op saw — which is the
/// batch semantics over the same (possibly filtered) packet sequence.
class PacketFeaturesOp final : public RowBufferOp {
 public:
  static std::vector<std::string> column_names(
      const std::vector<std::string>& fields, bool one_hot_app) {
    std::vector<std::string> names = fields;
    if (one_hot_app) {
      for (int a = 0; a < kAppCount; ++a) {
        names.push_back(std::string("app_") +
                        netio::app_proto_name(static_cast<netio::AppProto>(a)));
      }
    }
    return names;
  }

  PacketFeaturesOp(std::vector<std::string> fields, bool one_hot_app,
                   size_t micro_batch)
      : RowBufferOp(column_names(fields, one_hot_app), micro_batch),
        fields_(std::move(fields)),
        one_hot_app_(one_hot_app) {
    row_.resize(dim_);
  }
  const char* name() const override { return "packet_features"; }

  void push(PacketTuple& t) override {
    const PacketView& v = *t.view;
    std::fill(row_.begin(), row_.end(), 0.0);
    for (size_t c = 0; c < fields_.size(); ++c) {
      if (fields_[c] == "iat") {
        row_[c] = seen_any_ ? v.ts - prev_ts_ : 0.0;
      } else {
        double val = 0.0;
        packet_field(v, fields_[c], &val);
        row_[c] = val;
      }
    }
    if (one_hot_app_) {
      row_[fields_.size() + static_cast<size_t>(v.app)] = 1.0;
    }
    seen_any_ = true;
    prev_ts_ = v.ts;
    add_row(row_.data(), static_cast<int64_t>(v.index), v.ts);
  }

  void reset() override {
    RowBufferOp::reset();
    seen_any_ = false;
    prev_ts_ = 0.0;
  }

 private:
  static constexpr int kAppCount = 10;  // netio::AppProto cardinality
  std::vector<std::string> fields_;
  const bool one_hot_app_;
  std::vector<double> row_;
  bool seen_any_ = false;
  double prev_ts_ = 0.0;
};

// ---- row-phase operators -------------------------------------------------

/// "normalize": two streaming modes.
///  * "epoch" (default): refit on each epoch's rows — identical to running
///    the batch op on that epoch's slice. min-max fits are order-
///    independent, so the result matches the batch fit over the same rows
///    regardless of row order.
///  * "running": cumulative statistics over every row seen so far (a
///    streaming-only extension; no batch counterpart).
/// The batch op's whole-table fit has no windowed streaming equivalent —
/// the evaluation protocol's train-frozen normalization (model op with
/// normalize=true) is the exactly-equivalent alternative.
class NormalizeOp final : public StreamOp {
 public:
  NormalizeOp(features::NormKind kind, bool running)
      : kind_(kind), running_(running) {}
  const char* name() const override { return "normalize"; }

  void push_rows(EpochBatch&& b) override {
    if (b.table.rows > 0) {
      telemetry::Span span(reg_, span_name_);
      if (!running_) {
        features::Normalizer norm(kind_);
        norm.fit(b.table);
        norm.apply(b.table);
      } else {
        apply_running(b.table);
      }
      span.set_value(b.table.rows);
    }
    forward_rows(std::move(b));
  }

  void reset() override { cols_.clear(); }

 private:
  void apply_running(FeatureTable& t) {
    cols_.resize(std::max(cols_.size(), t.cols));
    for (size_t c = 0; c < t.cols; ++c) {
      for (size_t r = 0; r < t.rows; ++r) {
        const double v = t.at(r, c);
        if (std::isfinite(v)) cols_[c].add(v);
      }
    }
    // Same shift/scale construction and degenerate-column guards as
    // Normalizer::fit, over the cumulative statistics.
    std::vector<double> shift(t.cols, 0.0), scale(t.cols, 1.0);
    for (size_t c = 0; c < t.cols; ++c) {
      const features::RunningStats& rs = cols_[c];
      if (rs.count() == 0) continue;
      if (kind_ == features::NormKind::kMinMax) {
        shift[c] = rs.min();
        const double range = rs.max() - rs.min();
        scale[c] = range > 1e-12 ? range : 1.0;
      } else {
        shift[c] = rs.mean();
        const double sd = rs.stddev();
        scale[c] = sd > 1e-12 ? sd : 1.0;
      }
    }
    features::Normalizer norm;
    norm.restore(kind_, std::move(shift), std::move(scale));
    norm.apply(t);
  }

  const features::NormKind kind_;
  const bool running_;
  std::vector<features::RunningStats> cols_;  // running mode only
};

/// "predict": score each epoch's rows with the seeded batch-trained model,
/// replicating run_predict (impute -> corr-filter -> normalizer -> model)
/// on a copy, so the emitted aggregates stay raw. Per-row scores are
/// independent of batch composition (the score_rows contract), so scoring
/// epoch-by-epoch equals the batch engine's whole-table pass row for row.
class ScoreOp final : public StreamOp {
 public:
  explicit ScoreOp(ModelValue mv) : mv_(std::move(mv)) {
    // Best-effort lowering into a compiled f64 plan (ml/compiled.h): the
    // plan replays the reference kernels in the reference order, so scores
    // are bit-identical and the epoch/batch equivalence guarantee is
    // untouched; it only drops the per-epoch weight-marshalling overhead.
    // Models without a compiled form keep scoring through the Model.
    if (mv_.model != nullptr) {
      auto plan = ml::compiled::compile(*mv_.model);
      if (plan.ok()) {
        compiled_ = ml::compiled::wrap(std::move(plan).value(),
                                       mv_.model->name());
      }
    }
  }
  const char* name() const override { return "predict"; }

  void push_rows(EpochBatch&& b) override {
    if (b.table.rows > 0) {
      telemetry::Span span(reg_, span_name_);
      FeatureTable X = b.table;
      features::impute_non_finite(X);
      if (mv_.corr_filter) X = mv_.corr_filter->apply(X);
      if (mv_.normalizer) mv_.normalizer->apply(X);
      b.scores = compiled_ ? compiled_->score(X) : mv_.model->score(X);
      if (const auto* kit = dynamic_cast<const ml::KitNet*>(mv_.model.get())) {
        // KitNet::predict == threshold_predict(score(X), threshold()), and
        // score is deterministic — reuse the scores instead of paying a
        // second full scoring pass per epoch.
        b.predictions = ml::threshold_predict(b.scores, kit->threshold());
      } else {
        b.predictions = mv_.model->predict(X);
      }
      b.scored = true;
      span.set_value(b.table.rows);
    }
    forward_rows(std::move(b));
  }

 private:
  ModelValue mv_;
  ml::ModelPtr compiled_;  // null when the model has no compiled form
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

  const auto chain_input_ok = [&](const OpSpec& op, size_t input_slot) {
    return input_slot < op.inputs.size() && op.inputs[input_slot] == last_out;
  };

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

    if (op.func == "field_extract") {
      if (i != 0 || !op.inputs.empty()) {
        return lower_error(i, op,
                           "must be the chain's first operation with no "
                           "input (it is the stream source)");
      }
      for (const std::string& f : op.params.get_string_list("param")) {
        double tmp = 0.0;
        if (f != "iat" && !packet_field(netio::PacketView{}, f, &tmp)) {
          return lower_error(i, op, "unknown field '" + f + "'");
        }
      }
      lowered = std::make_unique<SourceOp>();
    } else if (op.func == "filter") {
      if (have_rows || !chain_input_ok(op, 0)) {
        return lower_error(i, op,
                           "input '" + (op.inputs.empty() ? "" : op.inputs[0]) +
                               "' is not the preceding operation's output — "
                               "streaming lowering supports linear chains");
      }
      lowered =
          std::make_unique<FilterOp>(op.params.get_string_list("require"));
    } else if (op.func == "groupby") {
      if (have_rows || !chain_input_ok(op, 0)) {
        return lower_error(i, op, "streaming lowering supports linear chains "
                                  "only (input must be the previous output)");
      }
      if (groupby != nullptr) {
        return lower_error(i, op, "only one groupby stage can be lowered");
      }
      std::vector<std::string> keys = op.params.get_string_list("flowid");
      if (keys.empty()) keys = op.params.get_string_list("key");
      if (keys.empty()) return lower_error(i, op, "missing 'flowid' param");
      auto printable = make_group_key(keys.front());
      if (!printable.ok()) return printable.error();
      auto packed = make_packed_group_key(keys.front());
      if (!packed.ok()) return packed.error();
      auto gb = std::make_unique<GroupByOp>(std::move(packed).value(),
                                            std::move(printable).value());
      groupby = gb.get();
      lowered = std::move(gb);
    } else if (op.func == "time_slice") {
      if (have_rows || !chain_input_ok(op, 0)) {
        return lower_error(i, op, "streaming lowering supports linear chains "
                                  "only (input must be the previous output)");
      }
      if (windowed) {
        return lower_error(i, op, "only one time_slice stage can be lowered");
      }
      const double window = op.params.get_number("window", 10.0);
      if (window <= 0.0) return lower_error(i, op, "window must be > 0");
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
      lowered = std::make_unique<TimeSliceOp>(window, &pipe->counts_);
    } else if (op.func == "apply_aggregates") {
      if (have_rows || !chain_input_ok(op, 0)) {
        return lower_error(i, op, "streaming lowering supports linear chains "
                                  "only (input must be the previous output)");
      }
      std::vector<AggSpec> aggs = parse_agg_list(op.params);
      for (const AggSpec& a : aggs) {
        static const std::set<std::string> kFuncs = {
            "mean",     "std",      "min",     "max",   "sum",
            "count",    "rate",     "bytes_rate", "distinct", "entropy",
            "first",    "last",     "range",   "duration", "change_rate"};
        if (a.func == "median") {
          return lower_error(i, op,
                             "aggregate func 'median' is batch-only (it "
                             "needs the whole window resident); use "
                             "mean/std/min/max/... in streaming specs");
        }
        if (kFuncs.count(a.func) == 0) {
          return lower_error(i, op, "unknown func '" + a.func + "'");
        }
        if (!a.field.empty() && a.field != "iat") {
          double tmp = 0.0;
          if (!packet_field(netio::PacketView{}, a.field, &tmp)) {
            return lower_error(i, op, "unknown field '" + a.field + "'");
          }
        }
      }
      have_rows = true;
      lowered = std::make_unique<AggregateOp>(std::move(aggs), groupby,
                                              windowed, &pipe->counts_);
    } else if (op.func == "normalize") {
      if (!have_rows || !chain_input_ok(op, 0)) {
        return lower_error(i, op, "streaming lowering supports linear chains "
                                  "only (input must be the previous output)");
      }
      const std::string kind = op.params.get_string("kind", "minmax");
      const std::string mode = op.params.get_string("mode", "epoch");
      if (mode != "epoch" && mode != "running") {
        return lower_error(i, op,
                           "mode must be \"epoch\" (refit per window — the "
                           "batch op on that window's rows) or \"running\" "
                           "(cumulative, streaming-only)");
      }
      lowered = std::make_unique<NormalizeOp>(
          kind == "zscore" ? features::NormKind::kZScore
                           : features::NormKind::kMinMax,
          mode == "running");
    } else if (op.func == "predict") {
      if (!have_rows || !chain_input_ok(op, 1)) {
        return lower_error(i, op, "streaming lowering supports linear chains "
                                  "only (table input must be the previous "
                                  "output)");
      }
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
      if (have_rows || !chain_input_ok(op, 0)) {
        return lower_error(i, op, "streaming lowering supports linear chains "
                                  "only (input must be the previous output)");
      }
      if (op.func == "damped_stats") {
        lowered = std::make_unique<DampedStatsOp>(
            op.params.get_number_list("lambdas"), opts.micro_batch);
      } else {
        std::vector<std::string> fields = op.params.get_string_list("param");
        if (fields.empty()) fields = {"len", "iat", "proto", "sport", "dport"};
        lowered = std::make_unique<PacketFeaturesOp>(
            std::move(fields), op.params.get_bool("one_hot_app", false),
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
    pipe->funcs_.push_back(op.func);
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
