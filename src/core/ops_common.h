// Internal helpers shared by the ops_*.cpp translation units.
#pragma once

#include <functional>
#include <map>

#include "core/op.h"
#include "features/stats.h"

namespace lumen::core {

/// Operation implemented by a lambda; the registration macro-free way to
/// define the ~30 built-in ops without one class per op.
class LambdaOp : public Operation {
 public:
  using RunFn = std::function<Result<Value>(
      const OpSpec&, const std::vector<const Value*>&, OpContext&)>;

  LambdaOp(OpSpec spec, std::vector<ValueKind> in, ValueKind out, RunFn fn)
      : Operation(std::move(spec)),
        in_(std::move(in)),
        out_(out),
        fn_(std::move(fn)) {}

  std::vector<ValueKind> input_kinds() const override { return in_; }
  ValueKind output_kind() const override { return out_; }

  Result<Value> run(const std::vector<const Value*>& inputs,
                    OpContext& ctx) override {
    return fn_(spec_, inputs, ctx);
  }

 private:
  std::vector<ValueKind> in_;
  ValueKind out_;
  RunFn fn_;
};

/// Register `func` with fixed input/output kinds and a run lambda.
inline void register_simple(const std::string& func, std::vector<ValueKind> in,
                            ValueKind out, LambdaOp::RunFn fn) {
  OperationRegistry::instance().register_op(
      func, [in, out, fn](OpSpec spec) -> Result<OperationPtr> {
        return OperationPtr(
            std::make_unique<LambdaOp>(std::move(spec), in, out, fn));
      });
}

/// One aggregate column: `func` applied to `field` over a unit's packets.
struct AggSpec {
  std::string field;  // packet field or "iat"; empty means "len"
  std::string func;   // a name from the aggregate-func table (ops_common.cpp)
};

/// Parse params["list"]; falls back to a sensible default aggregate set.
std::vector<AggSpec> parse_agg_list(const Json& params);

struct AggFuncDef;

/// An aggregate list resolved once for every op that aggregates packets,
/// batch or streaming: each func from the one aggregate-func table, each
/// field from the packet-field table ("iat" is the gap between consecutive
/// packets of the unit), plus the optional state each field keeps.
struct AggPlan {
  /// Errors, naming `op`, on a func or field the tables do not know.
  static Result<AggPlan> build(const std::vector<AggSpec>& aggs,
                               const std::string& op);

  struct Column {
    const AggFuncDef* func;
    uint32_t field;  // index into `fields` (unused by unit-level funcs)
  };
  struct Field {
    PacketFieldFn get;  // nullptr: "iat"
    bool counts;        // distinct / entropy read the value counts
    bool series;        // median reads the whole series
  };
  std::vector<std::string> names;  // "<field>_<func>", or "<func>"
  std::vector<Column> cols;
  std::vector<Field> fields;
};

/// One unit (a flow, a group's window, a packet's trailing window) under
/// an AggPlan: feed the unit's packets in order, then read each column.
/// Batch and streaming ops fold this same accumulator, so they agree by
/// construction. Welford's mean depends on the feed order, so a sliding
/// window is refolded from scratch, never slid by subtraction.
class AggAccumulator {
 public:
  explicit AggAccumulator(const AggPlan& plan)
      : plan_(&plan), fields_(plan.fields.size()) {}

  void feed(const netio::PacketView& v);
  /// Column `col` over the packets fed so far (may reorder `values`).
  double finalize(size_t col);
  /// Capture time of the first packet fed (0 before any).
  double first_ts() const { return unit_.first_ts; }

  /// State of the whole unit, read by count, rate, duration, bytes_rate.
  struct Unit {
    uint64_t count = 0;
    double first_ts = 0.0;
    double last_ts = 0.0;
    double bytes = 0.0;
    double duration() const { return count >= 2 ? last_ts - first_ts : 0.0; }
  };
  /// State of one field's series.
  struct Series {
    features::RunningStats rs;
    double first = 0.0;
    double last = 0.0;
    uint64_t changes = 0;             // consecutive-value changes
    std::map<double, double> counts;  // per value, when the plan asks
    std::vector<double> values;       // the series, when the plan asks
  };

 private:
  const AggPlan* plan_;
  Unit unit_;
  std::vector<Series> fields_;
};

/// Build a per-unit FeatureTable: one row per unit (a set of packet
/// indices), one column per aggregate of `plan`, labels/attack/time filled
/// from the dataset's packet ground truth.
features::FeatureTable table_from_units(
    const trace::Dataset& ds,
    const std::vector<std::vector<uint32_t>>& units, const AggPlan& plan);

/// Fill per-row label/attack/unit_time metadata for a table whose row r
/// covers packet set units[r].
void fill_unit_metadata(const trace::Dataset& ds,
                        const std::vector<std::vector<uint32_t>>& units,
                        features::FeatureTable& t);

/// Dense group ids in first-occurrence order under one GroupKey (one FlatMap
/// probe per packet, the key rendered once per group), for batch and stream.
class GroupDirectory {
 public:
  explicit GroupDirectory(const GroupKey& key) : key_(&key) {
    ids_.reserve(64);
  }

  /// The group id of `v`; an unseen group gets the next id.
  uint32_t id_of(const netio::PacketView& v) {
    const Key128 packed = key_->pack(v);
    auto [slot, fresh] = ids_.try_emplace(packed, 0);
    if (fresh) {
      *slot = static_cast<uint32_t>(keys_.size());
      keys_.push_back(key_->render(packed));
    }
    return *slot;
  }
  /// Printable key of an issued id.
  const std::string& key_of(uint32_t id) const { return keys_[id]; }
  void clear() { *this = GroupDirectory(*key_); }

 private:
  const GroupKey* key_;
  FlatMap<Key128, uint32_t> ids_;
  std::vector<std::string> keys_;  // id -> printable key
};

/// The `window` param of a windowing op (time_slice, window_stats), in
/// seconds, default 10. Errors, naming the op, unless the window is finite
/// and in [1e-6, 1e9] s: the lower bound is pcap's microsecond timestamp
/// resolution, and the range keeps the window index (int64) and
/// window_stats' whole-second column name (int) representable for any pcap
/// timestamp.
Result<double> window_param(const OpSpec& spec);

/// Tumbling windows of `width` s from the time origin `t0`, the one window
/// arithmetic of the batch and the streaming time_slice. With window_param's
/// range and timestamps in [0, 2^32) s (pcap's range, which the LUM1 decoder
/// enforces) the index stays inside int64.
inline int64_t window_index(double ts, double t0, double width) {
  return static_cast<int64_t>((ts - t0) / width);
}
inline double window_start(int64_t w, double t0, double width) {
  return t0 + static_cast<double>(w) * width;
}

/// The field check of field_extract: every name in params["param"] is
/// "iat" or a packet field. Errors, naming the op, otherwise.
Result<void> check_extract_fields(const OpSpec& spec);

/// The filter predicate: a packet passes when every `require` field is a
/// packet field and nonzero (an unknown field never holds).
class PacketFilter {
 public:
  explicit PacketFilter(const std::vector<std::string>& require);
  bool operator()(const netio::PacketView& v) const {
    for (const PacketFieldFn get : require_) {
      if (get == nullptr || get(v) == 0.0) return false;
    }
    return true;
  }

 private:
  std::vector<PacketFieldFn> require_;  // nullptr: unknown
};

/// The packet_features row: the fields of params["param"] (default len, iat,
/// proto, sport, dport; "iat" is the gap from the previous packet filled),
/// then with params["one_hot_app"] one column per application protocol.
class PacketFeatureRow {
 public:
  /// Errors, naming the op, on an unknown field.
  static Result<PacketFeatureRow> build(const OpSpec& spec);

  const std::vector<std::string>& names() const { return names_; }
  /// Write `v`'s row (names().size() values) and advance the iat clock.
  void fill(const netio::PacketView& v, double* row);
  /// Forget the previous packet (the next row's iat is 0).
  void reset() { seen_ = false; }

 private:
  std::vector<std::string> names_;
  std::vector<PacketFieldFn> fields_;  // nullptr: "iat"
  bool one_hot_app_ = false;
  bool seen_ = false;
  double prev_ts_ = 0.0;
};

/// Typed input accessors (engine has already kind-checked, these are
/// defensive second checks with good error messages).
template <typename T>
Result<const T*> input_as(const std::vector<const Value*>& inputs, size_t i,
                          const std::string& op) {
  if (i >= inputs.size()) {
    return Error::make(op, "missing input #" + std::to_string(i));
  }
  const T* p = std::get_if<T>(inputs[i]);
  if (p == nullptr) {
    return Error::make(op, "input #" + std::to_string(i) + " has wrong kind");
  }
  return p;
}

}  // namespace lumen::core
