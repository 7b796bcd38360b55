// Internal helpers shared by the ops_*.cpp translation units.
#pragma once

#include <functional>

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
  std::string field;  // packet field; may be empty for count/rate
  std::string func;   // mean, std, min, max, median, sum, count, rate,
                      // bytes_rate, distinct, entropy, first, last, range
  std::string column_name() const {
    return field.empty() ? func : field + "_" + func;
  }
};

/// Parse params["list"]; falls back to a sensible default aggregate set.
std::vector<AggSpec> parse_agg_list(const Json& params);

/// Evaluate one aggregate over the packets `idx` of `ds`.
double compute_agg(const trace::Dataset& ds, const std::vector<uint32_t>& idx,
                   const AggSpec& agg);

/// Build a per-unit FeatureTable: one row per unit (a set of packet
/// indices), aggregate columns per `aggs`, labels/attack/time filled from
/// the dataset's packet ground truth.
features::FeatureTable table_from_units(
    const trace::Dataset& ds,
    const std::vector<std::vector<uint32_t>>& units,
    const std::vector<AggSpec>& aggs);

/// Fill per-row label/attack/unit_time metadata for a table whose row r
/// covers packet set units[r].
void fill_unit_metadata(const trace::Dataset& ds,
                        const std::vector<std::vector<uint32_t>>& units,
                        features::FeatureTable& t);

/// The `window` param of a windowing op (time_slice, window_stats), in
/// seconds, default 10. Errors, naming the op, unless the window is finite
/// and in [1e-6, 1e9] s: the lower bound is pcap's microsecond timestamp
/// resolution, and the range keeps the window index (int64) and
/// window_stats' whole-second column name (int) representable for any pcap
/// timestamp.
Result<double> window_param(const OpSpec& spec);

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
