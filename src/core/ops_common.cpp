#include "core/ops_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lumen::core {

std::vector<AggSpec> parse_agg_list(const Json& params) {
  std::vector<AggSpec> out;
  const Json* list = params.get("list");
  if (list != nullptr && list->is_array()) {
    for (const Json& item : list->items()) {
      if (!item.is_object()) continue;
      const std::string field = item.get_string("field");
      const Json* funcs = item.get("funcs");
      if (funcs != nullptr && funcs->is_array()) {
        for (const Json& f : funcs->items()) {
          if (f.is_string()) out.push_back(AggSpec{field, f.as_string()});
        }
      } else {
        const std::string func = item.get_string("func");
        if (!func.empty()) out.push_back(AggSpec{field, func});
      }
    }
  }
  if (out.empty()) {
    out = {{"len", "mean"}, {"len", "std"},  {"iat", "mean"},
           {"iat", "std"},  {"", "count"},   {"", "bytes_rate"}};
  }
  return out;
}

Result<double> window_param(const OpSpec& spec) {
  const double window = spec.params.get_number("window", 10.0);
  if (std::isfinite(window) && window >= 1e-6 && window <= 1e9) return window;
  char got[32];
  std::snprintf(got, sizeof got, "%g", window);
  return Error::make(spec.func,
                     std::string("window must be finite and in [1e-6, 1e9] "
                                 "seconds, got ") + got);
}

// ---- aggregates ------------------------------------------------------------

/// One aggregate func: its name, what it reads (the unit only, or one
/// field's running stats, value counts or whole series) and its value.
/// Series funcs only see a non-empty series; an empty one reads 0.
enum AggReads : uint8_t { kUnitOnly, kStats, kCounts, kSeries };
struct AggFuncDef {
  const char* name;
  AggReads reads;
  double (*value)(const AggAccumulator::Unit&, AggAccumulator::Series*);
};

namespace {

using U = const AggAccumulator::Unit&;
using S = AggAccumulator::Series*;

/// `n` per second of the unit's duration; 0 (or `n` itself, with
/// `else_n`) when the unit spans no measurable time.
double per_second(double n, U u, bool else_n = false) {
  const double dur = u.duration();
  return dur > 1e-9 ? n / dur : (else_n ? n : 0.0);
}

double entropy(S s) {
  std::vector<double> c;
  c.reserve(s->counts.size());
  for (const auto& [value, n] : s->counts) c.push_back(n);
  return features::entropy_bits(c);
}

/// The aggregate-func table: every func any aggregating op accepts.
const AggFuncDef kAggFuncs[] = {
    {"count", kUnitOnly, [](U u, S) { return static_cast<double>(u.count); }},
    {"rate", kUnitOnly,
     [](U u, S) { return per_second(static_cast<double>(u.count), u); }},
    {"duration", kUnitOnly, [](U u, S) { return u.duration(); }},
    {"bytes_rate", kUnitOnly, [](U u, S) { return per_second(u.bytes, u); }},
    {"mean", kStats, [](U, S s) { return s->rs.mean(); }},
    {"std", kStats, [](U, S s) { return s->rs.stddev(); }},
    {"min", kStats, [](U, S s) { return s->rs.min(); }},
    {"max", kStats, [](U, S s) { return s->rs.max(); }},
    {"range", kStats, [](U, S s) { return s->rs.max() - s->rs.min(); }},
    {"sum", kStats, [](U, S s) { return s->rs.sum(); }},
    {"first", kStats, [](U, S s) { return s->first; }},
    {"last", kStats, [](U, S s) { return s->last; }},
    {"change_rate", kStats,
     [](U u, S s) {
       return per_second(static_cast<double>(s->changes), u, true);
     }},
    {"distinct", kCounts,
     [](U, S s) { return static_cast<double>(s->counts.size()); }},
    {"entropy", kCounts, [](U, S s) { return entropy(s); }},
    {"median", kSeries, [](U, S s) { return features::median(s->values); }},
};

/// The accessor of `field`, nullptr for "iat"; errors, naming `op`, when
/// the name is neither.
Result<PacketFieldFn> resolve_field(const std::string& field,
                                    const std::string& op) {
  const PacketFieldFn get = find_packet_field(field);
  if (get == nullptr && field != "iat") {
    return Error::make(op, "unknown field '" + field + "'");
  }
  return get;
}

}  // namespace

Result<AggPlan> AggPlan::build(const std::vector<AggSpec>& aggs,
                               const std::string& op) {
  AggPlan plan;
  std::map<std::string, uint32_t> slot_of;  // field name -> plan.fields
  for (const AggSpec& a : aggs) {
    const AggFuncDef* func = std::find_if(
        std::begin(kAggFuncs), std::end(kAggFuncs),
        [&](const AggFuncDef& f) { return a.func == f.name; });
    if (func == std::end(kAggFuncs)) {
      return Error::make(op, "unknown aggregate func '" + a.func + "'");
    }
    const std::string field = a.field.empty() ? "len" : a.field;
    const Result<PacketFieldFn> get = resolve_field(field, op);
    if (!get.ok()) return get.error();
    plan.names.push_back(a.field.empty() ? a.func : a.field + "_" + a.func);
    if (func->reads == kUnitOnly) {
      plan.cols.push_back(Column{func, 0});
      continue;
    }
    const auto [slot, fresh] = slot_of.try_emplace(
        field, static_cast<uint32_t>(plan.fields.size()));
    if (fresh) plan.fields.push_back(Field{get.value(), false, false});
    plan.fields[slot->second].counts |= func->reads == kCounts;
    plan.fields[slot->second].series |= func->reads == kSeries;
    plan.cols.push_back(Column{func, slot->second});
  }
  return plan;
}

void AggAccumulator::feed(const netio::PacketView& v) {
  const bool had_prev = unit_.count > 0;
  const double prev_ts = unit_.last_ts;
  if (!had_prev) unit_.first_ts = v.ts;
  ++unit_.count;
  unit_.last_ts = v.ts;
  unit_.bytes += v.wire_len;
  for (size_t f = 0; f < fields_.size(); ++f) {
    const AggPlan::Field& need = plan_->fields[f];
    if (need.get == nullptr && !had_prev) continue;  // iat starts at packet 2
    const double val = need.get != nullptr ? need.get(v) : v.ts - prev_ts;
    Series& s = fields_[f];
    if (s.rs.count() == 0) {
      s.first = val;
    } else if (val != s.last) {
      ++s.changes;
    }
    s.last = val;
    s.rs.add(val);
    if (need.counts) s.counts[val] += 1.0;
    if (need.series) s.values.push_back(val);
  }
}

double AggAccumulator::finalize(size_t col) {
  const AggPlan::Column& c = plan_->cols[col];
  if (c.func->reads == kUnitOnly) return c.func->value(unit_, nullptr);
  Series& s = fields_[c.field];
  return s.rs.count() == 0 ? 0.0 : c.func->value(unit_, &s);
}

void fill_unit_metadata(const trace::Dataset& ds,
                        const std::vector<std::vector<uint32_t>>& units,
                        features::FeatureTable& t) {
  std::vector<uint32_t> capture_idx;
  for (size_t r = 0; r < units.size() && r < t.rows; ++r) {
    uint8_t attack = 0;
    // Unit members are view positions; the label arrays are aligned with
    // the original capture, so translate through PacketView::index.
    capture_idx.clear();
    capture_idx.reserve(units[r].size());
    for (uint32_t p : units[r]) capture_idx.push_back(ds.trace.view[p].index);
    t.labels[r] = flow::unit_label(capture_idx, ds.pkt_label, ds.pkt_attack,
                                   &attack);
    t.attack[r] = attack;
    t.unit_id[r] = static_cast<int64_t>(r);
    t.unit_time[r] =
        units[r].empty() ? 0.0 : ds.trace.view[units[r].front()].ts;
  }
}

features::FeatureTable table_from_units(
    const trace::Dataset& ds,
    const std::vector<std::vector<uint32_t>>& units, const AggPlan& plan) {
  features::FeatureTable t =
      features::FeatureTable::make(units.size(), plan.names);
  for (size_t r = 0; r < units.size(); ++r) {
    AggAccumulator acc(plan);
    for (uint32_t p : units[r]) acc.feed(ds.trace.view[p]);
    for (size_t c = 0; c < t.cols; ++c) t.at(r, c) = acc.finalize(c);
  }
  fill_unit_metadata(ds, units, t);
  return t;
}

// ---- fields, filter, packet_features ---------------------------------------

Result<void> check_extract_fields(const OpSpec& spec) {
  for (const std::string& f : spec.params.get_string_list("param")) {
    const Result<PacketFieldFn> get = resolve_field(f, spec.func);
    if (!get.ok()) return get.error();
  }
  return {};
}

PacketFilter::PacketFilter(const std::vector<std::string>& require) {
  for (const std::string& f : require) require_.push_back(find_packet_field(f));
}

Result<PacketFeatureRow> PacketFeatureRow::build(const OpSpec& spec) {
  PacketFeatureRow row;
  row.names_ = spec.params.get_string_list("param");
  if (row.names_.empty()) {
    row.names_ = {"len", "iat", "proto", "sport", "dport"};
  }
  for (const std::string& f : row.names_) {
    const Result<PacketFieldFn> get = resolve_field(f, spec.func);
    if (!get.ok()) return get.error();
    row.fields_.push_back(get.value());
  }
  row.one_hot_app_ = spec.params.get_bool("one_hot_app", false);
  if (row.one_hot_app_) {
    constexpr int kAppCount = 10;  // netio::AppProto cardinality
    for (int a = 0; a < kAppCount; ++a) {
      row.names_.push_back(
          std::string("app_") +
          netio::app_proto_name(static_cast<netio::AppProto>(a)));
    }
  }
  return row;
}

void PacketFeatureRow::fill(const netio::PacketView& v, double* row) {
  std::fill(row, row + names_.size(), 0.0);
  for (size_t c = 0; c < fields_.size(); ++c) {
    if (fields_[c] != nullptr) {
      row[c] = fields_[c](v);
    } else if (seen_) {
      row[c] = v.ts - prev_ts_;
    }
  }
  if (one_hot_app_) row[fields_.size() + static_cast<size_t>(v.app)] = 1.0;
  seen_ = true;
  prev_ts_ = v.ts;
}

}  // namespace lumen::core
