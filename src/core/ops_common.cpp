#include "core/ops_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

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

namespace {

/// Collect the per-packet series for `field` over `idx`. "iat" is the
/// special contextual field (gaps between consecutive unit packets).
void field_series(const trace::Dataset& ds, const std::vector<uint32_t>& idx,
                  const std::string& field, std::vector<double>& out) {
  out.clear();
  if (field == "iat") {
    for (size_t i = 1; i < idx.size(); ++i) {
      out.push_back(ds.trace.view[idx[i]].ts - ds.trace.view[idx[i - 1]].ts);
    }
    return;
  }
  double v = 0.0;
  for (uint32_t p : idx) {
    if (packet_field(ds.trace.view[p], field, &v)) out.push_back(v);
  }
}

}  // namespace

double compute_agg(const trace::Dataset& ds, const std::vector<uint32_t>& idx,
                   const AggSpec& agg) {
  if (agg.func == "count") return static_cast<double>(idx.size());
  const double dur =
      idx.size() >= 2
          ? ds.trace.view[idx.back()].ts - ds.trace.view[idx.front()].ts
          : 0.0;
  if (agg.func == "rate") {
    return dur > 1e-9 ? static_cast<double>(idx.size()) / dur : 0.0;
  }
  if (agg.func == "duration") return dur;
  if (agg.func == "bytes_rate") {
    double bytes = 0.0;
    for (uint32_t p : idx) bytes += ds.trace.view[p].wire_len;
    return dur > 1e-9 ? bytes / dur : 0.0;
  }

  std::vector<double> series;
  field_series(ds, idx, agg.field.empty() ? "len" : agg.field, series);
  if (series.empty()) return 0.0;

  if (agg.func == "distinct") {
    std::set<double> uniq(series.begin(), series.end());
    return static_cast<double>(uniq.size());
  }
  if (agg.func == "entropy") {
    std::map<double, double> counts;
    for (double v : series) counts[v] += 1.0;
    std::vector<double> c;
    c.reserve(counts.size());
    for (auto& [k, n] : counts) c.push_back(n);
    return features::entropy_bits(c);
  }
  if (agg.func == "change_rate") {
    // Number of consecutive-value changes per second (e.g. TCP flag churn).
    size_t changes = 0;
    for (size_t i = 1; i < series.size(); ++i) {
      changes += series[i] != series[i - 1];
    }
    return dur > 1e-9 ? static_cast<double>(changes) / dur
                      : static_cast<double>(changes);
  }
  if (agg.func == "first") return series.front();
  if (agg.func == "last") return series.back();
  if (agg.func == "median") return features::median(series);
  if (agg.func == "sum") {
    double s = 0.0;
    for (double v : series) s += v;
    return s;
  }

  features::RunningStats rs;
  for (double v : series) rs.add(v);
  if (agg.func == "mean") return rs.mean();
  if (agg.func == "std") return rs.stddev();
  if (agg.func == "min") return rs.min();
  if (agg.func == "max") return rs.max();
  if (agg.func == "range") return rs.max() - rs.min();
  return 0.0;  // unknown func validated at parse time by callers
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
    const std::vector<std::vector<uint32_t>>& units,
    const std::vector<AggSpec>& aggs) {
  std::vector<std::string> names;
  names.reserve(aggs.size());
  for (const AggSpec& a : aggs) names.push_back(a.column_name());
  features::FeatureTable t = features::FeatureTable::make(units.size(), names);
  for (size_t r = 0; r < units.size(); ++r) {
    for (size_t c = 0; c < aggs.size(); ++c) {
      t.at(r, c) = compute_agg(ds, units[r], aggs[c]);
    }
  }
  fill_unit_metadata(ds, units, t);
  return t;
}

}  // namespace lumen::core
