// Packet-level operations: field extraction, filtering, grouping, time
// slicing, windowed/group aggregates, Kitsune damped statistics, nPrint-style
// bit features, and PDML-style wide extraction.
#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "common/parallel.h"
#include "core/kitsune_extractor.h"
#include "core/ops_common.h"

namespace lumen::core {

namespace {

using features::FeatureTable;
using netio::PacketView;

PacketSet whole_dataset_set(OpContext& ctx) {
  PacketSet ps;
  ps.dataset = ctx.dataset;
  ps.idx.resize(ctx.dataset->trace.view.size());
  for (uint32_t i = 0; i < ps.idx.size(); ++i) ps.idx[i] = i;
  return ps;
}

// "field_extract": source / pass-through declaring the packet fields a
// pipeline needs. With no input it materializes the dataset's packet set
// (one parsing pass is shared by all downstream consumers).
Result<Value> run_field_extract(const OpSpec& spec,
                                const std::vector<const Value*>& in,
                                OpContext& ctx) {
  for (const std::string& f : spec.params.get_string_list("param")) {
    double tmp = 0.0;
    if (f != "iat" && !packet_field(PacketView{}, f, &tmp)) {
      return Error::make("field_extract", "unknown field '" + f + "'");
    }
  }
  if (!in.empty()) {
    auto ps = input_as<PacketSet>(in, 0, "field_extract");
    if (!ps.ok()) return ps.error();
    return Value(*ps.value());
  }
  if (ctx.dataset == nullptr) {
    return Error::make("field_extract", "no dataset bound to the context");
  }
  return Value(whole_dataset_set(ctx));
}

// "filter": keep packets satisfying all requirements.
Result<Value> run_filter(const OpSpec& spec,
                         const std::vector<const Value*>& in, OpContext& ctx) {
  auto psr = input_as<PacketSet>(in, 0, "filter");
  if (!psr.ok()) return psr.error();
  const PacketSet& ps = *psr.value();
  const std::vector<std::string> require = spec.params.get_string_list("require");
  PacketSet out;
  out.dataset = ps.dataset;
  for (uint32_t i : ps.idx) {
    const PacketView& v = ps.dataset->trace.view[i];
    bool keep = true;
    for (const std::string& req : require) {
      double val = 0.0;
      if (!packet_field(v, req, &val) || val == 0.0) {
        keep = false;
        break;
      }
    }
    if (keep) out.idx.push_back(i);
  }
  return Value(std::move(out));
}

// "groupby": PacketSet -> GroupedPackets by a key field. The paper's
// template calls the key "flowid".
Result<Value> run_groupby(const OpSpec& spec,
                          const std::vector<const Value*>& in,
                          OpContext& ctx) {
  auto psr = input_as<PacketSet>(in, 0, "groupby");
  if (!psr.ok()) return psr.error();
  const PacketSet& ps = *psr.value();
  std::vector<std::string> keys = spec.params.get_string_list("flowid");
  if (keys.empty()) keys = spec.params.get_string_list("key");
  if (keys.empty()) return Error::make("groupby", "missing 'flowid' param");
  auto keyfn = make_group_key(keys.front());
  if (!keyfn.ok()) return keyfn.error();

  GroupedPackets out;
  out.dataset = ps.dataset;
  out.group_field = keys.front();
  std::map<std::string, size_t> index;
  for (uint32_t i : ps.idx) {
    const std::string k = keyfn.value()(ps.dataset->trace.view[i]);
    auto [it, fresh] = index.emplace(k, out.groups.size());
    if (fresh) {
      Group g;
      g.key = k;
      g.window_start = ps.dataset->trace.view[i].ts;
      out.groups.push_back(std::move(g));
    }
    out.groups[it->second].idx.push_back(i);
  }
  return Value(std::move(out));
}

// "time_slice": subdivide groups (or the whole set) into fixed windows.
// "align" picks the time origin: "group" (default) starts each group's
// window clock at its own first packet; "global" shares one origin — the
// earliest packet across all groups — so window k means the same capture
// interval everywhere (the alignment the streaming engine requires, since
// a live chain has a single clock to flush on).
Result<Value> run_time_slice(const OpSpec& spec,
                             const std::vector<const Value*>& in,
                             OpContext& ctx) {
  const Result<double> wr = window_param(spec);
  if (!wr.ok()) return wr.error();
  const double window = wr.value();
  const std::string align = spec.params.get_string("align", "group");
  if (align != "group" && align != "global") {
    return Error::make("time_slice",
                       "align must be \"group\" or \"global\", got '" + align +
                           "'");
  }

  GroupedPackets source;
  if (const auto* gp = std::get_if<GroupedPackets>(in[0])) {
    source = *gp;
  } else if (const auto* ps = std::get_if<PacketSet>(in[0])) {
    source.dataset = ps->dataset;
    source.group_field = "(all)";
    Group g;
    g.key = "all";
    g.idx = ps->idx;
    if (!g.idx.empty()) {
      g.window_start = ps->dataset->trace.view[g.idx.front()].ts;
    }
    source.groups.push_back(std::move(g));
  } else {
    return Error::make("time_slice", "input must be packets or groups");
  }

  double global_t0 = 0.0;
  if (align == "global") {
    bool any = false;
    for (const Group& g : source.groups) {
      if (g.idx.empty()) continue;
      const double ts = source.dataset->trace.view[g.idx.front()].ts;
      if (!any || ts < global_t0) global_t0 = ts;
      any = true;
    }
  }

  GroupedPackets out;
  out.dataset = source.dataset;
  out.group_field = source.group_field + "#window";
  for (const Group& g : source.groups) {
    if (g.idx.empty()) continue;
    const double t0 = align == "global"
                          ? global_t0
                          : source.dataset->trace.view[g.idx.front()].ts;
    std::map<int64_t, Group> windows;
    for (uint32_t i : g.idx) {
      const double ts = source.dataset->trace.view[i].ts;
      const int64_t w = static_cast<int64_t>((ts - t0) / window);
      auto [it, fresh] = windows.try_emplace(w);
      if (fresh) {
        it->second.key = g.key + "#w" + std::to_string(w);
        it->second.window_start = t0 + static_cast<double>(w) * window;
      }
      it->second.idx.push_back(i);
    }
    for (auto& [w, grp] : windows) out.groups.push_back(std::move(grp));
  }
  return Value(std::move(out));
}

// "apply_aggregates": GroupedPackets -> per-group FeatureTable.
Result<Value> run_apply_aggregates(const OpSpec& spec,
                                   const std::vector<const Value*>& in,
                                   OpContext& ctx) {
  auto gpr = input_as<GroupedPackets>(in, 0, "apply_aggregates");
  if (!gpr.ok()) return gpr.error();
  const GroupedPackets& gp = *gpr.value();
  const std::vector<AggSpec> aggs = parse_agg_list(spec.params);
  for (const AggSpec& a : aggs) {
    static const std::set<std::string> kFuncs = {
        "mean", "std",   "min",      "max",   "median", "sum",
        "count", "rate", "bytes_rate", "distinct", "entropy", "first",
        "last", "range", "duration", "change_rate"};
    if (kFuncs.count(a.func) == 0) {
      return Error::make("apply_aggregates", "unknown func '" + a.func + "'");
    }
  }
  std::vector<std::vector<uint32_t>> units;
  units.reserve(gp.groups.size());
  for (const Group& g : gp.groups) units.push_back(g.idx);
  return Value(table_from_units(*gp.dataset, units, aggs));
}

// "window_stats": per-PACKET contextual features — each packet gets
// aggregates computed over its group's packets within the trailing window
// (the stateful half of the ML-DDoS feature set).
Result<Value> run_window_stats(const OpSpec& spec,
                               const std::vector<const Value*>& in,
                               OpContext& ctx) {
  auto psr = input_as<PacketSet>(in, 0, "window_stats");
  if (!psr.ok()) return psr.error();
  const PacketSet& ps = *psr.value();
  const Result<double> wr = window_param(spec);
  if (!wr.ok()) return wr.error();
  const double window = wr.value();
  const std::string key = spec.params.get_string("key", "srcip");
  auto keyfn = make_group_key(key);
  if (!keyfn.ok()) return keyfn.error();
  const std::vector<AggSpec> aggs = parse_agg_list(spec.params);

  std::vector<std::string> names;
  for (const AggSpec& a : aggs) {
    names.push_back(key + "_" + std::to_string(static_cast<int>(window)) +
                    "s_" + a.column_name());
  }
  FeatureTable t = FeatureTable::make(ps.idx.size(), names);

  const trace::Dataset& ds = *ps.dataset;
  std::map<std::string, std::deque<uint32_t>> history;
  std::vector<uint32_t> unit;
  for (size_t r = 0; r < ps.idx.size(); ++r) {
    const uint32_t i = ps.idx[r];
    const PacketView& v = ds.trace.view[i];
    std::deque<uint32_t>& h = history[keyfn.value()(v)];
    h.push_back(i);
    while (!h.empty() && v.ts - ds.trace.view[h.front()].ts > window) {
      h.pop_front();
    }
    unit.assign(h.begin(), h.end());
    for (size_t c = 0; c < aggs.size(); ++c) {
      t.at(r, c) = compute_agg(ds, unit, aggs[c]);
    }
    t.labels[r] = ds.label_at(i);
    t.attack[r] = ds.attack_at(i);
    t.unit_id[r] = i;
    t.unit_time[r] = v.ts;
  }
  return Value(std::move(t));
}

// "packet_features": per-packet field vector (optionally one-hot app).
Result<Value> run_packet_features(const OpSpec& spec,
                                  const std::vector<const Value*>& in,
                                  OpContext& ctx) {
  auto psr = input_as<PacketSet>(in, 0, "packet_features");
  if (!psr.ok()) return psr.error();
  const PacketSet& ps = *psr.value();
  std::vector<std::string> fields = spec.params.get_string_list("param");
  if (fields.empty()) fields = {"len", "iat", "proto", "sport", "dport"};
  const bool one_hot_app = spec.params.get_bool("one_hot_app", false);

  std::vector<std::string> names = fields;
  const int kAppCount = 10;  // netio::AppProto cardinality
  if (one_hot_app) {
    for (int a = 0; a < kAppCount; ++a) {
      names.push_back(std::string("app_") +
                      netio::app_proto_name(static_cast<netio::AppProto>(a)));
    }
  }
  FeatureTable t = FeatureTable::make(ps.idx.size(), names);
  const trace::Dataset& ds = *ps.dataset;
  for (size_t r = 0; r < ps.idx.size(); ++r) {
    const uint32_t i = ps.idx[r];
    const PacketView& v = ds.trace.view[i];
    for (size_t c = 0; c < fields.size(); ++c) {
      if (fields[c] == "iat") {
        t.at(r, c) = r > 0 ? v.ts - ds.trace.view[ps.idx[r - 1]].ts : 0.0;
      } else {
        double val = 0.0;
        packet_field(v, fields[c], &val);
        t.at(r, c) = val;
      }
    }
    if (one_hot_app) {
      t.at(r, fields.size() + static_cast<size_t>(v.app)) = 1.0;
    }
    t.labels[r] = ds.label_at(i);
    t.attack[r] = ds.attack_at(i);
    t.unit_id[r] = i;
    t.unit_time[r] = v.ts;
  }
  return Value(std::move(t));
}

// "damped_stats": Kitsune's per-packet feature extractor — a thin batch
// wrapper over the streaming KitsuneExtractor (core/kitsune_extractor.h),
// so batch pipelines and the online detector compute identical features.
Result<Value> run_damped_stats(const OpSpec& spec,
                               const std::vector<const Value*>& in,
                               OpContext& ctx) {
  auto psr = input_as<PacketSet>(in, 0, "damped_stats");
  if (!psr.ok()) return psr.error();
  const PacketSet& ps = *psr.value();
  std::vector<double> lambdas = spec.params.get_number_list("lambdas");

  KitsuneExtractor extractor(lambdas);
  FeatureTable t =
      FeatureTable::make(ps.idx.size(), extractor.feature_names());
  const trace::Dataset& ds = *ps.dataset;
  std::vector<double> row;
  for (size_t r = 0; r < ps.idx.size(); ++r) {
    const uint32_t i = ps.idx[r];
    const PacketView& v = ds.trace.view[i];
    extractor.process(v, row);
    std::copy(row.begin(), row.end(),
              t.data.begin() + static_cast<std::ptrdiff_t>(r * t.cols));
    t.labels[r] = ds.label_at(i);
    t.attack[r] = ds.attack_at(i);
    t.unit_id[r] = i;
    t.unit_time[r] = v.ts;
  }
  return Value(std::move(t));
}

// "nprint": per-bit header representation. Absent layers are encoded as -1,
// matching the nPrint tool's semantics.
Result<Value> run_nprint(const OpSpec& spec,
                         const std::vector<const Value*>& in, OpContext& ctx) {
  auto psr = input_as<PacketSet>(in, 0, "nprint");
  if (!psr.ok()) return psr.error();
  const PacketSet& ps = *psr.value();
  std::vector<std::string> layers = spec.params.get_string_list("layers");
  if (layers.empty()) layers = {"ipv4", "tcp", "udp", "icmp"};
  const size_t payload_bytes =
      static_cast<size_t>(spec.params.get_int("payload_bytes", 0));

  struct LayerSpec {
    std::string name;
    size_t bytes;
  };
  std::vector<LayerSpec> plan;
  for (const std::string& l : layers) {
    if (l == "ipv4") plan.push_back({l, 20});
    else if (l == "tcp") plan.push_back({l, 20});
    else if (l == "udp") plan.push_back({l, 8});
    else if (l == "icmp") plan.push_back({l, 8});
    else return Error::make("nprint", "unknown layer '" + l + "'");
  }
  if (payload_bytes > 0) plan.push_back({"payload", payload_bytes});

  std::vector<std::string> names;
  for (const LayerSpec& l : plan) {
    for (size_t b = 0; b < l.bytes * 8; ++b) {
      names.push_back(l.name + "_" + std::to_string(b));
    }
  }

  const trace::Dataset& ds = *ps.dataset;
  FeatureTable t = FeatureTable::make(ps.idx.size(), names);
  // Rows are independent: run the map phase across the pool (the paper's
  // Ray-style parallel feature building).
  lumen::parallel_for(0, ps.idx.size(), [&](size_t r) {
    const uint32_t i = ps.idx[r];
    const PacketView& v = ds.trace.view[i];
    const netio::Bytes& raw = ds.trace.raw[i].data;
    size_t c = 0;
    for (const LayerSpec& l : plan) {
      int off = -1;
      if (l.name == "ipv4" && v.has_ip) off = v.ip_off;
      else if (l.name == "tcp" && v.proto == netio::IpProto::kTcp) off = v.l4_off;
      else if (l.name == "udp" && v.proto == netio::IpProto::kUdp) off = v.l4_off;
      else if (l.name == "icmp" && v.proto == netio::IpProto::kIcmp) off = v.l4_off;
      else if (l.name == "payload" && v.payload_len > 0) off = v.payload_off;
      for (size_t b = 0; b < l.bytes; ++b) {
        const size_t at = off >= 0 ? static_cast<size_t>(off) + b : SIZE_MAX;
        if (off < 0 || at >= raw.size()) {
          for (int bit = 0; bit < 8; ++bit) t.at(r, c++) = -1.0;
        } else {
          const uint8_t byte = raw[at];
          for (int bit = 7; bit >= 0; --bit) {
            t.at(r, c++) = ((byte >> bit) & 1) != 0 ? 1.0 : 0.0;
          }
        }
      }
    }
    t.labels[r] = ds.label_at(i);
    t.attack[r] = ds.attack_at(i);
    t.unit_id[r] = i;
    t.unit_time[r] = v.ts;
  });
  return Value(std::move(t));
}

// "pdml_fields": the smart-home IDS's wide per-packet representation —
// every scalar field Lumen knows plus one-hot application protocol. Gated
// on app-metadata-bearing datasets by the algorithm registry.
Result<Value> run_pdml_fields(const OpSpec& spec,
                              const std::vector<const Value*>& in,
                              OpContext& ctx) {
  OpSpec wide = spec;
  Json fields = Json::array();
  for (const std::string& f : known_packet_fields()) {
    if (f != "ts") fields.push_back(Json::string(f));
  }
  fields.push_back(Json::string("iat"));
  wide.params.set("param", std::move(fields));
  wide.params.set("one_hot_app", Json::boolean(true));
  return run_packet_features(wide, in, ctx);
}

}  // namespace

void register_packet_ops() {
  register_simple("field_extract", {}, ValueKind::kPacketSet,
                  run_field_extract);
  register_simple("filter", {ValueKind::kPacketSet}, ValueKind::kPacketSet,
                  run_filter);
  register_simple("groupby", {ValueKind::kPacketSet},
                  ValueKind::kGroupedPackets, run_groupby);
  register_simple("time_slice", {ValueKind::kAny}, ValueKind::kGroupedPackets,
                  run_time_slice);
  register_simple("apply_aggregates", {ValueKind::kGroupedPackets},
                  ValueKind::kFeatureTable, run_apply_aggregates);
  register_simple("window_stats", {ValueKind::kPacketSet},
                  ValueKind::kFeatureTable, run_window_stats);
  register_simple("packet_features", {ValueKind::kPacketSet},
                  ValueKind::kFeatureTable, run_packet_features);
  register_simple("damped_stats", {ValueKind::kPacketSet},
                  ValueKind::kFeatureTable, run_damped_stats);
  register_simple("nprint", {ValueKind::kPacketSet}, ValueKind::kFeatureTable,
                  run_nprint);
  register_simple("pdml_fields", {ValueKind::kPacketSet},
                  ValueKind::kFeatureTable, run_pdml_fields);
}

}  // namespace lumen::core
