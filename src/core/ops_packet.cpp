// Packet-level operations: field extraction, filtering, grouping, time
// slicing, windowed/group aggregates, Kitsune damped statistics, nPrint-style
// bit features, and PDML-style wide extraction.
#include <algorithm>
#include <deque>
#include <map>

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
  const Result<void> fields = check_extract_fields(spec);
  if (!fields.ok()) return fields.error();
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
  const PacketFilter keep(spec.params.get_string_list("require"));
  PacketSet out;
  out.dataset = ps.dataset;
  for (uint32_t i : ps.idx) {
    if (keep(ps.dataset->trace.view[i])) out.idx.push_back(i);
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
  const Result<const GroupKey*> key = find_group_key(keys.front(), "groupby");
  if (!key.ok()) return key.error();

  GroupedPackets out;
  out.dataset = ps.dataset;
  out.group_field = keys.front();
  GroupDirectory dir(*key.value());
  for (uint32_t i : ps.idx) {
    const PacketView& v = ps.dataset->trace.view[i];
    const uint32_t id = dir.id_of(v);
    if (id == out.groups.size()) {
      out.groups.push_back(Group{dir.key_of(id), v.ts, {}});
    }
    out.groups[id].idx.push_back(i);
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
      const int64_t w = window_index(ts, t0, window);
      auto [it, fresh] = windows.try_emplace(w);
      if (fresh) {
        it->second.key = g.key + "#w" + std::to_string(w);
        it->second.window_start = window_start(w, t0, window);
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
  const Result<AggPlan> plan =
      AggPlan::build(parse_agg_list(spec.params), "apply_aggregates");
  if (!plan.ok()) return plan.error();
  std::vector<std::vector<uint32_t>> units;
  units.reserve(gp.groups.size());
  for (const Group& g : gp.groups) units.push_back(g.idx);
  return Value(table_from_units(*gp.dataset, units, plan.value()));
}

// "window_stats": per-PACKET contextual features — each packet gets
// aggregates computed over its group's packets within the trailing window
// (the stateful half of the ML-DDoS feature set), refolded per packet.
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
  const Result<const GroupKey*> group_key = find_group_key(key, "window_stats");
  if (!group_key.ok()) return group_key.error();
  const Result<AggPlan> plan =
      AggPlan::build(parse_agg_list(spec.params), "window_stats");
  if (!plan.ok()) return plan.error();

  std::vector<std::string> names;
  for (const std::string& name : plan.value().names) {
    names.push_back(key + "_" + std::to_string(static_cast<int>(window)) +
                    "s_" + name);
  }
  FeatureTable t = FeatureTable::make(ps.idx.size(), names);

  const trace::Dataset& ds = *ps.dataset;
  GroupDirectory dir(*group_key.value());
  std::vector<std::deque<uint32_t>> history;  // per group id
  for (size_t r = 0; r < ps.idx.size(); ++r) {
    const uint32_t i = ps.idx[r];
    const PacketView& v = ds.trace.view[i];
    const uint32_t id = dir.id_of(v);
    if (id == history.size()) history.emplace_back();
    std::deque<uint32_t>& h = history[id];
    h.push_back(i);
    while (!h.empty() && v.ts - ds.trace.view[h.front()].ts > window) {
      h.pop_front();
    }
    AggAccumulator acc(plan.value());
    for (const uint32_t p : h) acc.feed(ds.trace.view[p]);
    for (size_t c = 0; c < t.cols; ++c) t.at(r, c) = acc.finalize(c);
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
  Result<PacketFeatureRow> row = PacketFeatureRow::build(spec);
  if (!row.ok()) return row.error();
  FeatureTable t = FeatureTable::make(ps.idx.size(), row.value().names());
  const trace::Dataset& ds = *ps.dataset;
  for (size_t r = 0; r < ps.idx.size(); ++r) {
    const uint32_t i = ps.idx[r];
    const PacketView& v = ds.trace.view[i];
    row.value().fill(v, &t.at(r, 0));
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
