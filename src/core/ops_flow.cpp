// Flow-granularity operations: unidirectional-flow and connection assembly,
// per-flow aggregate features, Zeek/Bayesian/IIoT connection feature sets,
// and the first-k-packets sequence representation (OCSVM family, D-PACK).
#include <set>

#include "core/ops_common.h"

namespace lumen::core {

namespace {

using features::FeatureTable;
using netio::PacketView;

Result<Value> run_uniflows(const OpSpec& spec,
                           const std::vector<const Value*>& in,
                           OpContext& ctx) {
  auto psr = input_as<PacketSet>(in, 0, "uniflows");
  if (!psr.ok()) return psr.error();
  const PacketSet& ps = *psr.value();
  const double timeout = spec.params.get_number("timeout", 60.0);
  FlowSet out;
  out.dataset = ps.dataset;
  out.flows = flow::assemble_uniflows(ps.dataset->trace, timeout);
  return Value(std::move(out));
}

Result<Value> run_connections(const OpSpec& spec,
                              const std::vector<const Value*>& in,
                              OpContext& ctx) {
  auto psr = input_as<PacketSet>(in, 0, "connections");
  if (!psr.ok()) return psr.error();
  const PacketSet& ps = *psr.value();
  const double timeout = spec.params.get_number("timeout", 120.0);
  ConnSet out;
  out.dataset = ps.dataset;
  out.conns = flow::assemble_connections(ps.dataset->trace, timeout);
  out.records.reserve(out.conns.size());
  for (const flow::Connection& c : out.conns) {
    out.records.push_back(flow::summarize(c, ps.dataset->trace));
  }
  return Value(std::move(out));
}

// "flow_features": per-unidirectional-flow aggregates (plus flow scalars).
Result<Value> run_flow_features(const OpSpec& spec,
                                const std::vector<const Value*>& in,
                                OpContext& ctx) {
  auto fsr = input_as<FlowSet>(in, 0, "flow_features");
  if (!fsr.ok()) return fsr.error();
  const FlowSet& fs = *fsr.value();
  const Result<AggPlan> plan =
      AggPlan::build(parse_agg_list(spec.params), "flow_features");
  if (!plan.ok()) return plan.error();
  std::vector<std::vector<uint32_t>> units;
  units.reserve(fs.flows.size());
  for (const flow::Flow& f : fs.flows) units.push_back(f.pkts);
  FeatureTable t = table_from_units(*fs.dataset, units, plan.value());
  for (size_t r = 0; r < fs.flows.size(); ++r) {
    t.unit_id[r] = fs.flows[r].id;
  }
  return Value(std::move(t));
}

void push_dir_stats(const trace::Dataset& ds,
                    const std::vector<uint32_t>& pkts,
                    std::vector<double>& row) {
  features::RunningStats len, iat;
  double prev = -1.0;
  uint32_t flags[6] = {0, 0, 0, 0, 0, 0};
  features::RunningStats ttl, win;
  for (uint32_t p : pkts) {
    const PacketView& v = ds.trace.view[p];
    len.add(v.wire_len);
    if (prev >= 0.0) iat.add(v.ts - prev);
    prev = v.ts;
    flags[0] += v.tcp_flag(netio::kSyn);
    flags[1] += v.tcp_flag(netio::kAck);
    flags[2] += v.tcp_flag(netio::kFin);
    flags[3] += v.tcp_flag(netio::kRst);
    flags[4] += v.tcp_flag(netio::kPsh);
    flags[5] += v.tcp_flag(netio::kUrg);
    ttl.add(v.ttl);
    win.add(v.tcp_window);
  }
  row.push_back(static_cast<double>(len.count()));
  row.push_back(len.sum());
  row.push_back(len.mean());
  row.push_back(len.stddev());
  row.push_back(len.min());
  row.push_back(len.max());
  row.push_back(iat.mean());
  row.push_back(iat.stddev());
  row.push_back(iat.max());
  for (uint32_t f : flags) row.push_back(f);
  row.push_back(ttl.mean());
  row.push_back(win.mean());
}

// "conn_features": connection-level feature sets, composable via
// params["set"] = ["zeek", "bayes", "iiot"].
Result<Value> run_conn_features(const OpSpec& spec,
                                const std::vector<const Value*>& in,
                                OpContext& ctx) {
  auto csr = input_as<ConnSet>(in, 0, "conn_features");
  if (!csr.ok()) return csr.error();
  const ConnSet& cs = *csr.value();
  std::vector<std::string> sets = spec.params.get_string_list("set");
  if (sets.empty()) sets = {"zeek"};
  const std::set<std::string> want(sets.begin(), sets.end());
  for (const std::string& s : sets) {
    if (s != "zeek" && s != "bayes" && s != "iiot") {
      return Error::make("conn_features", "unknown feature set '" + s + "'");
    }
  }

  std::vector<std::string> names;
  if (want.count("zeek") != 0) {
    for (const char* n :
         {"duration", "orig_pkts", "resp_pkts", "orig_bytes", "resp_bytes",
          "proto", "service", "byte_ratio"}) {
      names.push_back(std::string("zeek_") + n);
    }
    for (const char* s : {"S0", "SF", "REJ", "RSTO", "RSTR", "OTH"}) {
      names.push_back(std::string("zeek_state_") + s);
    }
  }
  if (want.count("bayes") != 0) {
    for (const char* dir : {"fwd", "bwd"}) {
      for (const char* n :
           {"pkts", "bytes", "len_mean", "len_std", "len_min", "len_max",
            "iat_mean", "iat_std", "iat_max", "syn", "ack", "fin", "rst",
            "psh", "urg", "ttl_mean", "win_mean"}) {
        names.push_back(std::string("bayes_") + dir + "_" + n);
      }
    }
    for (const char* n : {"duration", "pkt_rate", "byte_rate", "pkt_ratio",
                          "sport", "dport"}) {
      names.push_back(std::string("bayes_") + n);
    }
  }
  if (want.count("iiot") != 0) {
    for (const char* n : {"duration", "len_mean", "bandwidth", "retrans",
                          "jitter", "orig_bw", "resp_bw"}) {
      names.push_back(std::string("iiot_") + n);
    }
  }

  const trace::Dataset& ds = *cs.dataset;
  FeatureTable t = FeatureTable::make(cs.conns.size(), names);
  std::vector<std::vector<uint32_t>> units;
  units.reserve(cs.conns.size());

  for (size_t r = 0; r < cs.conns.size(); ++r) {
    const flow::Connection& c = cs.conns[r];
    const flow::ConnRecord& rec = cs.records[r];
    units.push_back(c.pkts);
    std::vector<double> row;
    row.reserve(names.size());

    if (want.count("zeek") != 0) {
      row.push_back(rec.duration);
      row.push_back(static_cast<double>(rec.orig_pkts));
      row.push_back(static_cast<double>(rec.resp_pkts));
      row.push_back(static_cast<double>(rec.orig_bytes));
      row.push_back(static_cast<double>(rec.resp_bytes));
      row.push_back(rec.proto);
      row.push_back(static_cast<double>(rec.service));
      row.push_back(rec.orig_bytes > 0
                        ? static_cast<double>(rec.resp_bytes) /
                              static_cast<double>(rec.orig_bytes)
                        : 0.0);
      for (int s = 0; s < 6; ++s) {
        row.push_back(rec.state == static_cast<flow::ConnState>(s) ? 1.0 : 0.0);
      }
    }
    if (want.count("bayes") != 0) {
      std::vector<uint32_t> fwd, bwd;
      for (size_t i = 0; i < c.pkts.size(); ++i) {
        (c.dir[i] == 0 ? fwd : bwd).push_back(c.pkts[i]);
      }
      push_dir_stats(ds, fwd, row);
      push_dir_stats(ds, bwd, row);
      const double dur = c.duration();
      row.push_back(dur);
      row.push_back(dur > 1e-9 ? static_cast<double>(c.pkts.size()) / dur : 0.0);
      row.push_back(dur > 1e-9 ? static_cast<double>(c.orig_bytes + c.resp_bytes) / dur : 0.0);
      row.push_back(c.resp_pkts > 0 ? static_cast<double>(c.orig_pkts) /
                                          static_cast<double>(c.resp_pkts)
                                    : static_cast<double>(c.orig_pkts));
      row.push_back(c.orig_key.src_port);
      row.push_back(c.orig_key.dst_port);
    }
    if (want.count("iiot") != 0) {
      features::RunningStats len, iat;
      double prev = -1.0;
      for (uint32_t p : c.pkts) {
        const PacketView& v = ds.trace.view[p];
        len.add(v.wire_len);
        if (prev >= 0.0) iat.add(v.ts - prev);
        prev = v.ts;
      }
      const double dur = c.duration();
      row.push_back(dur);
      row.push_back(len.mean());
      row.push_back(dur > 1e-9 ? len.sum() / dur : 0.0);
      row.push_back(rec.retransmissions);
      row.push_back(iat.stddev());
      row.push_back(dur > 1e-9 ? static_cast<double>(c.orig_bytes) / dur : 0.0);
      row.push_back(dur > 1e-9 ? static_cast<double>(c.resp_bytes) / dur : 0.0);
    }
    for (size_t col = 0; col < row.size(); ++col) t.at(r, col) = row[col];
  }
  fill_unit_metadata(ds, units, t);
  for (size_t r = 0; r < cs.conns.size(); ++r) t.unit_id[r] = cs.conns[r].id;
  return Value(std::move(t));
}

// "first_k_packets": fixed-length size/IAT sequences (zero padded).
Result<Value> run_first_k(const OpSpec& spec,
                          const std::vector<const Value*>& in,
                          OpContext& ctx) {
  const size_t k = static_cast<size_t>(spec.params.get_int("k", 20));
  std::vector<std::string> what = spec.params.get_string_list("what");
  if (what.empty()) what = {"len", "iat"};

  const trace::Dataset* ds = nullptr;
  std::vector<std::vector<uint32_t>> units;
  std::vector<int64_t> ids;
  if (const auto* cs = std::get_if<ConnSet>(in[0])) {
    ds = cs->dataset;
    for (const auto& c : cs->conns) {
      units.push_back(c.pkts);
      ids.push_back(c.id);
    }
  } else if (const auto* fs = std::get_if<FlowSet>(in[0])) {
    ds = fs->dataset;
    for (const auto& f : fs->flows) {
      units.push_back(f.pkts);
      ids.push_back(f.id);
    }
  } else {
    return Error::make("first_k_packets", "input must be flows or connections");
  }

  std::vector<std::string> names;
  for (const std::string& w : what) {
    for (size_t i = 0; i < k; ++i) {
      names.push_back(w + "_" + std::to_string(i));
    }
  }
  FeatureTable t = FeatureTable::make(units.size(), names);
  for (size_t r = 0; r < units.size(); ++r) {
    const std::vector<uint32_t>& pkts = units[r];
    size_t col = 0;
    for (const std::string& w : what) {
      for (size_t i = 0; i < k; ++i, ++col) {
        if (i >= pkts.size()) continue;  // zero padding
        const PacketView& v = ds->trace.view[pkts[i]];
        if (w == "len") {
          t.at(r, col) = v.wire_len;
        } else if (w == "iat") {
          t.at(r, col) =
              i > 0 ? v.ts - ds->trace.view[pkts[i - 1]].ts : 0.0;
        }
      }
    }
  }
  fill_unit_metadata(*ds, units, t);
  for (size_t r = 0; r < ids.size(); ++r) t.unit_id[r] = ids[r];
  return Value(std::move(t));
}

}  // namespace

void register_flow_ops() {
  register_simple("uniflows", {ValueKind::kPacketSet}, ValueKind::kFlowSet,
                  run_uniflows);
  register_simple("connections", {ValueKind::kPacketSet}, ValueKind::kConnSet,
                  run_connections);
  register_simple("flow_features", {ValueKind::kFlowSet},
                  ValueKind::kFeatureTable, run_flow_features);
  register_simple("conn_features", {ValueKind::kConnSet},
                  ValueKind::kFeatureTable, run_conn_features);
  register_simple("first_k_packets", {ValueKind::kAny},
                  ValueKind::kFeatureTable, run_first_k);
}

}  // namespace lumen::core
