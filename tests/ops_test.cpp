// Operation-level tests: each built-in op is exercised directly through the
// registry against a small synthetic dataset, with hand-computed expected
// values where feasible.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "core/engine.h"
#include "core/ops_common.h"
#include "trace/attacks.h"

namespace lumen::core {
namespace {

using features::FeatureTable;

/// Small deterministic dataset: benign web traffic plus a SYN flood.
const trace::Dataset& tiny_dataset() {
  static const trace::Dataset ds = [] {
    trace::Sim sim(424242);
    trace::BenignStyle st;
    sim.benign_iot_traffic(0.0, 30.0, 3, st);
    trace::attack_syn_flood(sim, 10.0, 8.0, sim.lan_ip(st, 1), 80, 15.0,
                            trace::AttackType::kSynFlood);
    return sim.finish("T0", "tiny", trace::Granularity::kPacket);
  }();
  return ds;
}

/// Run a single op through the registry.
Result<Value> run_op(const std::string& func, const Json& params,
                     const std::vector<const Value*>& inputs,
                     const trace::Dataset& ds = tiny_dataset()) {
  register_builtin_operations();
  OpSpec spec;
  spec.func = func;
  spec.output = "out";
  spec.params = params;
  auto op = OperationRegistry::instance().create(spec);
  if (!op.ok()) return op.error();
  OpContext ctx;
  ctx.dataset = &ds;
  return op.value()->run(inputs, ctx);
}

Json parse(const char* text) {
  auto r = Json::parse(text);
  EXPECT_TRUE(r.ok()) << r.error().message;
  return r.value();
}

Value source_packets(const trace::Dataset& ds = tiny_dataset()) {
  PacketSet ps;
  ps.dataset = &ds;
  for (uint32_t i = 0; i < ds.trace.view.size(); ++i) ps.idx.push_back(i);
  return Value(std::move(ps));
}

TEST(Ops, RegistryKnowsAtLeastThirtyOps) {
  register_builtin_operations();
  const auto ops = OperationRegistry::instance().known_ops();
  EXPECT_GE(ops.size(), 25u);  // ~30 configurable operations in the paper
}

TEST(Ops, FieldExtractSourcesWholeDataset) {
  auto v = run_op("field_extract", parse(R"({"param": ["srcIP", "len"]})"), {});
  ASSERT_TRUE(v.ok()) << v.error().message;
  const auto& ps = std::get<PacketSet>(v.value());
  EXPECT_EQ(ps.idx.size(), tiny_dataset().trace.view.size());
}

TEST(Ops, FieldExtractRejectsUnknownField) {
  auto v = run_op("field_extract", parse(R"({"param": ["bogus_field"]})"), {});
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().message.find("bogus_field"), std::string::npos);
}

TEST(Ops, FilterKeepsOnlyMatching) {
  const Value src = source_packets();
  auto v = run_op("filter", parse(R"({"require": ["is_tcp"]})"), {&src});
  ASSERT_TRUE(v.ok());
  const auto& ps = std::get<PacketSet>(v.value());
  ASSERT_FALSE(ps.idx.empty());
  for (uint32_t i : ps.idx) {
    EXPECT_TRUE(tiny_dataset().trace.view[i].has_tcp());
  }
}

TEST(Ops, GroupbySrcIpPartitionsPackets) {
  const Value src = source_packets();
  auto v = run_op("groupby", parse(R"({"flowid": ["srcIp"]})"), {&src});
  ASSERT_TRUE(v.ok()) << v.error().message;
  const auto& gp = std::get<GroupedPackets>(v.value());
  ASSERT_GT(gp.groups.size(), 2u);
  size_t total = 0;
  std::set<uint32_t> seen;
  for (const Group& g : gp.groups) {
    total += g.idx.size();
    uint32_t ip = tiny_dataset().trace.view[g.idx[0]].src_ip;
    for (uint32_t i : g.idx) {
      EXPECT_EQ(tiny_dataset().trace.view[i].src_ip, ip);
      EXPECT_TRUE(seen.insert(i).second) << "packet in two groups";
    }
  }
  EXPECT_EQ(total, tiny_dataset().trace.view.size());
}

TEST(Ops, GroupbyUnknownKeyFails) {
  const Value src = source_packets();
  auto v = run_op("groupby", parse(R"({"flowid": ["nonsense"]})"), {&src});
  EXPECT_FALSE(v.ok());
}

// Batch groupby's groups for every key name: the printable keys, their
// first-occurrence order, each group's members and start time, against
// keys rendered here from the packet fields.
TEST(Ops, GroupbyKeysAndOrderForEveryKeyName) {
  const trace::Dataset& ds = tiny_dataset();
  const auto ip = [](uint32_t a) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", a >> 24, (a >> 16) & 0xff,
                  (a >> 8) & 0xff, a & 0xff);
    return std::string(buf);
  };
  const auto render = [&](const std::string& key,
                          const netio::PacketView& v) -> std::string {
    if (key == "srcip") return ip(v.src_ip);
    if (key == "dstip") return ip(v.dst_ip);
    if (key == "srcdst" || key == "channel") {
      return ip(v.src_ip) + ">" + ip(v.dst_ip);
    }
    if (key == "socket") {
      return ip(v.src_ip) + ":" + std::to_string(v.src_port) + ">" +
             ip(v.dst_ip) + ":" + std::to_string(v.dst_port) + "/" +
             std::to_string(v.proto_raw);
    }
    if (key == "srcmac") {
      char buf[13];
      std::snprintf(buf, sizeof buf, "%02x%02x%02x%02x%02x%02x", v.src_mac[0],
                    v.src_mac[1], v.src_mac[2], v.src_mac[3], v.src_mac[4],
                    v.src_mac[5]);
      return buf;
    }
    if (key == "dstport") return std::to_string(v.dst_port);
    if (key == "proto") return std::to_string(v.proto_raw);
    ADD_FAILURE() << "no reference rendering for " << key;
    return "";
  };

  const Value src = source_packets();
  for (const std::string key : {"srcip", "dstip", "srcdst", "channel",
                                "socket", "srcmac", "dstport", "proto"}) {
    SCOPED_TRACE(key);
    std::vector<Group> want;
    std::map<std::string, size_t> at;
    for (uint32_t i = 0; i < ds.trace.view.size(); ++i) {
      const netio::PacketView& v = ds.trace.view[i];
      const auto [it, fresh] = at.emplace(render(key, v), want.size());
      if (fresh) {
        Group g;
        g.key = it->first;
        g.window_start = v.ts;
        want.push_back(std::move(g));
      }
      want[it->second].idx.push_back(i);
    }
    ASSERT_GT(want.size(), 1u);

    const std::string params = R"({"flowid": [")" + key + R"("]})";
    auto v = run_op("groupby", parse(params.c_str()), {&src});
    ASSERT_TRUE(v.ok()) << v.error().message;
    const auto& gp = std::get<GroupedPackets>(v.value());
    EXPECT_EQ(gp.group_field, key);
    ASSERT_EQ(gp.groups.size(), want.size());
    for (size_t g = 0; g < want.size(); ++g) {
      EXPECT_EQ(gp.groups[g].key, want[g].key) << "group " << g;
      EXPECT_EQ(gp.groups[g].idx, want[g].idx) << want[g].key;
      EXPECT_EQ(gp.groups[g].window_start, want[g].window_start)
          << want[g].key;
    }
  }
}

TEST(Ops, TimeSliceBoundsWindows) {
  const Value src = source_packets();
  auto grouped = run_op("groupby", parse(R"({"flowid": ["srcip"]})"), {&src});
  ASSERT_TRUE(grouped.ok());
  auto v = run_op("time_slice", parse(R"({"window": 5})"), {&grouped.value()});
  ASSERT_TRUE(v.ok());
  const auto& gp = std::get<GroupedPackets>(v.value());
  for (const Group& g : gp.groups) {
    double lo = 1e30, hi = -1e30;
    for (uint32_t i : g.idx) {
      lo = std::min(lo, tiny_dataset().trace.view[i].ts);
      hi = std::max(hi, tiny_dataset().trace.view[i].ts);
    }
    EXPECT_LE(hi - lo, 5.0 + 1e-9);
  }
}

TEST(Ops, TimeSliceRejectsBadWindow) {
  const Value src = source_packets();
  EXPECT_FALSE(run_op("time_slice", parse(R"({"window": -1})"), {&src}).ok());
  // A window must be finite and in [1e-6, 1e9] s, so the window index and
  // the column name stay representable; 1e999 parses as inf.
  for (const char* op : {"time_slice", "window_stats"}) {
    for (const char* w : {"1e-18", "1e999", "-1e999", "1e10", "0"}) {
      const std::string params = std::string(R"({"window": )") + w + "}";
      auto v = run_op(op, parse(params.c_str()), {&src});
      ASSERT_FALSE(v.ok()) << op << " window " << w;
      EXPECT_EQ(v.error().message.rfind(std::string(op) + ": window", 0), 0u)
          << v.error().message;
    }
    for (const char* w : {"1e-6", "1e9"}) {
      const std::string params = std::string(R"({"window": )") + w + "}";
      EXPECT_TRUE(run_op(op, parse(params.c_str()), {&src}).ok())
          << op << " window " << w;
    }
  }
}

TEST(Ops, ApplyAggregatesComputesHandValues) {
  // Build a 3-packet group by filtering a fresh two-host dataset.
  trace::Sim sim(7);
  trace::Sim::TcpSessionSpec spec;
  spec.client = 0x0a000001;
  spec.server = 0x0a000002;
  spec.data_pkts = 2;
  sim.tcp_session(0.0, spec);
  const trace::Dataset ds =
      sim.finish("T1", "tiny", trace::Granularity::kPacket);

  const Value src = source_packets(ds);
  auto grouped =
      run_op("groupby", parse(R"({"flowid": ["srcip"]})"), {&src}, ds);
  ASSERT_TRUE(grouped.ok());
  auto v = run_op("apply_aggregates",
                  parse(R"({"list": [{"field": "len",
                                      "funcs": ["mean", "min", "max"]},
                                     {"func": "count"}]})"),
                  {&grouped.value()}, ds);
  ASSERT_TRUE(v.ok()) << v.error().message;
  const auto& t = std::get<FeatureTable>(v.value());
  ASSERT_EQ(t.cols, 4u);
  EXPECT_EQ(t.col_names[0], "len_mean");
  // Verify against direct computation for group 0.
  const auto& gview = ds.trace.view;
  double mean = 0.0, mn = 1e9, mx = 0.0;
  size_t n = 0;
  for (const auto& pv : gview) {
    if (pv.src_ip == 0x0a000001) {
      mean += pv.wire_len;
      mn = std::min<double>(mn, pv.wire_len);
      mx = std::max<double>(mx, pv.wire_len);
      ++n;
    }
  }
  mean /= static_cast<double>(n);
  EXPECT_NEAR(t.at(0, 0), mean, 1e-9);
  EXPECT_EQ(t.at(0, 1), mn);
  EXPECT_EQ(t.at(0, 2), mx);
  EXPECT_EQ(t.at(0, 3), static_cast<double>(n));
}

TEST(Ops, ApplyAggregatesRejectsUnknownFunc) {
  const Value src = source_packets();
  auto grouped = run_op("groupby", parse(R"({"flowid": ["srcip"]})"), {&src});
  auto v = run_op("apply_aggregates",
                  parse(R"({"list": [{"field": "len", "funcs": ["blorp"]}]})"),
                  {&grouped.value()});
  EXPECT_FALSE(v.ok());
}

// Every aggregating op checks its list against the func and field tables
// and names itself in the error, instead of emitting an all-zero column.
TEST(Ops, AggregateOpsRejectUnknownFuncsAndFields) {
  const Value src = source_packets();
  auto grouped = run_op("groupby", parse(R"({"flowid": ["srcip"]})"), {&src});
  auto flows = run_op("uniflows", parse("{}"), {&src});
  ASSERT_TRUE(grouped.ok());
  ASSERT_TRUE(flows.ok());
  const std::pair<const char*, const Value*> ops[] = {
      {"apply_aggregates", &grouped.value()},
      {"window_stats", &src},
      {"flow_features", &flows.value()}};
  const std::pair<const char*, const char*> lists[] = {
      {R"({"list": [{"field": "len", "funcs": ["mena"]}]})", "'mena'"},
      {R"({"list": [{"field": "lenn", "funcs": ["mean"]}]})", "'lenn'"}};
  for (const auto& [op, input] : ops) {
    for (const auto& [list, bad] : lists) {
      auto v = run_op(op, parse(list), {input});
      ASSERT_FALSE(v.ok()) << op << " accepted " << list;
      EXPECT_EQ(v.error().message.rfind(std::string(op) + ": ", 0), 0u)
          << v.error().message;
      EXPECT_NE(v.error().message.find(bad), std::string::npos)
          << v.error().message;
    }
    // The known spellings still pass.
    EXPECT_TRUE(run_op(op,
                       parse(R"({"list": [{"field": "packetLength",
                                           "funcs": ["mean", "median"]}]})"),
                       {input})
                    .ok())
        << op;
  }
}

TEST(Ops, PacketFeaturesRowPerPacket) {
  const Value src = source_packets();
  auto v = run_op("packet_features",
                  parse(R"({"param": ["len", "dport", "iat"]})"), {&src});
  ASSERT_TRUE(v.ok());
  const auto& t = std::get<FeatureTable>(v.value());
  EXPECT_EQ(t.rows, tiny_dataset().trace.view.size());
  ASSERT_EQ(t.cols, 3u);
  // First packet's iat is 0; lengths match the views.
  EXPECT_EQ(t.at(0, 2), 0.0);
  EXPECT_EQ(t.at(5, 0), tiny_dataset().trace.view[5].wire_len);
}

TEST(Ops, PacketFeaturesRejectsUnknownField) {
  const Value src = source_packets();
  auto v = run_op("packet_features", parse(R"({"param": ["len", "lenn"]})"),
                  {&src});
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().message, "packet_features: unknown field 'lenn'");
}

TEST(Ops, NprintBitsMatchRawBytes) {
  const Value src = source_packets();
  auto v = run_op("nprint", parse(R"({"layers": ["ipv4"]})"), {&src});
  ASSERT_TRUE(v.ok());
  const auto& t = std::get<FeatureTable>(v.value());
  ASSERT_EQ(t.cols, 160u);  // 20 bytes x 8 bits
  const trace::Dataset& ds = tiny_dataset();
  // Check the first IPv4 packet: version nibble 0100 0101 (0x45).
  for (size_t r = 0; r < t.rows; ++r) {
    const auto& view = ds.trace.view[static_cast<size_t>(t.unit_id[r])];
    if (!view.has_ip) continue;
    EXPECT_EQ(t.at(r, 0), 0.0);
    EXPECT_EQ(t.at(r, 1), 1.0);
    EXPECT_EQ(t.at(r, 5), 1.0);
    EXPECT_EQ(t.at(r, 7), 1.0);
    break;
  }
}

TEST(Ops, NprintAbsentLayerIsMinusOne) {
  const Value src = source_packets();
  auto v = run_op("nprint", parse(R"({"layers": ["icmp"]})"), {&src});
  ASSERT_TRUE(v.ok());
  const auto& t = std::get<FeatureTable>(v.value());
  const trace::Dataset& ds = tiny_dataset();
  bool checked = false;
  for (size_t r = 0; r < t.rows && !checked; ++r) {
    const auto& view = ds.trace.view[static_cast<size_t>(t.unit_id[r])];
    if (view.proto != netio::IpProto::kIcmp) {
      for (size_t c = 0; c < t.cols; ++c) EXPECT_EQ(t.at(r, c), -1.0);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(Ops, DampedStatsShapeAndSanity) {
  const Value src = source_packets();
  auto v = run_op("damped_stats", parse(R"({"lambdas": [1.0, 0.1]})"), {&src});
  ASSERT_TRUE(v.ok()) << v.error().message;
  const auto& t = std::get<FeatureTable>(v.value());
  EXPECT_EQ(t.rows, tiny_dataset().trace.view.size());
  EXPECT_EQ(t.cols, 2u * 23u);  // 23 features per lambda (Kitsune layout)
  // Weights are positive once a context has seen a packet.
  EXPECT_GE(t.at(0, 0), 1.0);
  for (double x : t.data) EXPECT_TRUE(std::isfinite(x));
}

TEST(Ops, UniflowsAndConnectionsAgreeWithFlowModule) {
  const Value src = source_packets();
  auto fv = run_op("uniflows", parse("{}"), {&src});
  ASSERT_TRUE(fv.ok());
  EXPECT_EQ(std::get<FlowSet>(fv.value()).flows.size(),
            flow::assemble_uniflows(tiny_dataset().trace).size());
  auto cv = run_op("connections", parse("{}"), {&src});
  ASSERT_TRUE(cv.ok());
  const auto& cs = std::get<ConnSet>(cv.value());
  EXPECT_EQ(cs.conns.size(),
            flow::assemble_connections(tiny_dataset().trace).size());
  EXPECT_EQ(cs.records.size(), cs.conns.size());
}

TEST(Ops, ConnFeaturesSetsCompose) {
  const Value src = source_packets();
  auto cv = run_op("connections", parse("{}"), {&src});
  ASSERT_TRUE(cv.ok());
  auto zeek = run_op("conn_features", parse(R"({"set": ["zeek"]})"),
                     {&cv.value()});
  ASSERT_TRUE(zeek.ok());
  auto both = run_op("conn_features", parse(R"({"set": ["zeek", "iiot"]})"),
                     {&cv.value()});
  ASSERT_TRUE(both.ok());
  EXPECT_GT(std::get<FeatureTable>(both.value()).cols,
            std::get<FeatureTable>(zeek.value()).cols);
  EXPECT_FALSE(
      run_op("conn_features", parse(R"({"set": ["wat"]})"), {&cv.value()})
          .ok());
}

TEST(Ops, FirstKPacketsZeroPads) {
  const Value src = source_packets();
  auto cv = run_op("connections", parse("{}"), {&src});
  auto v = run_op("first_k_packets", parse(R"({"k": 50, "what": ["len"]})"),
                  {&cv.value()});
  ASSERT_TRUE(v.ok());
  const auto& t = std::get<FeatureTable>(v.value());
  EXPECT_EQ(t.cols, 50u);
  // Short connections end in zero padding.
  const auto& conns = std::get<ConnSet>(cv.value()).conns;
  for (size_t r = 0; r < t.rows; ++r) {
    if (conns[r].pkts.size() < 50) {
      EXPECT_EQ(t.at(r, 49), 0.0);
    }
  }
}

TEST(Ops, SplitTakesComplementaryParts) {
  const Value src = source_packets();
  auto feats = run_op("packet_features", parse(R"({"param": ["len"]})"), {&src});
  ASSERT_TRUE(feats.ok());
  auto train = run_op("split", parse(R"({"train_fraction": 0.7, "take": "train"})"),
                      {&feats.value()});
  auto test = run_op("split", parse(R"({"train_fraction": 0.7, "take": "test"})"),
                     {&feats.value()});
  ASSERT_TRUE(train.ok());
  ASSERT_TRUE(test.ok());
  const auto& tr = std::get<FeatureTable>(train.value());
  const auto& te = std::get<FeatureTable>(test.value());
  const auto& full = std::get<FeatureTable>(feats.value());
  EXPECT_EQ(tr.rows + te.rows, full.rows);
  // Train rows all precede test rows in time.
  double tr_max = -1e30, te_min = 1e30;
  for (size_t r = 0; r < tr.rows; ++r) tr_max = std::max(tr_max, tr.unit_time[r]);
  for (size_t r = 0; r < te.rows; ++r) te_min = std::min(te_min, te.unit_time[r]);
  EXPECT_LE(tr_max, te_min + 1e-9);
}

TEST(Ops, SampleIsDeterministicAndSmaller) {
  const Value src = source_packets();
  auto feats = run_op("packet_features", parse(R"({"param": ["len"]})"), {&src});
  auto a = run_op("sample", parse(R"({"fraction": 0.25, "seed": 5})"),
                  {&feats.value()});
  auto b = run_op("sample", parse(R"({"fraction": 0.25, "seed": 5})"),
                  {&feats.value()});
  ASSERT_TRUE(a.ok());
  const auto& ta = std::get<FeatureTable>(a.value());
  const auto& tb = std::get<FeatureTable>(b.value());
  EXPECT_EQ(ta.unit_id, tb.unit_id);
  EXPECT_NEAR(static_cast<double>(ta.rows),
              0.25 * static_cast<double>(std::get<FeatureTable>(feats.value()).rows),
              2.0);
  EXPECT_FALSE(run_op("sample", parse(R"({"fraction": 1.5})"),
                      {&feats.value()})
                   .ok());
}

TEST(Ops, ConcatFeaturesValidatesAlignment) {
  const Value src = source_packets();
  auto a = run_op("packet_features", parse(R"({"param": ["len"]})"), {&src});
  auto b = run_op("packet_features", parse(R"({"param": ["dport"]})"), {&src});
  auto merged = run_op("concat_features", parse("{}"),
                       {&a.value(), &b.value()});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(std::get<FeatureTable>(merged.value()).cols, 2u);
  // Misaligned inputs (different unit sets) are rejected.
  auto cv = run_op("connections", parse("{}"), {&src});
  auto c = run_op("conn_features", parse(R"({"set": ["zeek"]})"), {&cv.value()});
  EXPECT_FALSE(run_op("concat_features", parse("{}"),
                      {&a.value(), &c.value()})
                   .ok());
}

TEST(Ops, OneHotExpandsColumn) {
  const Value src = source_packets();
  auto feats =
      run_op("packet_features", parse(R"({"param": ["len", "proto"]})"), {&src});
  auto v = run_op("one_hot",
                  parse(R"({"column": "proto", "values": [6, 17, 1]})"),
                  {&feats.value()});
  ASSERT_TRUE(v.ok());
  const auto& t = std::get<FeatureTable>(v.value());
  EXPECT_EQ(t.cols, 4u);  // len + 3 indicators
  for (size_t r = 0; r < t.rows; ++r) {
    const double sum = t.at(r, 1) + t.at(r, 2) + t.at(r, 3);
    EXPECT_LE(sum, 1.0);
  }
  EXPECT_FALSE(
      run_op("one_hot", parse(R"({"column": "nope"})"), {&feats.value()}).ok());
}

TEST(Ops, ModelTrainPredictEvaluateChain) {
  const Value src = source_packets();
  auto feats = run_op(
      "packet_features",
      parse(R"({"param": ["len", "iat", "dport", "is_syn", "is_ack"]})"),
      {&src});
  ASSERT_TRUE(feats.ok());
  auto model = run_op("model", parse(R"({"model_type": "RandomForest"})"), {});
  ASSERT_TRUE(model.ok());
  auto trained = run_op("train", parse("{}"), {&model.value(), &feats.value()});
  ASSERT_TRUE(trained.ok()) << trained.error().message;
  auto preds = run_op("predict", parse("{}"), {&trained.value(), &feats.value()});
  ASSERT_TRUE(preds.ok());
  auto metrics = run_op("evaluate", parse("{}"), {&preds.value()});
  ASSERT_TRUE(metrics.ok());
  const auto& m = std::get<Metrics>(metrics.value());
  // Training-set fit on separable data: precision should be high.
  EXPECT_GT(m.get("precision"), 0.8);
  EXPECT_GT(m.get("auc"), 0.9);
}

/// packet_features over the whole tiny dataset.
Value packet_features(const char* params) {
  const Value src = source_packets();
  auto v = run_op("packet_features", parse(params), {&src});
  EXPECT_TRUE(v.ok()) << v.error().message;
  return v.ok() ? std::move(v).value() : Value();
}

// model -> predict with no train in between: every model_type scores zeros
// (or its untrained default) instead of reading unfitted state.
TEST(Ops, UntrainedModelPredictsOneScorePerRow) {
  const Value feats = packet_features(R"({"param": ["len", "iat", "dport"]})");
  const size_t rows = std::get<FeatureTable>(feats).rows;
  for (const char* model : {
           R"({"model_type": "RandomForest"})",
           R"({"model_type": "DecisionTree"})",
           R"({"model_type": "GaussianNB"})",
           R"({"model_type": "KNN"})",
           R"({"model_type": "LinearSVM"})",
           R"({"model_type": "LogisticRegression"})",
           R"({"model_type": "MLP"})",
           R"({"model_type": "AutoML"})",
           R"({"model_type": "OCSVM"})",
           R"({"model_type": "LinearOCSVM"})",
           R"({"model_type": "NystromGMM"})",
           R"({"model_type": "NystromOCSVM"})",
           R"({"model_type": "GMM"})",
           R"({"model_type": "AutoEncoder"})",
           R"({"model_type": "KitNET"})",
           R"({"model_type": "Ensemble",
               "members": ["RandomForest", "LinearSVM", "KNN"]})",
       }) {
    auto mv = run_op("model", parse(model), {});
    ASSERT_TRUE(mv.ok()) << model << ": " << mv.error().message;
    auto preds = run_op("predict", parse("{}"), {&mv.value(), &feats});
    ASSERT_TRUE(preds.ok()) << model << ": " << preds.error().message;
    const auto& p = std::get<Predictions>(preds.value());
    EXPECT_EQ(p.scores.size(), rows) << model;
    EXPECT_EQ(p.y_pred.size(), rows) << model;
  }
}

// The engine-level width contract for the table models: predicting on a
// table narrower than the one the model was trained on scores zeros, and a
// wider table (extra trailing columns) predicts exactly like the training
// width. The informative SYN-flood features sit in the last two training
// columns so every tree splits on a column the narrow table lacks.
TEST(Ops, PredictHonorsTrainingWidth) {
  const Value narrow = packet_features(R"({"param": ["iat", "dport"]})");
  const Value same =
      packet_features(R"({"param": ["iat", "dport", "len", "is_syn"]})");
  const Value wide = packet_features(
      R"({"param": ["iat", "dport", "len", "is_syn", "is_tcp", "is_ack"]})");
  const size_t rows = std::get<FeatureTable>(same).rows;
  for (const char* type :
       {"RandomForest", "DecisionTree", "GMM", "OCSVM", "LinearSVM",
        "LogisticRegression", "LinearOCSVM", "KNN"}) {
    const std::string params =
        std::string(R"({"model_type": ")") + type + R"("})";
    auto mv = run_op("model", parse(params.c_str()), {});
    ASSERT_TRUE(mv.ok()) << type;
    auto trained = run_op("train", parse("{}"), {&mv.value(), &same});
    ASSERT_TRUE(trained.ok()) << type << ": " << trained.error().message;
    const auto predict = [&](const Value& t) {
      auto r = run_op("predict", parse("{}"), {&trained.value(), &t});
      EXPECT_TRUE(r.ok()) << type << ": " << r.error().message;
      return r.ok() ? std::get<Predictions>(r.value()) : Predictions{};
    };
    const Predictions base = predict(same);
    ASSERT_EQ(base.scores.size(), rows) << type;

    const Predictions n = predict(narrow);
    EXPECT_EQ(n.scores, std::vector<double>(rows, 0.0)) << type;
    EXPECT_EQ(n.y_pred.size(), rows) << type;

    const Predictions w = predict(wide);
    EXPECT_EQ(w.scores, base.scores) << type;  // bitwise
    EXPECT_EQ(w.y_pred, base.y_pred) << type;
  }
}

// `train` returns a trained copy: training one binding twice leaves the
// first result as a singly trained model would be, and the `model` output
// still predicts like an untrained model.
TEST(Ops, TrainReturnsACopyAndNeverRefitsItsInput) {
  const Value feats =
      packet_features(R"({"param": ["len", "iat", "dport", "is_syn"]})");
  auto train = run_op("split", parse(R"({"take": "train"})"), {&feats});
  auto test = run_op("split", parse(R"({"take": "test"})"), {&feats});
  ASSERT_TRUE(train.ok() && test.ok());
  auto few = run_op("sample", parse(R"({"fraction": 0.05, "seed": 3})"),
                    {&test.value()});
  ASSERT_TRUE(few.ok());
  const Json tree = parse(R"({"model_type": "DecisionTree"})");
  const auto model = [&] {
    auto m = run_op("model", tree, {});
    EXPECT_TRUE(m.ok());
    return m.ok() ? std::move(m).value() : Value();
  };
  const auto fit = [&](const Value& m, const Value& t) {
    auto r = run_op("train", parse("{}"), {&m, &t});
    EXPECT_TRUE(r.ok()) << r.error().message;
    return r.ok() ? std::move(r).value() : Value();
  };
  const auto predict = [&](const Value& m) {
    auto r = run_op("predict", parse("{}"), {&m, &feats});
    EXPECT_TRUE(r.ok()) << r.error().message;
    return r.ok() ? std::get<Predictions>(r.value()) : Predictions{};
  };

  const Predictions untrained = predict(model());
  const Predictions solo = predict(fit(model(), train.value()));

  const Value m0 = model();
  const Value first = fit(m0, train.value());
  const Value second = fit(m0, few.value());
  // The two trainings must disagree, or this test could not tell.
  ASSERT_NE(predict(second).scores, solo.scores);

  const Predictions after = predict(first);
  EXPECT_EQ(after.scores, solo.scores);
  EXPECT_EQ(after.y_pred, solo.y_pred);
  const Predictions input = predict(m0);
  EXPECT_EQ(input.scores, untrained.scores);
  EXPECT_EQ(input.y_pred, untrained.y_pred);
}

// A binding seeded with an empty ModelValue has no model to train.
TEST(Ops, TrainWithoutAConstructedModelIsAnError) {
  auto spec = PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "packet_features", "input": ["P"], "output": "F",
     "param": ["len"]},
    {"func": "train", "input": ["M", "F"], "output": "T"},
  ])");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  const std::map<std::string, Value> seed = {{"M", Value(ModelValue{})}};
  Engine::Options eopts;
  eopts.registry = nullptr;
  OpContext ctx;
  ctx.dataset = &tiny_dataset();
  auto report = Engine(eopts).run(spec.value(), ctx, &seed);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message.find("('train')"), std::string::npos)
      << report.error().message;
  EXPECT_NE(report.error().message.find("never constructed"),
            std::string::npos)
      << report.error().message;
}

TEST(Ops, ModelRejectsUnknownType) {
  EXPECT_FALSE(run_op("model", parse(R"({"model_type": "Quantum"})"), {}).ok());
  EXPECT_FALSE(run_op("model", parse(R"({})"), {}).ok());
}

}  // namespace
}  // namespace lumen::core
