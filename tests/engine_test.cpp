// Execution engine tests: template parsing, static type checking, execution,
// profiling, and dead-value elimination — including the paper's own Fig. 4
// template end to end.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "trace/attacks.h"

namespace lumen::core {
namespace {

const trace::Dataset& dataset() {
  static const trace::Dataset ds = [] {
    trace::Sim sim(515151);
    trace::BenignStyle st;
    sim.benign_iot_traffic(0.0, 25.0, 3, st);
    trace::attack_brute_force(sim, 5.0, 15.0, sim.wan_ip(), sim.lan_ip(st, 0),
                              22, 1.0);
    return sim.finish("E0", "engine-test", trace::Granularity::kConnection);
  }();
  return ds;
}

OpContext make_ctx() {
  OpContext ctx;
  ctx.dataset = &dataset();
  return ctx;
}

TEST(Pipeline, CanonicalFuncNames) {
  EXPECT_EQ(canonical_func_name("Field Extract"), "field_extract");
  EXPECT_EQ(canonical_func_name("Groupby"), "groupby");
  EXPECT_EQ(canonical_func_name("TimeSlice"), "time_slice");
  EXPECT_EQ(canonical_func_name("ApplyAggregates"), "apply_aggregates");
  EXPECT_EQ(canonical_func_name("model"), "model");
}

TEST(Pipeline, ParsesPaperStyleTemplate) {
  auto spec = PipelineSpec::parse(R"(algorithm = [
    {'func': 'Field Extract', 'input': None, 'output': 'Packets',
     'param': ['srcIP', 'dstIP', 'TCPFlags', 'packetLength']},
    {'func': 'Groupby', 'input': ['Packets'], 'output': 'Grouped_packets',
     'flowid': ['srcIp']},
    {'func': 'TimeSlice', 'input': ['Grouped_packets'],
     'output': 'Sliced_packets', 'window': 10},
    {'func': 'ApplyAggregates', 'input': ['Sliced_packets'],
     'output': 'Features'},
  ])");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  ASSERT_EQ(spec.value().ops.size(), 4u);
  EXPECT_EQ(spec.value().ops[0].func, "field_extract");
  EXPECT_TRUE(spec.value().ops[0].inputs.empty());
  EXPECT_EQ(spec.value().ops[3].output, "Features");
}

TEST(Pipeline, RejectsEmptyAndMalformed) {
  EXPECT_FALSE(PipelineSpec::parse("[]").ok());
  EXPECT_FALSE(PipelineSpec::parse("{\"not\": \"array\"}").ok());
  EXPECT_FALSE(PipelineSpec::parse("[{\"output\": \"x\"}]").ok());  // no func
  EXPECT_FALSE(PipelineSpec::parse("[{\"func\": \"f\", \"input\": 3}]").ok());
}

TEST(Engine, TypeCheckCatchesUnknownOp) {
  auto spec = PipelineSpec::parse(
      R"([{"func": "does_not_exist", "input": None, "output": "x"}])");
  ASSERT_TRUE(spec.ok());
  Engine engine;
  auto check = engine.type_check(spec.value());
  ASSERT_FALSE(check.ok());
  EXPECT_NE(check.error().message.find("unknown operation"), std::string::npos);
}

TEST(Engine, TypeCheckCatchesUndefinedInput) {
  auto spec = PipelineSpec::parse(
      R"([{"func": "groupby", "input": ["Ghost"], "output": "g",
           "flowid": ["srcip"]}])");
  ASSERT_TRUE(spec.ok());
  auto check = Engine().type_check(spec.value());
  ASSERT_FALSE(check.ok());
  EXPECT_NE(check.error().message.find("Ghost"), std::string::npos);
}

TEST(Engine, TypeCheckCatchesKindMismatch) {
  // apply_aggregates expects GroupedPackets, gets PacketSet.
  auto spec = PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "Packets", "param": []},
    {"func": "apply_aggregates", "input": ["Packets"], "output": "F"},
  ])");
  ASSERT_TRUE(spec.ok());
  auto check = Engine().type_check(spec.value());
  ASSERT_FALSE(check.ok());
  EXPECT_NE(check.error().message.find("PacketSet"), std::string::npos);
  EXPECT_NE(check.error().message.find("GroupedPackets"), std::string::npos);
}

TEST(Engine, TypeCheckCatchesTooManyInputs) {
  auto spec = PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "A", "param": []},
    {"func": "groupby", "input": ["A", "A"], "output": "g",
     "flowid": ["srcip"]},
  ])");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(Engine().type_check(spec.value()).ok());
}

TEST(Engine, RunsPaperTemplateEndToEnd) {
  auto spec = PipelineSpec::parse(R"(algorithm = [
    {'func': 'Field Extract', 'input': None, 'output': 'Packets',
     'param': ['srcIP', 'dstIP', 'TCPFlags', 'packetLength']},
    {'func': 'Groupby', 'input': ['Packets'], 'output': 'Grouped_packets',
     'flowid': ['srcIp']},
    {'func': 'TimeSlice', 'input': ['Grouped_packets'],
     'output': 'Sliced_packets', 'window': 10},
    {'func': 'ApplyAggregates', 'input': ['Sliced_packets'],
     'output': 'Features'},
    {'func': 'model', 'model_type': 'RandomForest', 'input': None,
     'output': 'clf1'},
    {'func': 'train', 'input': ['clf1', 'Features'], 'output': 'clf_trained'},
    {'func': 'predict', 'input': ['clf_trained', 'Features'],
     'output': 'Preds'},
    {'func': 'evaluate', 'input': ['Preds'], 'output': 'Metrics'},
  ])");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  OpContext ctx = make_ctx();
  auto report = Engine().run(spec.value(), ctx);
  ASSERT_TRUE(report.ok()) << report.error().message;
  const Metrics* m = report.value().get<Metrics>("Metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->get("accuracy"), 0.5);
  // The profile rebuilt from the process registry's spans covers every op.
  const std::vector<OpProfile> profile =
      profile_from_spans(telemetry::Registry::process().snapshot(),
                         report.value().span_ids, "engine.op.");
  ASSERT_EQ(profile.size(), 8u);
  EXPECT_EQ(profile[4].func, "model");
  EXPECT_EQ(profile[7].output, "Metrics");
  EXPECT_GT(report.value().peak_bytes, 0u);
  EXPECT_FALSE(render_op_profile(profile, report.value().peak_bytes).empty());
}

// The profile is rebuilt from the telemetry spans the run recorded: one
// row per op in execution order, carrying the op/output/bytes/freed
// annotations of its span.
TEST(Engine, ProfileRoundTripsThroughTelemetrySnapshot) {
  auto spec = PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "Packets", "param": []},
    {"func": "groupby", "input": ["Packets"], "output": "Grouped",
     "flowid": ["srcip"]},
    {"func": "apply_aggregates", "input": ["Grouped"], "output": "Features"},
  ])");
  ASSERT_TRUE(spec.ok());
  telemetry::Registry reg;
  Engine::Options opts;
  opts.registry = &reg;
  opts.instrument_prefix = "e.";
  OpContext ctx = make_ctx();
  auto report = Engine(opts).run(spec.value(), ctx);
  ASSERT_TRUE(report.ok());
  const PipelineReport& r = report.value();
  ASSERT_EQ(r.span_ids.size(), 3u);

  const telemetry::Snapshot snap = reg.snapshot();
  const std::vector<OpProfile> profile =
      profile_from_spans(snap, r.span_ids, "e.op.");
  ASSERT_EQ(profile.size(), 3u);
  const char* funcs[] = {"field_extract", "groupby", "apply_aggregates"};
  const char* outputs[] = {"Packets", "Grouped", "Features"};
  for (size_t i = 0; i < profile.size(); ++i) {
    const telemetry::SpanRecord* span = snap.find_span(r.span_ids[i]);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->name, std::string("e.op.") + funcs[i]);
    EXPECT_EQ(profile[i].func, funcs[i]);
    EXPECT_EQ(profile[i].output, outputs[i]);
    EXPECT_EQ(span->detail, outputs[i]);
    EXPECT_DOUBLE_EQ(profile[i].seconds, span->seconds);
    EXPECT_EQ(profile[i].output_bytes, span->value);
    EXPECT_GT(profile[i].output_bytes, 0u);
    // Packets and Grouped were consumed and freed early; Features survives.
    EXPECT_EQ(profile[i].freed_early, i < 2);
    EXPECT_EQ(span->flag, i < 2);
  }
  // Run-level instruments landed under the configured prefix.
  EXPECT_EQ(snap.counter_value("e.ops"), 3u);
  EXPECT_GT(snap.gauge_value("e.peak_bytes"), 0.0);
}

// registry = nullptr keeps telemetry run-local; the report still carries
// the run's peak resident bytes.
TEST(Engine, NullRegistryStillProfiles) {
  auto spec = PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "groupby", "input": ["P"], "output": "G", "flowid": ["srcip"]},
  ])");
  ASSERT_TRUE(spec.ok());
  Engine::Options opts;
  opts.registry = nullptr;
  OpContext ctx = make_ctx();
  auto report = Engine(opts).run(spec.value(), ctx);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().peak_bytes, 0u);
}

TEST(Engine, DeadValueEliminationFreesConsumedBindings) {
  auto spec = PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "Packets", "param": []},
    {"func": "groupby", "input": ["Packets"], "output": "Grouped",
     "flowid": ["srcip"]},
    {"func": "apply_aggregates", "input": ["Grouped"], "output": "Features"},
  ])");
  ASSERT_TRUE(spec.ok());
  OpContext ctx = make_ctx();
  auto report = Engine().run(spec.value(), ctx);
  ASSERT_TRUE(report.ok());
  // Packets and Grouped were consumed and freed; only Features survives.
  EXPECT_EQ(report.value().bindings.size(), 1u);
  EXPECT_NE(report.value().find("Features"), nullptr);
  EXPECT_EQ(report.value().find("Packets"), nullptr);
}

TEST(Engine, KeepOptionPreservesIntermediate) {
  auto spec = PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "Packets", "param": []},
    {"func": "groupby", "input": ["Packets"], "output": "Grouped",
     "flowid": ["srcip"]},
    {"func": "apply_aggregates", "input": ["Grouped"], "output": "Features"},
  ])");
  ASSERT_TRUE(spec.ok());
  Engine::Options opts;
  opts.keep = {"Packets"};
  OpContext ctx = make_ctx();
  auto report = Engine(opts).run(spec.value(), ctx);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report.value().find("Packets"), nullptr);
}

TEST(Engine, DisablingEliminationKeepsEverything) {
  auto spec = PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "Packets", "param": []},
    {"func": "groupby", "input": ["Packets"], "output": "Grouped",
     "flowid": ["srcip"]},
  ])");
  ASSERT_TRUE(spec.ok());
  Engine::Options opts;
  opts.free_dead_values = false;
  OpContext ctx = make_ctx();
  auto report = Engine(opts).run(spec.value(), ctx);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().bindings.size(), 2u);
}

TEST(Engine, RebindingReplacesValue) {
  auto spec = PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "filter", "input": ["P"], "output": "P", "require": ["is_tcp"]},
    {"func": "groupby", "input": ["P"], "output": "G", "flowid": ["srcip"]},
  ])");
  ASSERT_TRUE(spec.ok());
  OpContext ctx = make_ctx();
  auto report = Engine().run(spec.value(), ctx);
  ASSERT_TRUE(report.ok()) << report.error().message;
}

TEST(EngineOptions, NormalizedDedupesKeepAndDefaultsPrefix) {
  Engine::Options o;
  o.keep = {"features", "metrics", "features", "labels", "metrics"};
  o.instrument_prefix = "";
  std::string diag;
  const Engine::Options n = Engine::Options::normalized(o, &diag);
  const std::vector<std::string> want = {"features", "metrics", "labels"};
  EXPECT_EQ(want, n.keep);  // first occurrence wins
  EXPECT_EQ("engine.", n.instrument_prefix);
  EXPECT_NE(std::string::npos, diag.find("engine"));
  EXPECT_NE(std::string::npos, diag.find("keep"));
  EXPECT_NE(std::string::npos, diag.find("instrument_prefix"));

  // Already-normal options come back untouched with no diagnostic.
  Engine::Options clean;
  clean.keep = {"a", "b"};
  std::string diag2;
  const Engine::Options n2 = Engine::Options::normalized(clean, &diag2);
  EXPECT_EQ(clean.keep, n2.keep);
  EXPECT_EQ("", diag2);
}

TEST(Engine, RuntimeErrorNamesTheOp) {
  // one_hot on a missing column passes type check but fails at run time.
  auto spec = PipelineSpec::parse(R"([
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "packet_features", "input": ["P"], "output": "F",
     "param": ["len"]},
    {"func": "one_hot", "input": ["F"], "output": "F2", "column": "ghost"},
  ])");
  ASSERT_TRUE(spec.ok());
  OpContext ctx = make_ctx();
  auto report = Engine().run(spec.value(), ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message.find("one_hot"), std::string::npos);
}

}  // namespace
}  // namespace lumen::core
