// Streaming operator engine benchmark: per-operator cost of a compiled
// chain (marginal ns/pkt via prefix-chain subtraction; informational), and
// the gate, stream.chain_vs_scorer: a compiled per-packet chain
// (field_extract -> damped_stats -> predict) against the bare KitsuneScorer
// path (OnlineKitsune::score_packets) on the same stream, timed in
// interleaved pairs (gate_record.h). The chain does the same extraction and
// model math through the compiled pipeline (FeatureTable staging, epoch
// batches), so the ratio is the abstraction tax of running compiled specs
// live. The last stdout line is the result record.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/stream.h"
#include "core/stream_op.h"
#include "gate_record.h"
#include "netio/parse.h"
#include "trace/registry.h"

namespace {

using e2e::Clock;
using e2e::seconds_since;
using lumen::core::compile_streaming;
using lumen::core::PipelineSpec;
using lumen::core::StreamingOptions;
using lumen::core::StreamPipeline;

constexpr int kReps = 5;           // best-of repetitions per ladder rung
constexpr int kPairs = 11;         // interleaved chain/scorer pairs
constexpr int kStreamRepeats = 4;  // stream = streamed region x repeats

PipelineSpec parse_spec(const std::string& body) {
  auto spec = PipelineSpec::parse("[" + body + "]");
  if (!spec.ok()) {
    std::fprintf(stderr, "spec parse: %s\n", spec.error().message.c_str());
    std::exit(1);
  }
  return std::move(spec).value();
}

lumen::trace::Dataset slice_prefix(const lumen::trace::Dataset& ds,
                                   size_t end) {
  lumen::trace::Dataset out;
  out.id = ds.id + "-train";
  out.label_granularity = ds.label_granularity;
  out.trace.link = ds.trace.link;
  for (size_t j = 0; j < end; ++j) {
    out.trace.raw.push_back(ds.trace.raw[j]);
    out.pkt_label.push_back(ds.label_at(j));
    out.pkt_attack.push_back(ds.attack_at(j));
  }
  lumen::netio::parse_trace(out.trace);
  return out;
}

/// Wall time of one pass of the whole stream through `chain`.
double chain_seconds(StreamPipeline& chain,
                     const std::vector<lumen::netio::PacketView>& views) {
  chain.reset();
  const Clock::time_point t0 = Clock::now();
  for (const auto& v : views) chain.push(v);
  chain.finish();
  return seconds_since(t0);
}

}  // namespace

int main() {
  using namespace lumen;
  std::printf("bench_stream: streaming operator engine\n\n");

  const trace::Dataset ds = trace::make_dataset("P1", 1.0);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  const trace::Dataset train = slice_prefix(ds, grace);
  const netio::Trace big = bench::repeated_stream(ds, grace, kStreamRepeats);
  const double span = ds.trace.raw.back().ts - ds.trace.raw[grace].ts + 0.001;
  const double npkt = static_cast<double>(big.view.size());
  std::printf("stream: streamed region x%d = %zu packets\n\n", kStreamRepeats,
              big.view.size());

  core::Engine::Options eopts;
  eopts.registry = nullptr;
  core::OpContext tctx;
  tctx.dataset = &train;

  // ---- per-operator breakdown over the windowed chain -------------------
  // Chains must end in a row-producing operator to compile, so each rung of
  // the ladder keeps the apply_aggregates tail and adds one operator; the
  // added operator's cost is the difference between consecutive rungs. The
  // first rung (extract + groupby + aggregate) is the floor a grouped chain
  // cannot go below.
  const double window = span / 8.0;
  const std::string extract =
      R"({"func": "field_extract", "input": None, "output": "P",
          "param": ["srcIP", "packetLength"]},)";
  const std::string filter =
      R"({"func": "filter", "input": ["P"], "output": "PF",
          "require": ["len"]},)";
  const auto groupby = [](const char* in) {
    return std::string(R"({"func": "groupby", "input": [")") + in +
           R"("], "output": "G", "flowid": ["srcmac"]},)";
  };
  const std::string time_slice =
      R"({"func": "time_slice", "input": ["G"], "output": "W", "window": )" +
      std::to_string(window) + R"(, "align": "global"},)";
  const auto aggregate = [](const char* in) {
    return std::string(R"({"func": "apply_aggregates", "input": [")") + in +
           R"("], "output": "F"},)";
  };
  const std::string normalize =
      R"({"func": "normalize", "input": ["F"], "output": "N",
          "kind": "minmax"},)";
  const std::string predict =
      R"({"func": "predict", "input": ["Model", "N"], "output": "Preds"},)";
  const std::vector<std::pair<const char*, std::string>> ladder = {
      {"extract+groupby+aggregate", extract + groupby("P") + aggregate("G")},
      {"filter", extract + filter + groupby("PF") + aggregate("G")},
      {"time_slice",
       extract + filter + groupby("PF") + time_slice + aggregate("W")},
      {"normalize",
       extract + filter + groupby("PF") + time_slice + aggregate("W") +
           normalize},
      {"predict",
       extract + filter + groupby("PF") + time_slice + aggregate("W") +
           normalize + predict}};

  // Train the windowed model once (batch engine, the only trainer).
  core::ModelValue windowed_model;
  {
    const std::string body =
        extract + filter + groupby("PF") + time_slice + aggregate("W") +
        normalize +
        R"({"func": "model", "input": None, "output": "M0",
            "model_type": "KitNET", "normalize": true},
           {"func": "train", "input": ["M0", "N"], "output": "Model"},)";
    auto report = core::Engine(eopts).run(parse_spec(body), tctx);
    if (!report.ok()) {
      std::fprintf(stderr, "train windowed: %s\n",
                   report.error().message.c_str());
      return 1;
    }
    windowed_model = *report.value().get<core::ModelValue>("Model");
  }

  e2e::Outcome o;
  double windowed_chain_ns = 0.0;
  {
    std::printf("per-operator marginal cost (ladder subtraction):\n");
    double prev_s = 0.0;
    for (size_t i = 0; i < ladder.size(); ++i) {
      const auto& [op, body] = ladder[i];
      StreamingOptions sopts;
      sopts.bindings.emplace("Model", windowed_model);
      auto chain = compile_streaming(parse_spec(body), std::move(sopts));
      if (!chain.ok()) {
        std::fprintf(stderr, "compile %s: %s\n", op,
                     chain.error().message.c_str());
        return 1;
      }
      double s = 1e30;
      for (int rep = 0; rep < kReps; ++rep) {
        s = std::min(s, chain_seconds(*chain.value(), big.view));
      }
      // Rung 0 is a floor, not a marginal: report its full cost.
      const double marginal_ns =
          i == 0 ? s / npkt * 1e9 : std::max(0.0, (s - prev_s) / npkt * 1e9);
      o.note(std::string("stream.op.") + op + "_ns", marginal_ns, "ns");
      std::printf("  %-26s %8.1f ns/pkt\n", op, marginal_ns);
      prev_s = s;
      windowed_chain_ns = s / npkt * 1e9;
    }
    std::printf("  full windowed chain: %.1f ns/pkt\n\n", windowed_chain_ns);
    o.note("stream.windowed_chain_ns", windowed_chain_ns, "ns");
  }

  // ---- chain vs bare scorer (the gate) ----------------------------------
  // Bare path: OnlineKitsune trained on the grace region, scored through
  // the fused micro-batch entry point in batches of 64.
  core::OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});
  const auto scorer_seconds = [&] {
    core::OnlineKitsune det = proto;
    std::vector<double> scores(64, 0.0);
    const Clock::time_point t0 = Clock::now();
    for (size_t lo = 0; lo < big.view.size(); lo += 64) {
      const size_t n = std::min<size_t>(64, big.view.size() - lo);
      det.score_packets({big.view.data() + lo, n}, scores.data());
    }
    return seconds_since(t0);
  };

  // Chain path: the same per-packet feature math (damped_stats IS the
  // Kitsune extractor) as a compiled spec, model seeded from a batch train.
  const std::string per_packet =
      R"({"func": "field_extract", "input": None, "output": "P",
          "param": []},
         {"func": "damped_stats", "input": ["P"], "output": "F"},)";
  auto trained = core::Engine(eopts).run(
      parse_spec(per_packet +
                 R"({"func": "model", "input": None, "output": "M0",
                     "model_type": "KitNET", "normalize": true},
                    {"func": "train", "input": ["M0", "F"],
                     "output": "Model"},)"),
      tctx);
  if (!trained.ok()) {
    std::fprintf(stderr, "train per-packet: %s\n",
                 trained.error().message.c_str());
    return 1;
  }
  StreamingOptions sopts;
  sopts.bindings.emplace("Model",
                         *trained.value().get<core::ModelValue>("Model"));
  auto chain = compile_streaming(
      parse_spec(per_packet + R"({"func": "predict", "input": ["Model", "F"],
                                  "output": "Preds"},)"),
      std::move(sopts));
  if (!chain.ok()) {
    std::fprintf(stderr, "compile per-packet: %s\n",
                 chain.error().message.c_str());
    return 1;
  }
  const double ratio = bench::paired_ratio(
      o, kPairs, [&] { return chain_seconds(*chain.value(), big.view); },
      scorer_seconds);
  o.add("stream.chain_vs_scorer", ratio, "ratio");
  o.note("stream.chain_alerts", static_cast<double>(chain.value()->alerts()),
         "count");
  std::printf("compiled chain / bare KitsuneScorer time: %.3f (median of %d "
              "pairs, %llu alerts)\n\n",
              ratio, kPairs,
              static_cast<unsigned long long>(chain.value()->alerts()));
  bench::print_record("bench_stream", o);
  return 0;
}
