// Prototyping a NEW algorithm with Lumen and comparing it against the
// state of the art (the §3.1 "first step" workflow): the user composes a
// fresh detector out of existing building blocks — Zeek-style connection
// features + the IIoT jitter/retransmission block, decorrelated, normalized,
// fed to an AutoML model — then benchmarks it against registry algorithms
// on the same datasets.
#include <cstdio>

#include "eval/benchmark.h"
#include "ml/metrics.h"

int main() {
  using namespace lumen;

  // A brand-new detector: nothing here is special-cased in the framework;
  // it is the same template language every registry algorithm uses.
  core::AlgorithmDef mine;
  mine.id = "MINE";
  mine.label = "my custom detector";
  mine.paper = "you, just now";
  mine.granularity = trace::Granularity::kConnection;
  mine.needs_ip = true;
  mine.feature_template = R"([
    {"func": "field_extract", "input": None, "output": "Packets", "param": []},
    {"func": "connections", "input": ["Packets"], "output": "Conns"},
    {"func": "conn_features", "input": ["Conns"], "output": "Features",
     "set": ["zeek", "iiot"]},
  ])";
  mine.model_spec =
      R"({"model_type": "AutoML", "normalize": true, "decorrelate": true})";

  // Sanity-check the template before running anything (the engine's static
  // analysis catches wiring and type errors up front).
  auto spec = core::PipelineSpec::parse(mine.feature_template);
  if (!spec.ok()) {
    std::fprintf(stderr, "template: %s\n", spec.error().message.c_str());
    return 1;
  }
  if (auto check = core::Engine().type_check(spec.value()); !check.ok()) {
    std::fprintf(stderr, "type check: %s\n", check.error().message.c_str());
    return 1;
  }
  std::printf("Template type-checks. Benchmarking against the registry...\n\n");

  eval::Benchmark::Options opts;
  opts.dataset_scale = 0.4;
  eval::Benchmark bench(opts);

  const std::vector<std::string> rivals = {"A10", "A13", "A14", "A15"};
  const std::vector<std::string> datasets = {"F0", "F1", "F4", "F5", "F6"};

  std::printf("%-22s", "same-dataset precision");
  for (const std::string& ds : datasets) std::printf("  %6s", ds.c_str());
  std::printf("  %6s\n", "mean");

  auto evaluate = [&](const core::AlgorithmDef& algo) {
    std::printf("%-22s", algo.id == "MINE" ? "MINE (yours)" : algo.id.c_str());
    double sum = 0.0;
    int n = 0;
    for (const std::string& ds_id : datasets) {
      const trace::Dataset& ds = bench.dataset(ds_id);
      auto feats = core::compute_features(algo, ds);
      if (!feats.ok()) {
        std::printf("  %6s", "--");
        continue;
      }
      auto [train, test] = eval::Benchmark::split_by_time(feats.value(), 0.7);
      // train() fits the template's transforms and model on the train rows;
      // transform() applies the fitted transforms to the test rows.
      auto model = core::make_algorithm_model(algo);
      if (!model.ok()) continue;
      auto trained = model.value().train(std::move(train));
      if (!trained.ok()) continue;
      const core::ModelValue& mv = trained.value();
      const auto pred = mv.model->predict(mv.transform(test));
      const auto c = ml::confusion(test.labels, pred);
      const double p = ml::precision(c);
      std::printf("  %6.3f", p);
      sum += p;
      ++n;
    }
    std::printf("  %6.3f\n", n > 0 ? sum / n : 0.0);
  };

  for (const std::string& r : rivals) {
    evaluate(*core::find_algorithm(r));
  }
  evaluate(mine);

  std::printf(
      "\nThat is the whole workflow: write a template, type-check it, and\n"
      "the benchmarking suite gives you a faithful comparison against the\n"
      "reimplemented literature on identical data.\n");
  return 0;
}
