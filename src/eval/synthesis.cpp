#include "eval/synthesis.h"

#include <map>

#include "ml/metrics.h"

namespace lumen::eval {

core::AlgorithmDef SynthCandidate::to_algorithm(const std::string& id) const {
  core::AlgorithmDef def;
  def.id = id;
  def.label = describe();
  def.paper = "Lumen-synthesized";
  def.granularity = trace::Granularity::kConnection;
  def.needs_ip = true;

  std::string sets;
  for (size_t i = 0; i < feature_sets.size(); ++i) {
    if (i != 0) sets += ", ";
    sets += "\"" + feature_sets[i] + "\"";
  }
  std::string tpl = R"([
  {"func": "field_extract", "input": None, "output": "Packets", "param": []},
  {"func": "connections", "input": ["Packets"], "output": "Conns"},
  {"func": "conn_features", "input": ["Conns"], "output": "Blocks",
   "set": [)" + sets + R"(]},
)";
  if (add_first_k) {
    tpl += R"(  {"func": "first_k_packets", "input": ["Conns"],
   "output": "Seq", "k": 8, "what": ["len", "iat"]},
  {"func": "concat_features", "input": ["Blocks", "Seq"],
   "output": "Features"},
)";
  } else {
    tpl += R"(  {"func": "select_columns", "input": ["Blocks"],
   "output": "Features", "prefixes": [""]},
)";
  }
  tpl += "]";
  def.feature_template = tpl;

  std::string spec = "{\"model_type\": \"" + model_type + "\"";
  if (normalize) spec += ", \"normalize\": true";
  if (decorrelate) spec += ", \"decorrelate\": true";
  spec += "}";
  def.model_spec = spec;
  return def;
}

std::string SynthCandidate::describe() const {
  std::string out = "feats{";
  for (size_t i = 0; i < feature_sets.size(); ++i) {
    if (i != 0) out += "+";
    out += feature_sets[i];
  }
  if (add_first_k) out += "+firstk";
  out += "} " + model_type;
  if (normalize) out += " +norm";
  if (decorrelate) out += " +decorr";
  return out;
}

namespace {

std::string feature_key(const SynthCandidate& cand, const trace::Dataset& ds) {
  // The packet count disambiguates differently-scaled Benchmark instances
  // sharing this process (the cache is process-global).
  std::string key = ds.id + "#" + std::to_string(ds.packets()) + "|";
  for (const std::string& f : cand.feature_sets) key += f + ",";
  key += cand.add_first_k ? "+k" : "";
  return key;
}

}  // namespace

double score_candidate(Benchmark& bench, const SynthCandidate& cand,
                       const std::vector<std::string>& datasets,
                       const std::string& metric) {
  // Feature tables are shared across candidates that differ only in model
  // or training setup (the paper's intermediate-result sharing).
  static std::map<std::string, features::FeatureTable> feature_cache;

  const core::AlgorithmDef def = cand.to_algorithm("SYNTH");
  double sum = 0.0;
  size_t n = 0;
  for (const std::string& ds_id : datasets) {
    const trace::Dataset& ds = bench.dataset(ds_id);
    const std::string key = feature_key(cand, ds);
    auto it = feature_cache.find(key);
    if (it == feature_cache.end()) {
      auto feats = core::compute_features(def, ds);
      if (!feats.ok()) continue;
      features::impute_non_finite(feats.value());
      it = feature_cache.emplace(key, std::move(feats).value()).first;
    }
    auto [train, test] = Benchmark::split_by_time(it->second, 0.7);

    auto model = core::make_algorithm_model(def);
    if (!model.ok()) continue;
    auto trained = model.value().train(std::move(train));
    if (!trained.ok()) continue;
    const core::ModelValue& mv = trained.value();
    const ml::Confusion c =
        ml::confusion(test.labels, mv.model->predict(mv.transform(test)));
    sum += metric == "f1" ? ml::f1(c) : ml::precision(c);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

SynthResult synthesize(Benchmark& bench, const SynthOptions& opts) {
  std::vector<std::string> datasets = opts.datasets;
  if (datasets.empty()) datasets = trace::connection_dataset_ids();

  SynthResult result;
  auto consider = [&](const SynthCandidate& cand) {
    const double s = score_candidate(bench, cand, datasets, opts.metric);
    ++result.evaluated;
    result.trace.emplace_back(cand.describe(), s);
    if (s > result.score) {
      result.score = s;
      result.candidate = cand;
    }
    return s;
  };

  // Stage 1: best single block x model.
  for (const std::string& block : opts.blocks) {
    for (const std::string& model : opts.models) {
      SynthCandidate cand;
      cand.feature_sets = {block};
      cand.model_type = model;
      consider(cand);
    }
  }

  // Stage 2: greedily add blocks while any addition improves the best.
  for (;;) {
    const SynthCandidate base = result.candidate;
    const double base_score = result.score;
    for (const std::string& block : opts.blocks) {
      bool have = false;
      for (const std::string& f : base.feature_sets) have |= f == block;
      if (have) continue;
      SynthCandidate cand = base;
      cand.feature_sets.push_back(block);
      consider(cand);  // updates result when the candidate is better
    }
    if (result.score <= base_score) break;
  }

  // Stage 3: toggle the sequence block and training-setup options.
  for (int toggle = 0; toggle < 3; ++toggle) {
    SynthCandidate cand = result.candidate;
    if (toggle == 0) cand.add_first_k = !cand.add_first_k;
    if (toggle == 1) cand.normalize = !cand.normalize;
    if (toggle == 2) cand.decorrelate = !cand.decorrelate;
    consider(cand);
  }
  return result;
}

}  // namespace lumen::eval
