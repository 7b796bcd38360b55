#include "eval/benchmark.h"

#include <algorithm>
#include <numeric>

#include "ml/metrics.h"

namespace lumen::eval {

const trace::Dataset& Benchmark::dataset(const std::string& id) {
  Result<const trace::Dataset*> ds = datasets_.get_or_compute(
      id, [&]() -> Result<trace::Dataset> {
        return trace::make_dataset(id, opts_.dataset_scale);
      });
  return *ds.value();  // dataset generation cannot fail
}

namespace {

/// The time-ordered split of `t` as row indices: (train, test), each half
/// increasing.
std::pair<std::vector<size_t>, std::vector<size_t>> split_rows(
    const FeatureTable& t, double train_fraction) {
  std::vector<size_t> order(t.rows);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return t.unit_time[a] < t.unit_time[b];
  });
  const size_t n_train =
      static_cast<size_t>(train_fraction * static_cast<double>(t.rows));
  std::vector<size_t> tr(order.begin(),
                         order.begin() + static_cast<std::ptrdiff_t>(n_train));
  std::vector<size_t> te(order.begin() + static_cast<std::ptrdiff_t>(n_train),
                         order.end());
  std::sort(tr.begin(), tr.end());
  std::sort(te.begin(), te.end());
  return {std::move(tr), std::move(te)};
}

}  // namespace

Result<FeatureTable> Benchmark::compute_features(const std::string& algo_id,
                                                 const std::string& ds_id) {
  const AlgorithmDef* algo = core::find_algorithm(algo_id);
  if (algo == nullptr) {
    return Error::make("benchmark", "unknown algorithm " + algo_id);
  }
  const trace::Dataset& ds = dataset(ds_id);
  if (!core::compatible(*algo, ds)) {
    return Error::make("benchmark", algo_id + " cannot faithfully run on " +
                                        ds_id + " (granularity/requirements)");
  }
  Result<FeatureTable> t = core::compute_features(*algo, ds);
  if (!t.ok()) return t.error();
  features::impute_non_finite(t.value());
  return t;
}

Result<const FeatureTable*> Benchmark::features(const std::string& algo_id,
                                                const std::string& ds_id) {
  return feature_cache_.get_or_compute(
      std::make_pair(algo_id, ds_id),
      [&] { return compute_features(algo_id, ds_id); });
}

std::pair<FeatureTable, FeatureTable> Benchmark::split_by_time(
    const FeatureTable& t, double train_fraction) {
  const auto [tr, te] = split_rows(t, train_fraction);
  return {t.select_rows(tr), t.select_rows(te)};
}

std::vector<size_t> Benchmark::cap_indices(const FeatureTable& t,
                                           std::vector<size_t> rows,
                                           size_t max_rows,
                                           uint64_t salt) const {
  if (rows.size() <= max_rows) return rows;
  // Stratified subsample: keep the class ratio, deterministic by salt.
  std::vector<size_t> pos, neg;
  for (const size_t r : rows) (t.labels[r] != 0 ? pos : neg).push_back(r);
  Rng rng(opts_.seed ^ salt);
  rng.shuffle(pos);
  rng.shuffle(neg);
  const double frac =
      static_cast<double>(max_rows) / static_cast<double>(rows.size());
  size_t n_pos = static_cast<size_t>(frac * static_cast<double>(pos.size()));
  size_t n_neg = max_rows - std::min(max_rows, n_pos);
  n_pos = std::min(n_pos, pos.size());
  n_neg = std::min(n_neg, neg.size());
  std::vector<size_t> pick(pos.begin(), pos.begin() + static_cast<std::ptrdiff_t>(n_pos));
  pick.insert(pick.end(), neg.begin(), neg.begin() + static_cast<std::ptrdiff_t>(n_neg));
  std::sort(pick.begin(), pick.end());
  return pick;
}

FeatureTable Benchmark::cap_rows(const FeatureTable& t, size_t max_rows,
                                 uint64_t salt) const {
  if (t.rows <= max_rows) return t;
  std::vector<size_t> every(t.rows);
  std::iota(every.begin(), every.end(), 0);
  return t.select_rows(cap_indices(t, std::move(every), max_rows, salt));
}

Result<const Benchmark::PairEntry*> Benchmark::entry(
    const std::string& algo_id, const std::string& ds_id) {
  return entries_.get_or_compute(
      std::make_pair(algo_id, ds_id), [&]() -> Result<PairEntry> {
        PairEntry e;
        FeatureTable train;
        {
          Result<FeatureTable> feats = compute_features(algo_id, ds_id);
          if (!feats.ok()) return feats.error();
          const FeatureTable& t = feats.value();
          auto [tr, te] = split_rows(t, opts_.train_fraction);
          train = t.select_rows(cap_indices(t, std::move(tr),
                                            opts_.max_train_rows,
                                            Rng::seed_from(algo_id + ds_id)));
          e.test = t.select_rows(te);
        }  // the feature table is dropped before training
        // compute_features rejected an unknown algorithm.
        Result<core::ModelValue> mv =
            core::make_algorithm_model(*core::find_algorithm(algo_id));
        if (!mv.ok()) return mv.error();
        e.n_fit = train.rows;
        Result<core::ModelValue> model = mv.value().train(std::move(train));
        if (!model.ok()) return model.error();
        e.model = std::move(model).value();
        return e;
      });
}

Benchmark::RunOutput Benchmark::evaluate_table(
    const std::string& algo_id, const core::ModelValue& model,
    const FeatureTable& test, const std::string& train_ds,
    const std::string& test_ds) const {
  RunOutput out;
  out.predictions =
      model.predict(cap_rows(test, opts_.max_test_rows,
                             Rng::seed_from(algo_id + train_ds + test_ds, 7)));
  const ml::Confusion c =
      ml::confusion(out.predictions.y_true, out.predictions.y_pred);
  out.record.algo = algo_id;
  out.record.train_ds = train_ds;
  out.record.test_ds = test_ds;
  out.record.precision = ml::precision(c);
  out.record.recall = ml::recall(c);
  out.record.f1 = ml::f1(c);
  out.record.accuracy = ml::accuracy(c);
  out.record.auc = ml::auc(out.predictions.y_true, out.predictions.scores);
  out.record.n_test = out.predictions.y_true.size();
  return out;
}

Result<Benchmark::RunOutput> Benchmark::same_dataset(
    const std::string& algo_id, const std::string& ds_id) {
  Result<const PairEntry*> e = entry(algo_id, ds_id);
  if (!e.ok()) return e.error();
  RunOutput out =
      evaluate_table(algo_id, e.value()->model, e.value()->test, ds_id, ds_id);
  out.record.n_train = e.value()->n_fit;
  return out;
}

Result<Benchmark::RunOutput> Benchmark::cross_dataset(
    const std::string& algo_id, const std::string& train_ds,
    const std::string& test_ds) {
  Result<const PairEntry*> train = entry(algo_id, train_ds);
  if (!train.ok()) return train.error();
  Result<const PairEntry*> test = entry(algo_id, test_ds);
  if (!test.ok()) return test.error();
  RunOutput out = evaluate_table(algo_id, train.value()->model,
                                 test.value()->test, train_ds, test_ds);
  out.record.n_train = train.value()->n_fit;
  return out;
}

Result<Benchmark::RunOutput> Benchmark::merged_training(
    const std::string& algo_id, double fraction) {
  const AlgorithmDef* algo = core::find_algorithm(algo_id);
  if (algo == nullptr) {
    return Error::make("benchmark", "unknown algorithm " + algo_id);
  }

  // Concatenate `fraction` of every strictly-faithful dataset's train split
  // (and likewise for test), keeping the overall training size bounded.
  std::optional<FeatureTable> train_merged, test_merged;
  for (const std::string& ds_id : trace::all_dataset_ids()) {
    const trace::Dataset& ds = dataset(ds_id);
    if (!core::strict_faithful(*algo, ds)) continue;
    Result<FeatureTable> feats = compute_features(algo_id, ds_id);
    if (!feats.ok()) continue;  // incompatible pairs are simply skipped
    const FeatureTable& t = feats.value();
    auto [train, test] = split_rows(t, opts_.train_fraction);
    const size_t tr_rows = std::max<size_t>(
        1, static_cast<size_t>(fraction * static_cast<double>(train.size()) /
                               opts_.train_fraction));
    const size_t te_rows = std::max<size_t>(
        1, static_cast<size_t>(fraction * static_cast<double>(test.size()) /
                               (1.0 - opts_.train_fraction)));
    FeatureTable tr = t.select_rows(
        cap_indices(t, std::move(train), tr_rows, Rng::seed_from(ds_id, 11)));
    FeatureTable te = t.select_rows(
        cap_indices(t, std::move(test), te_rows, Rng::seed_from(ds_id, 13)));
    if (!train_merged) {
      train_merged = std::move(tr);
      test_merged = std::move(te);
    } else {
      train_merged->append(tr);
      test_merged->append(te);
    }
  }
  if (!train_merged || train_merged->rows == 0) {
    return Error::make("benchmark",
                       algo_id + ": no compatible datasets for merged training");
  }

  Result<core::ModelValue> mv = core::make_algorithm_model(*algo);
  if (!mv.ok()) return mv.error();
  FeatureTable X = cap_rows(*train_merged, opts_.max_train_rows,
                            Rng::seed_from(algo_id, 17));
  const size_t n_train = X.rows;
  Result<core::ModelValue> model = mv.value().train(std::move(X));
  if (!model.ok()) return model.error();

  RunOutput out =
      evaluate_table(algo_id, model.value(), *test_merged, "merged", "merged");
  out.record.n_train = n_train;
  return out;
}

std::vector<AttackScore> Benchmark::per_attack(const RunOutput& run) const {
  // Which attacks appear in this test set?
  std::map<uint8_t, size_t> present;
  for (size_t i = 0; i < run.predictions.attack.size(); ++i) {
    if (run.predictions.y_true[i] != 0 && run.predictions.attack[i] != 0) {
      ++present[run.predictions.attack[i]];
    }
  }
  std::vector<AttackScore> out;
  for (const auto& [attack, count] : present) {
    // Restrict to benign rows + this attack's rows.
    std::vector<int> y_true, y_pred;
    for (size_t i = 0; i < run.predictions.y_true.size(); ++i) {
      const bool benign = run.predictions.y_true[i] == 0;
      const bool this_attack = run.predictions.attack[i] == attack &&
                               run.predictions.y_true[i] != 0;
      if (benign || this_attack) {
        y_true.push_back(run.predictions.y_true[i]);
        y_pred.push_back(run.predictions.y_pred[i]);
      }
    }
    const ml::Confusion c = ml::confusion(y_true, y_pred);
    AttackScore s;
    s.attack = static_cast<trace::AttackType>(attack);
    s.precision = ml::precision(c);
    s.recall = ml::recall(c);
    s.positives = count;
    out.push_back(s);
  }
  return out;
}

}  // namespace lumen::eval
