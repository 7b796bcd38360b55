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

Result<const FeatureTable*> Benchmark::features(const std::string& algo_id,
                                                const std::string& ds_id) {
  return feature_cache_.get_or_compute(
      std::make_pair(algo_id, ds_id), [&]() -> Result<FeatureTable> {
        const AlgorithmDef* algo = core::find_algorithm(algo_id);
        if (algo == nullptr) {
          return Error::make("benchmark", "unknown algorithm " + algo_id);
        }
        const trace::Dataset& ds = dataset(ds_id);
        if (!core::compatible(*algo, ds)) {
          return Error::make("benchmark",
                             algo_id + " cannot faithfully run on " + ds_id +
                                 " (granularity/requirements)");
        }
        Result<FeatureTable> t = core::compute_features(*algo, ds);
        if (!t.ok()) return t.error();
        features::impute_non_finite(t.value());
        return std::move(t).value();
      });
}

Result<const Benchmark::Split*> Benchmark::split(const std::string& algo_id,
                                                 const std::string& ds_id) {
  return split_cache_.get_or_compute(
      std::make_pair(algo_id, ds_id), [&]() -> Result<Split> {
        Result<const FeatureTable*> feats = features(algo_id, ds_id);
        if (!feats.ok()) return feats.error();
        return split_by_time(*feats.value(), opts_.train_fraction);
      });
}

std::pair<FeatureTable, FeatureTable> Benchmark::split_by_time(
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
  return {t.select_rows(tr), t.select_rows(te)};
}

FeatureTable Benchmark::cap_rows(const FeatureTable& t, size_t max_rows,
                                 uint64_t salt) const {
  if (t.rows <= max_rows) return t;
  // Stratified subsample: keep the class ratio, deterministic by salt.
  std::vector<size_t> pos, neg;
  for (size_t r = 0; r < t.rows; ++r) {
    (t.labels[r] != 0 ? pos : neg).push_back(r);
  }
  Rng rng(opts_.seed ^ salt);
  rng.shuffle(pos);
  rng.shuffle(neg);
  const double frac = static_cast<double>(max_rows) / static_cast<double>(t.rows);
  size_t n_pos = static_cast<size_t>(frac * static_cast<double>(pos.size()));
  size_t n_neg = max_rows - std::min(max_rows, n_pos);
  n_pos = std::min(n_pos, pos.size());
  n_neg = std::min(n_neg, neg.size());
  std::vector<size_t> pick(pos.begin(), pos.begin() + static_cast<std::ptrdiff_t>(n_pos));
  pick.insert(pick.end(), neg.begin(), neg.begin() + static_cast<std::ptrdiff_t>(n_neg));
  std::sort(pick.begin(), pick.end());
  return t.select_rows(pick);
}

Result<const core::ModelValue*> Benchmark::trained_model(
    const std::string& algo_id, const std::string& train_ds) {
  return model_cache_.get_or_compute(
      std::make_pair(algo_id, train_ds), [&]() -> Result<core::ModelValue> {
        const AlgorithmDef* algo = core::find_algorithm(algo_id);
        if (algo == nullptr) {
          return Error::make("benchmark", "unknown algorithm " + algo_id);
        }
        Result<const Split*> sp = split(algo_id, train_ds);
        if (!sp.ok()) return sp.error();
        Result<core::ModelValue> mv = core::make_algorithm_model(*algo);
        if (!mv.ok()) return mv.error();
        return mv.value().train(cap_rows(sp.value()->first,
                                         opts_.max_train_rows,
                                         Rng::seed_from(algo_id + train_ds)));
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
  Result<const core::ModelValue*> model = trained_model(algo_id, ds_id);
  if (!model.ok()) return model.error();
  Result<const Split*> sp = split(algo_id, ds_id);
  if (!sp.ok()) return sp.error();
  RunOutput out =
      evaluate_table(algo_id, *model.value(), sp.value()->second, ds_id, ds_id);
  out.record.n_train = sp.value()->first.rows;
  return out;
}

Result<Benchmark::RunOutput> Benchmark::cross_dataset(
    const std::string& algo_id, const std::string& train_ds,
    const std::string& test_ds) {
  Result<const core::ModelValue*> model = trained_model(algo_id, train_ds);
  if (!model.ok()) return model.error();
  Result<const Split*> sp = split(algo_id, test_ds);
  if (!sp.ok()) return sp.error();
  return evaluate_table(algo_id, *model.value(), sp.value()->second, train_ds,
                        test_ds);
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
    Result<const Split*> sp = split(algo_id, ds_id);
    if (!sp.ok()) continue;  // incompatible pairs are simply skipped
    const auto& [train, test] = *sp.value();
    const size_t tr_rows = std::max<size_t>(
        1, static_cast<size_t>(fraction * static_cast<double>(train.rows) /
                               opts_.train_fraction));
    const size_t te_rows = std::max<size_t>(
        1, static_cast<size_t>(fraction * static_cast<double>(test.rows) /
                               (1.0 - opts_.train_fraction)));
    FeatureTable tr = cap_rows(train, tr_rows, Rng::seed_from(ds_id, 11));
    FeatureTable te = cap_rows(test, te_rows, Rng::seed_from(ds_id, 13));
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
