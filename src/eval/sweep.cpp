#include "eval/sweep.h"

#include <cstdio>
#include <optional>

#include "common/parallel.h"
#include "common/telemetry.h"

namespace lumen::eval {

std::vector<std::string> faithful_datasets(Benchmark& bench,
                                           const std::string& algo_id) {
  const core::AlgorithmDef* algo = core::find_algorithm(algo_id);
  std::vector<std::string> out;
  for (const std::string& ds : trace::all_dataset_ids()) {
    if (algo != nullptr && core::strict_faithful(*algo, bench.dataset(ds))) {
      out.push_back(ds);
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> same_dataset_pairs(
    Benchmark& bench, const std::vector<std::string>& algos) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& algo : algos) {
    for (const std::string& ds : faithful_datasets(bench, algo)) {
      pairs.emplace_back(algo, ds);
    }
  }
  return pairs;
}

std::vector<std::array<std::string, 3>> cross_dataset_pairs(
    Benchmark& bench, const std::vector<std::string>& algos) {
  std::vector<std::array<std::string, 3>> triples;
  for (const std::string& algo : algos) {
    const std::vector<std::string> datasets = faithful_datasets(bench, algo);
    for (const std::string& train : datasets) {
      for (const std::string& test : datasets) {
        if (train == test) continue;
        triples.push_back({algo, train, test});
      }
    }
  }
  return triples;
}

namespace {

/// Evaluate `n` grid cells through `cell` (any thread, any order), then merge
/// serially in index order: successful runs go to `store` + `on_run`, errors
/// to stderr via `describe`.
void run_indexed(
    size_t n,
    const std::function<Result<Benchmark::RunOutput>(size_t)>& cell,
    const std::function<std::string(size_t)>& describe, ResultStore& store,
    const RunCallback& on_run) {
  std::vector<std::optional<Result<Benchmark::RunOutput>>> results(n);
  // Each grid cell records a wall-time span (detail = "algo on dataset")
  // plus ok/error counters into the process registry; the span stack is
  // thread-local, so pool workers trace their own cells. Telemetry never
  // touches the results buffer, so the determinism contract holds.
  telemetry::Registry& tel = telemetry::Registry::process();
  telemetry::Counter& cells_ok = tel.counter("eval.cells");
  telemetry::Counter& cells_err = tel.counter("eval.cell_errors");
  auto evaluate = [&](size_t i) {
    telemetry::Span span(&tel, "eval.cell", describe(i));
    results[i].emplace(cell(i));
    span.stop();
    (results[i]->ok() ? cells_ok : cells_err).add(1);
  };
  parallel_for(0, n, evaluate, /*min_parallel=*/2);
  for (size_t i = 0; i < n; ++i) {
    Result<Benchmark::RunOutput>& run = *results[i];
    if (!run.ok()) {
      std::fprintf(stderr, "[skip] %s: %s\n", describe(i).c_str(),
                   run.error().message.c_str());
      continue;
    }
    store.add_record(run.value().record);
    if (on_run) on_run(run.value());
  }
}

}  // namespace

void sweep_same_dataset(Benchmark& bench, const std::vector<std::string>& algos,
                        ResultStore& store, const RunCallback& on_run) {
  const auto pairs = same_dataset_pairs(bench, algos);
  run_indexed(
      pairs.size(),
      [&](size_t i) { return bench.same_dataset(pairs[i].first, pairs[i].second); },
      [&](size_t i) { return pairs[i].first + " on " + pairs[i].second; },
      store, on_run);
}

void sweep_cross_dataset(Benchmark& bench,
                         const std::vector<std::string>& algos,
                         ResultStore& store) {
  const auto triples = cross_dataset_pairs(bench, algos);
  run_indexed(
      triples.size(),
      [&](size_t i) {
        return bench.cross_dataset(triples[i][0], triples[i][1], triples[i][2]);
      },
      [&](size_t i) {
        return triples[i][0] + " " + triples[i][1] + "->" + triples[i][2];
      },
      store, /*on_run=*/{});
}

void prefetch_same_dataset(
    Benchmark& bench,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  parallel_for(
      0, pairs.size(),
      [&](size_t i) {
        auto run = bench.same_dataset(pairs[i].first, pairs[i].second);
        (void)run;
      },
      /*min_parallel=*/2);
}

}  // namespace lumen::eval
