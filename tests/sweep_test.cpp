// Determinism contract of the parallel evaluation sweep: running the grid
// across the pool must produce a ResultStore whose CSV is byte-identical to
// the fully-serial sweep, even though workers race through shared caches and
// the ML kernels run their own parallel loops in the serial case.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/parallel.h"
#include "eval/sweep.h"

namespace lumen::eval {
namespace {

// Force a multi-worker global pool even on single-core CI hosts so the
// parallel side of the comparison actually runs concurrently.
[[maybe_unused]] const bool kForceThreads = [] {
  setenv("LUMEN_THREADS", "4", /*overwrite=*/0);
  setenv("LUMEN_THREADS_FORCE", "1", /*overwrite=*/0);
  return true;
}();

Benchmark::Options reduced_options() {
  Benchmark::Options opts;
  opts.dataset_scale = 0.15;  // reduced grid: keep the suite fast
  opts.max_train_rows = 600;
  opts.max_test_rows = 600;
  return opts;
}

std::string store_csv_bytes(const ResultStore& store, const char* name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  EXPECT_TRUE(store.save_csv(path).ok());
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  std::filesystem::remove(path);
  return ss.str();
}

// 2 algos x 3 datasets: a supervised forest pipeline and a Bayes pipeline,
// restricted to connection datasets they both run on.
const std::vector<std::string> kAlgos = {"A13", "A14"};
const std::vector<std::string> kDatasets = {"F4", "F5", "F7"};

class GridBenchmark : public Benchmark {
 public:
  GridBenchmark() : Benchmark(reduced_options()) {}
};

using Pairs = std::vector<std::pair<std::string, std::string>>;

Pairs reduced_pairs() {
  Pairs pairs;
  for (const auto& a : kAlgos) {
    for (const auto& d : kDatasets) pairs.emplace_back(a, d);
  }
  return pairs;
}

void run_reduced_same_dataset(Benchmark& bench, const Pairs& pairs,
                              ResultStore& store, bool parallel) {
  std::vector<std::optional<Result<Benchmark::RunOutput>>> runs(pairs.size());
  auto evaluate = [&](size_t i) {
    runs[i].emplace(bench.same_dataset(pairs[i].first, pairs[i].second));
  };
  if (parallel) {
    parallel_for(0, pairs.size(), evaluate, /*min_parallel=*/1);
  } else {
    for (size_t i = 0; i < pairs.size(); ++i) evaluate(i);
  }
  for (auto& run : runs) {
    ASSERT_TRUE(run->ok()) << run->error().message;
    store.add_record(run->value().record);
  }
}

void expect_parallel_csv_matches_serial(const Pairs& pairs) {
  ASSERT_GT(ThreadPool::global().size(), 1u);

  GridBenchmark serial_bench;
  ResultStore serial_store;
  {
    SerialGuard guard;  // true serial baseline: no pool anywhere
    run_reduced_same_dataset(serial_bench, pairs, serial_store,
                             /*parallel=*/false);
  }

  GridBenchmark parallel_bench;  // fresh caches: recompute everything
  ResultStore parallel_store;
  run_reduced_same_dataset(parallel_bench, pairs, parallel_store,
                           /*parallel=*/true);

  ASSERT_GT(serial_store.size(), 0u);
  EXPECT_EQ(serial_store.size(), parallel_store.size());
  EXPECT_EQ(store_csv_bytes(serial_store, "lumen_sweep_serial.csv"),
            store_csv_bytes(parallel_store, "lumen_sweep_parallel.csv"));
}

TEST(SweepDeterminism, ParallelSameDatasetCsvIsByteIdenticalToSerial) {
  expect_parallel_csv_matches_serial(reduced_pairs());
}

// The ML-DDoS ensemble (A00) and AutoML on nPrint tables (A01) on packet
// captures: each cell fits several models on one shared rank encoding and
// scores every ensemble member once, and here four such cells run at once.
TEST(SweepDeterminism, EnsembleAndAutoMlCellsOnThePoolMatchSerial) {
  Pairs pairs;
  for (const char* algo : {"A00", "A01"}) {
    for (const char* ds : {"P1", "P3"}) pairs.emplace_back(algo, ds);
  }
  expect_parallel_csv_matches_serial(pairs);
}

TEST(SweepDeterminism, SweepHelperMatchesSerialHelper) {
  const std::vector<std::string> algos = {"A14"};
  GridBenchmark serial_bench;
  ResultStore serial_store;
  {
    SerialGuard guard;
    sweep_cross_dataset(serial_bench, algos, serial_store);
  }

  GridBenchmark parallel_bench;
  ResultStore parallel_store;
  sweep_cross_dataset(parallel_bench, algos, parallel_store);

  ASSERT_GT(serial_store.size(), 0u);
  EXPECT_EQ(store_csv_bytes(serial_store, "lumen_cross_serial.csv"),
            store_csv_bytes(parallel_store, "lumen_cross_parallel.csv"));
}

TEST(SweepDeterminism, ConcurrentSameKeyRunsShareOneComputation) {
  // Hammer one (algo, dataset) pair from many workers: the memoized caches
  // must hand every caller the same feature table pointer.
  GridBenchmark bench;
  std::vector<const FeatureTable*> seen(16, nullptr);
  parallel_for(
      0, seen.size(),
      [&](size_t i) {
        auto feats = bench.features("A14", "F4");
        ASSERT_TRUE(feats.ok());
        seen[i] = feats.value();
      },
      /*min_parallel=*/1);
  for (const FeatureTable* p : seen) EXPECT_EQ(p, seen[0]);
}

}  // namespace
}  // namespace lumen::eval
