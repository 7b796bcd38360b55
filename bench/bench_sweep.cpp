// Micro-benchmark for the parallel evaluation sweep: times a serial
// (SerialGuard-forced) same-dataset sweep against the pool-parallel sweep on
// a reduced grid and verifies the result CSVs are byte-identical. Ungated;
// the last stdout line is the result record (gate_record.h), one of which
// is kept in bench/baseline.jsonl to track the wall-clock trend.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "fig_common.h"
#include "gate_record.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

lumen::eval::Benchmark fresh_benchmark() {
  lumen::eval::Benchmark::Options opts;
  opts.dataset_scale = 0.25;
  opts.max_train_rows = 1200;
  opts.max_test_rows = 1200;
  return lumen::eval::Benchmark(opts);
}

}  // namespace

int main() {
  using namespace lumen;
  bench::print_header("bench_sweep: serial vs parallel evaluation sweep");

  const std::vector<std::string> algos = {"A08", "A13", "A14"};
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lumen_bench_sweep").string();
  std::filesystem::create_directories(dir);

  // Serial baseline: fresh caches, every parallel_for forced inline.
  eval::Benchmark serial_bench = fresh_benchmark();
  eval::ResultStore serial_store;
  const Clock::time_point t_serial = Clock::now();
  {
    SerialGuard guard;
    eval::sweep_same_dataset(serial_bench, algos, serial_store);
  }
  const double serial_s = seconds_since(t_serial);

  // Parallel sweep: fresh caches again so no work is amortized away.
  eval::Benchmark parallel_bench = fresh_benchmark();
  eval::ResultStore parallel_store;
  const Clock::time_point t_parallel = Clock::now();
  eval::sweep_same_dataset(parallel_bench, algos, parallel_store);
  const double parallel_s = seconds_since(t_parallel);

  const std::string serial_csv = dir + "/serial.csv";
  const std::string parallel_csv = dir + "/parallel.csv";
  (void)serial_store.save_csv(serial_csv);
  (void)parallel_store.save_csv(parallel_csv);
  const bool identical = file_bytes(serial_csv) == file_bytes(parallel_csv) &&
                         serial_store.size() > 0;

  const size_t threads = ThreadPool::global().size();
  const size_t hw_threads = std::thread::hardware_concurrency();
  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  const size_t pairs =
      eval::same_dataset_pairs(parallel_bench, algos).size();

  std::printf("grid: %zu algorithms, %zu (algo, dataset) pairs\n",
              algos.size(), pairs);
  std::printf("threads:           %zu (pool), %zu (hardware)\n", threads,
              hw_threads);
  std::printf("serial sweep:      %.3f s\n", serial_s);
  std::printf("parallel sweep:    %.3f s\n", parallel_s);
  std::printf("speedup:           %.2fx\n", speedup);
  std::printf("csv byte-identical: %s\n", identical ? "yes" : "NO (BUG)");

  // The sweeps above recorded one `eval.cell` span per grid cell plus pool
  // task counters into the process registry; surface the totals.
  const telemetry::Snapshot snap = telemetry::Registry::process().snapshot();
  size_t cell_spans = 0;
  for (const auto& s : snap.spans) cell_spans += s.name == "eval.cell";
  std::printf("registry: %llu cells ok, %llu pool tasks, %zu cell spans\n",
              static_cast<unsigned long long>(snap.counter_value("eval.cells")),
              static_cast<unsigned long long>(snap.counter_value("pool.tasks")),
              cell_spans);

  e2e::Outcome o;
  o.attempted = 2;
  o.check(identical, "serial and parallel sweep CSVs differ");
  o.add("sweep.serial_s", serial_s, "s");
  o.add("sweep.parallel_s", parallel_s, "s");
  o.add("sweep.speedup", speedup, "ratio");
  o.note("sweep.grid_pairs", static_cast<double>(pairs), "count");
  o.note("sweep.pool_threads", static_cast<double>(threads), "count");
  o.note("sweep.pool_tasks",
         static_cast<double>(snap.counter_value("pool.tasks")), "count");
  o.note("sweep.cell_spans", static_cast<double>(cell_spans), "count");
  bench::print_record("bench_sweep", o);
  return identical ? 0 : 1;
}
