// Parallel (algorithm, dataset) evaluation sweeps over the benchmark grid.
//
// The paper runs its 16x15 evaluation matrix as embarrassingly parallel work
// on a Ray cluster; here each grid cell becomes one task on the shared-memory
// pool. Determinism contract: cells are enumerated in a canonical order,
// evaluated in parallel into an index-addressed buffer, and merged back into
// the ResultStore serially in enumeration order — so the resulting store (and
// any CSV saved from it) is byte-identical to a serial sweep.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "eval/benchmark.h"
#include "eval/results.h"

namespace lumen::eval {

/// Callback observing each successful run during the (serial) merge phase,
/// in canonical grid order.
using RunCallback = std::function<void(const Benchmark::RunOutput&)>;

/// The strictly-faithful dataset ids for an algorithm.
std::vector<std::string> faithful_datasets(Benchmark& bench,
                                           const std::string& algo_id);

/// Canonical same-dataset grid: every (algo, faithful dataset) pair in
/// algorithm-major order.
std::vector<std::pair<std::string, std::string>> same_dataset_pairs(
    Benchmark& bench, const std::vector<std::string>& algos);

/// Canonical cross-dataset grid: every (algo, train, test) triple with
/// train != test among the algorithm's faithful datasets.
std::vector<std::array<std::string, 3>> cross_dataset_pairs(
    Benchmark& bench, const std::vector<std::string>& algos);

/// Run every same-dataset pair; records land in `store` in canonical order
/// and `on_run` (if set) sees each successful run for per-attack
/// post-processing. Cells run on the shared pool (inline under a
/// SerialGuard); results are identical either way.
void sweep_same_dataset(Benchmark& bench, const std::vector<std::string>& algos,
                        ResultStore& store, const RunCallback& on_run = {});

/// Run every cross-dataset (train != test) pair among faithful datasets.
void sweep_cross_dataset(Benchmark& bench,
                         const std::vector<std::string>& algos,
                         ResultStore& store);

/// Warm the benchmark's per-pair entries (trained model and test split) for
/// a set of same-dataset pairs in parallel; later serial queries then reuse
/// them. Failures are ignored (the serial caller will report them).
void prefetch_same_dataset(
    Benchmark& bench,
    const std::vector<std::pair<std::string, std::string>>& pairs);

}  // namespace lumen::eval
