// The evaluation grid's memory: after a same-dataset sweep, a Benchmark
// holds each pair's trained model and test split, not its feature table or
// a copy of its train rows.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "eval/sweep.h"

// Every heap allocation in this binary goes through the replaced global
// operator new / new[] below, which count the live bytes (the usable size
// of each block). The whole unaligned family is replaced, nothrow forms
// included, so every block is allocated with malloc and released with free.
namespace {
std::atomic<size_t> g_live_bytes{0};

void* counted_alloc(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) {
    g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace lumen::eval {
namespace {

Benchmark::Options reduced_options() {
  Benchmark::Options opts;
  opts.dataset_scale = 0.15;  // sweep_test's reduced grid
  opts.max_train_rows = 600;
  opts.max_test_rows = 600;
  return opts;
}

// AutoML on nPrint tables (A01: wide packet tables) and a forest on
// connection tables (A14): 14 pairs.
const std::vector<std::string> kAlgos = {"A01", "A14"};

// A test split is 30% of its table's rows and a train split 70%, so a grid
// that still held the tables or both split copies would exceed half of the
// tables' bytes; the test splits and the models stay well below it.
TEST(GridMemory, SweepHoldsOnlyModelsAndTestSplits) {
  SerialGuard guard;
  Benchmark bench(reduced_options());
  for (const std::string& id : trace::all_dataset_ids()) (void)bench.dataset(id);
  const size_t before = g_live_bytes.load();
  {
    ResultStore store;
    sweep_same_dataset(bench, kAlgos, store);
    ASSERT_EQ(store.size(), 14u * 5u);  // 14 pairs x 5 metrics
  }
  const double held = static_cast<double>(g_live_bytes.load()) -
                      static_cast<double>(before);

  Benchmark tables(reduced_options());
  const auto pairs = same_dataset_pairs(tables, kAlgos);
  ASSERT_EQ(pairs.size(), 14u);
  double table_bytes = 0.0;
  for (const auto& [algo, ds] : pairs) {
    auto t = tables.features(algo, ds);
    ASSERT_TRUE(t.ok()) << algo << " on " << ds << ": " << t.error().message;
    table_bytes += static_cast<double>(t.value()->byte_size());
  }
  EXPECT_LT(held, 0.5 * table_bytes)
      << "the sweep left " << held << " bytes held against " << table_bytes
      << " bytes of feature tables";
}

}  // namespace
}  // namespace lumen::eval
