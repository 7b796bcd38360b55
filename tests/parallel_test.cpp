// ThreadPool / parallel_for tests (the Ray-substitute map phase).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

#include "common/parallel.h"

namespace lumen {
namespace {

// The CI container may expose a single core; force a multi-worker global
// pool so the concurrency paths are actually exercised. Must run before the
// first ThreadPool::global() call, hence a namespace-scope initializer.
[[maybe_unused]] const bool kForceThreads = [] {
  setenv("LUMEN_THREADS", "4", /*overwrite=*/0);
  // LUMEN_THREADS is clamped to the core count unless explicitly forced;
  // these tests need real oversubscription on single-core CI hosts.
  setenv("LUMEN_THREADS_FORCE", "1", /*overwrite=*/0);
  return true;
}();

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ParallelFor, CoversExactRange) {
  std::vector<std::atomic<int>> hits(5000);
  parallel_for(0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); },
               /*min_parallel=*/10);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoops) {
  int hits = 0;
  parallel_for(5, 5, [&](size_t) { ++hits; });
  parallel_for(7, 3, [&](size_t) { ++hits; });
  EXPECT_EQ(hits, 0);
}

TEST(ParallelFor, SmallRangeRunsSerial) {
  // Below min_parallel the loop runs inline; order must be sequential.
  std::vector<size_t> order;
  parallel_for(0, 10, [&](size_t i) { order.push_back(i); },
               /*min_parallel=*/100);
  std::vector<size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ParallelFor, SumMatchesSerial) {
  std::atomic<long long> sum{0};
  parallel_for(1, 10001, [&](size_t i) { sum.fetch_add(static_cast<long long>(i)); },
               /*min_parallel=*/16);
  EXPECT_EQ(sum.load(), 10000LL * 10001 / 2);
}

TEST(ParallelFor, NestedCallCompletesWithExactCoverage) {
  // A pool worker issuing parallel_for must not deadlock on the shared pool
  // (the old global-pending design did); the inner loop runs on the caller.
  ASSERT_GT(ThreadPool::global().size(), 1u);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(
      0, kOuter,
      [&](size_t o) {
        parallel_for(
            0, kInner,
            [&](size_t i) { hits[o * kInner + i].fetch_add(1); },
            /*min_parallel=*/1);
      },
      /*min_parallel=*/1);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, DeeplyNestedRunsSerialOnWorker) {
  std::atomic<int> count{0};
  parallel_for(
      0, 8,
      [&](size_t) {
        parallel_for(
            0, 8,
            [&](size_t) {
              parallel_for(0, 8, [&](size_t) { count.fetch_add(1); },
                           /*min_parallel=*/1);
            },
            /*min_parallel=*/1);
      },
      /*min_parallel=*/1);
  EXPECT_EQ(count.load(), 8 * 8 * 8);
}

TEST(ParallelFor, PropagatesFirstException) {
  std::atomic<int> ran{0};
  try {
    parallel_for(
        0, 512,
        [&](size_t i) {
          ran.fetch_add(1);
          if (i == 100) throw std::runtime_error("task failed");
        },
        /*min_parallel=*/1);
    FAIL() << "expected parallel_for to rethrow the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
  // The pool must stay usable after an exception.
  std::atomic<int> after{0};
  parallel_for(0, 256, [&](size_t) { after.fetch_add(1); },
               /*min_parallel=*/1);
  EXPECT_EQ(after.load(), 256);
}

TEST(ParallelFor, SlowIndexDoesNotHoldBackTheRest) {
  // Index 0 waits for every other index. The other workers must claim the
  // indices behind it, so none of them is stuck behind index 0's worker.
  ASSERT_GT(ThreadPool::global().size(), 1u);
  constexpr size_t kN = 64;
  std::atomic<size_t> others{0};
  bool waited_out = false;
  parallel_for(
      0, kN,
      [&](size_t i) {
        if (i != 0) {
          others.fetch_add(1);
          return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (others.load() < kN - 1) {
          if (std::chrono::steady_clock::now() > deadline) {
            waited_out = true;
            return;
          }
          std::this_thread::yield();
        }
      },
      /*min_parallel=*/1);
  EXPECT_FALSE(waited_out) << others.load() << " of " << kN - 1
                           << " other indices ran while index 0 waited";
  EXPECT_EQ(others.load(), kN - 1);
}

TEST(ParallelFor, SerialGuardForcesInlineExecution) {
  SerialGuard guard;
  std::vector<size_t> order;
  parallel_for(0, 2000, [&](size_t i) { order.push_back(i); },
               /*min_parallel=*/1);  // no atomics needed: must run inline
  ASSERT_EQ(order.size(), 2000u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, WaitIdleRethrowsTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("submit failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Error is consumed; the pool keeps working.
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(TaskGroup, TracksOnlyItsOwnTasks) {
  ThreadPool pool(2);
  TaskGroup slow, fast;
  std::atomic<bool> slow_done{false};
  pool.submit(
      [&] {
        for (int i = 0; i < 200; ++i) std::this_thread::yield();
        slow_done.store(true);
      },
      &slow);
  std::atomic<int> fast_count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&fast_count] { fast_count.fetch_add(1); }, &fast);
  }
  fast.wait();  // must not wait on the slow group's task
  EXPECT_EQ(fast_count.load(), 8);
  slow.wait();
  EXPECT_TRUE(slow_done.load());
}

}  // namespace
}  // namespace lumen
