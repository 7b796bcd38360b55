// A small thread pool with a parallel_for helper and per-call task groups.
//
// Lumen's Python implementation leans on Ray/Modin for distributed map-reduce
// style operators. Our substitution is shared-memory parallelism: operators
// whose work decomposes per-packet, per-row, or per-(algorithm, dataset) pair
// run their map phase through parallel_for. On a single-core host this
// degrades gracefully to a serial loop (we never spawn more threads than
// hardware_concurrency unless LUMEN_THREADS says otherwise).
//
// Composition rules:
//  * Each parallel_for tracks completion through its own TaskGroup, so
//    concurrent parallel_for calls from different threads never wait on each
//    other's work.
//  * A parallel_for issued from inside a pool worker runs on the caller
//    (serial). This keeps nesting deadlock-free: outer parallelism wins, and
//    the inner loop produces exactly the same result it would in a thread of
//    its own because every parallel loop is deterministic per index.
//  * A parallel loop hands out its indices on demand: it submits at most one
//    task per worker, and each task claims the next unclaimed indices from
//    a shared counter until the range is spent. A slow index then occupies
//    one worker while the others take the rest of the range; no fixed
//    chunk strands the indices queued behind it.
//  * The first exception thrown by a task is captured and rethrown on the
//    waiting caller after all tasks of the group have drained, so references
//    captured by the task lambdas (`body` in particular) never dangle.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.h"

namespace lumen {

/// Completion tracking for one batch of tasks. Waiters block until every
/// task of the group has finished; the first captured exception is rethrown
/// from wait() once the group has fully drained.
class TaskGroup {
 public:
  void add_pending(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ += n;
  }

  void finish_one(std::exception_ptr err) {
    std::lock_guard<std::mutex> lock(mu_);
    if (err && !error_) error_ = std::move(err);
    if (--pending_ == 0) cv_.notify_all();
  }

  /// Block until every task added to the group has completed, then rethrow
  /// the first captured exception (if any).
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
    if (error_) {
      std::exception_ptr err = std::exchange(error_, nullptr);
      lock.unlock();
      std::rethrow_exception(err);
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
  std::exception_ptr error_;
};

class ThreadPool {
 public:
  explicit ThreadPool(size_t n_threads = 0)
      // Instruments resolve against the process registry before any worker
      // spawns, which also guarantees the registry outlives the pool.
      : tasks_submitted_(telemetry::Registry::process().counter("pool.tasks")),
        tasks_inline_(
            telemetry::Registry::process().counter("pool.tasks_inline")),
        queue_depth_(telemetry::Registry::process().gauge("pool.queue_depth")),
        queue_wait_ns_(
            telemetry::Registry::process().histogram("pool.queue_wait_ns")) {
    if (n_threads == 0) n_threads = default_thread_count();
    telemetry::Registry::process().gauge("pool.workers").set(
        static_cast<double>(n_threads));
    workers_.reserve(n_threads);
    for (size_t i = 0; i < n_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  size_t size() const { return workers_.size(); }

  /// Enqueue a task. With a group, completion and exceptions are reported
  /// there; without one, the first exception is rethrown by wait_idle().
  void submit(std::function<void()> task, TaskGroup* group = nullptr) {
    if (group != nullptr) group->add_pending(1);
    tasks_submitted_.add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push(Task{std::move(task), group,
                       std::chrono::steady_clock::now()});
      ++pending_;
      queue_depth_.set(static_cast<double>(tasks_.size()));
    }
    cv_.notify_one();
  }

  /// Block until every submitted task has finished; rethrows the first
  /// exception captured from a group-less task.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
    if (error_) {
      std::exception_ptr err = std::exchange(error_, nullptr);
      lock.unlock();
      std::rethrow_exception(err);
    }
  }

  /// True when the calling thread is one of this process's pool workers.
  static bool on_worker_thread() { return tl_on_worker(); }

  /// Count a parallel_for that ran inline (small range, serial guard, or
  /// nested call) — the pool's analog of a "steal": work the workers never
  /// saw. Exposed as the `pool.tasks_inline` counter.
  void note_inline_loop() { tasks_inline_.add(1); }

  /// Process-wide pool, created on first use. LUMEN_THREADS overrides the
  /// worker count, clamped to hardware_concurrency(); set
  /// LUMEN_THREADS_FORCE=1 to oversubscribe deliberately (sanitizer runs
  /// and concurrency tests on single-core hosts).
  static ThreadPool& global() {
    static ThreadPool pool;
    return pool;
  }

  static size_t hardware_threads() {
    const size_t hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

 private:
  static size_t default_thread_count() {
    const size_t hw = hardware_threads();
    if (const char* env = std::getenv("LUMEN_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) {
        const size_t want = static_cast<size_t>(n);
        if (const char* force = std::getenv("LUMEN_THREADS_FORCE")) {
          if (force[0] != '\0' && force[0] != '0') return want;
        }
        // A worker count above the core count only adds contention on the
        // hot path; honor the request up to what the hardware can run.
        return std::min(want, hw);
      }
    }
    return hw;
  }

  static bool& tl_on_worker() {
    thread_local bool on_worker = false;
    return on_worker;
  }

  void worker_loop() {
    tl_on_worker() = true;
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
        queue_depth_.set(static_cast<double>(tasks_.size()));
      }
      queue_wait_ns_.record(
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - task.enqueued)
              .count());
      std::exception_ptr err;
      try {
        task.fn();
      } catch (...) {
        err = std::current_exception();
      }
      if (task.group != nullptr) task.group->finish_one(std::move(err));
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (err && task.group == nullptr && !error_) error_ = std::move(err);
        if (--pending_ == 0) idle_cv_.notify_all();
      }
    }
  }

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    std::chrono::steady_clock::time_point enqueued;
  };

  telemetry::Counter& tasks_submitted_;
  telemetry::Counter& tasks_inline_;
  telemetry::Gauge& queue_depth_;
  telemetry::Histogram& queue_wait_ns_;
  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::exception_ptr error_;
  size_t pending_ = 0;
  bool stop_ = false;
};

namespace detail {
inline int& tl_serial_depth() {
  thread_local int depth = 0;
  return depth;
}
}  // namespace detail

/// RAII switch forcing parallel_for to run inline on this thread. Used by
/// benchmarks to measure a true serial baseline and by determinism tests to
/// compare serial vs parallel outputs within one process.
class SerialGuard {
 public:
  SerialGuard() { ++detail::tl_serial_depth(); }
  ~SerialGuard() { --detail::tl_serial_depth(); }
  SerialGuard(const SerialGuard&) = delete;
  SerialGuard& operator=(const SerialGuard&) = delete;
};

inline bool serial_forced() { return detail::tl_serial_depth() > 0; }

/// Run body(i) for i in [begin, end) across the global pool: at most
/// pool.size() tasks, each claiming the next unclaimed indices until the
/// range is spent, so every index runs exactly once.
/// Runs inline when the range is small, the pool has a single worker, a
/// SerialGuard is active, or the caller is itself a pool worker (nested
/// parallel_for). Deterministic as long as body(i) only depends on i; the
/// first exception thrown by body is rethrown here after every task has
/// returned.
inline void parallel_for(size_t begin, size_t end,
                         const std::function<void(size_t)>& body,
                         size_t min_parallel = 1024) {
  const size_t n = end > begin ? end - begin : 0;
  if (n == 0) return;
  if (min_parallel == 0) min_parallel = 1;
  ThreadPool& pool = ThreadPool::global();
  if (n < min_parallel || pool.size() <= 1 || serial_forced() ||
      ThreadPool::on_worker_thread()) {
    pool.note_inline_loop();
    for (size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // A claim is one atomic increment, which under contention costs more
  // than a cheap per-row body, so a claim takes a run of n / (64 * tasks)
  // indices (at least one): about 64 claims per task over a long per-row
  // loop, and one index per claim below 128 indices per task. Every
  // evaluation grid is below that, and its neighbouring cells often cost
  // alike (a sweep is ordered by algorithm), so a run of them would strand
  // one algorithm's slow cells on one worker.
  const size_t tasks = std::min(n, pool.size());
  const size_t run = std::max<size_t>(1, n / (tasks * 64));
  std::atomic<size_t> next{begin};
  TaskGroup group;
  for (size_t t = 0; t < tasks; ++t) {
    // `next` and `body` are captured by reference: safe because group.wait()
    // only returns after every task has finished, exception or not.
    pool.submit([&next, end, run, &body] {
      for (size_t lo = next.fetch_add(run); lo < end;
           lo = next.fetch_add(run)) {
        const size_t hi = std::min(end, lo + run);
        for (size_t i = lo; i < hi; ++i) body(i);
      }
    }, &group);
  }
  group.wait();
}

}  // namespace lumen
