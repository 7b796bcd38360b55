// Single-producer/single-consumer lock-free ring buffer — the per-shard
// packet conduit for the flow-sharded ingest path, and the pool of frame
// buffers that conduit recycles.
//
// Design:
//   * Power-of-two capacity; head_/tail_ are monotonically increasing u64
//     positions (slot = position & mask), so full/empty never needs a
//     sacrificial slot and wrap-around is a masked index, not a reset.
//   * tail_ is written only by the producer, head_ only by the consumer.
//     Each side keeps a cached copy of the other's index on its own cache
//     line and refreshes it only when the cached view says "full"/"empty",
//     so the steady-state hot path touches no shared line but its own.
//   * Elements are exchanged, never copied or destroyed: try_push swaps
//     each accepted item with its slot, so the item comes back holding the
//     slot's previous element (one the consumer has finished with, with
//     whatever capacity it had); try_pop swaps slots with the caller's
//     elements, so the consumer hands its finished elements back to the
//     slots it drains. A T that owns a heap buffer (a frame's bytes)
//     therefore circulates producer -> slot -> consumer -> slot -> producer
//     and, once every slot has been through a round, the hand-off allocates
//     and frees nothing.
//   * Publication protocol: the producer swaps slots and then
//     store-releases tail_; the consumer load-acquires tail_ before
//     touching those slots (and symmetrically store-releases head_ after
//     swapping its elements into them, which the producer load-acquires
//     before swapping those slots again, so the consumer's writes to an
//     element are ordered before the producer reuses it). These two
//     release/acquire pairs are the only synchronization — there is no
//     mutex anywhere.
//   * Blocking edges (empty consumer, full producer under kBlock) use an
//     escalating spin -> yield -> bounded-sleep backoff instead of a
//     futex/doorbell. An edge-triggered doorbell on top of cached indices
//     is a lost-wakeup trap (the producer can miss the empty->nonempty
//     edge through its stale cache and never ring), whereas a sleep
//     bounded at ~100us caps wake-up staleness without burning a core —
//     on a 1-core CI host the sleep is what lets the other side run.
//
// close() is the producer's end-of-stream signal: the consumer drains what
// remains and wait_nonempty() then returns false. It also doubles as the
// consumer-death signal — a closed ring stops accepting pushes so a
// producer can wind down instead of feeding an abandoned ring.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

namespace lumen {

namespace detail {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Escalating backoff for the ring's blocking edges: spin briefly (the
/// other side may publish within nanoseconds), then yield, then sleep in
/// doubling quanta capped at 128us so a blocked side never monopolizes a
/// core and wake-up latency stays bounded.
class Backoff {
 public:
  void wait() {
    if (rounds_ < 64) {
      cpu_relax();
    } else if (rounds_ < 80) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
      sleep_us_ = std::min<unsigned>(sleep_us_ * 2, 128);
    }
    ++rounds_;
  }

 private:
  int rounds_ = 0;
  unsigned sleep_us_ = 1;
};

}  // namespace detail

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 1).
  explicit SpscRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  size_t capacity() const { return slots_.size(); }

  // ---- producer side ------------------------------------------------------

  /// Swap up to n items from items[0..n) into the ring. Returns how many
  /// were accepted (0 when full or closed); each accepted item comes back
  /// holding its slot's previous element (default-constructed on the
  /// slot's first use), the rest are untouched. One release store
  /// publishes the whole batch.
  size_t try_push(T* items, size_t n) {
    if (n == 0 || closed_.load(std::memory_order_relaxed)) return 0;
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    size_t free = capacity() - static_cast<size_t>(tail - head_cache_);
    if (free < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = capacity() - static_cast<size_t>(tail - head_cache_);
      if (free == 0) return 0;
    }
    const size_t take = std::min(n, free);
    using std::swap;
    for (size_t i = 0; i < take; ++i) {
      swap(slots_[static_cast<size_t>(tail + i) & mask_], items[i]);
    }
    tail_.store(tail + take, std::memory_order_release);
    // Occupancy against the producer's cached head: never above capacity,
    // may overestimate the instantaneous value by whatever the consumer
    // drained since the last refresh (conservative for a high-water mark).
    const auto occ = static_cast<uint64_t>(tail + take - head_cache_);
    if (occ > high_water_.load(std::memory_order_relaxed)) {
      high_water_.store(occ, std::memory_order_relaxed);
    }
    return take;
  }

  /// Block until at least one slot is free or the ring is closed.
  /// Returns false when closed (the push would be refused anyway).
  bool wait_notfull() {
    detail::Backoff backoff;
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) return false;
      const uint64_t tail = tail_.load(std::memory_order_relaxed);
      head_cache_ = head_.load(std::memory_order_acquire);
      if (static_cast<size_t>(tail - head_cache_) < capacity()) return true;
      backoff.wait();
    }
  }

  /// End-of-stream (or abandon-stream): pushes are refused from here on;
  /// the consumer drains the remainder and then sees "closed".
  void close() { closed_.store(true, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Peak occupancy observed by the producer (see try_push for the
  /// conservative-overestimate caveat). Producer-written, safe to read
  /// from anywhere after the producer is done.
  size_t high_water() const {
    return static_cast<size_t>(high_water_.load(std::memory_order_relaxed));
  }

  // ---- consumer side ------------------------------------------------------

  /// Swap up to out.size() items out of the ring into out[0..n), handing
  /// the elements that were there to the drained slots (the producer gets
  /// them back from a later try_push). Returns n; out[n..) is untouched.
  size_t try_pop(std::span<T> out) {
    if (out.empty()) return 0;
    const uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t tail = tail_cache_;
    if (tail == head) {
      tail = tail_cache_ = tail_.load(std::memory_order_acquire);
      if (tail == head) return 0;
    }
    const size_t n = std::min(out.size(), static_cast<size_t>(tail - head));
    using std::swap;
    for (size_t i = 0; i < n; ++i) {
      swap(slots_[static_cast<size_t>(head + i) & mask_], out[i]);
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Block until an item is visible or the ring is closed AND drained.
  /// Returns true when data is ready, false at end-of-stream. The closed
  /// flag is re-checked against a fresh tail so a close racing the final
  /// push never strands items: the producer stores tail before closed, so
  /// observing closed (acquire) makes the final tail visible.
  bool wait_nonempty() {
    detail::Backoff backoff;
    for (;;) {
      const uint64_t head = head_.load(std::memory_order_relaxed);
      if (tail_.load(std::memory_order_acquire) != head) return true;
      if (closed_.load(std::memory_order_acquire)) {
        return tail_.load(std::memory_order_acquire) != head;
      }
      backoff.wait();
    }
  }

  /// Approximate occupancy (racy by nature; exact once both sides stop).
  size_t size() const {
    return static_cast<size_t>(tail_.load(std::memory_order_acquire) -
                               head_.load(std::memory_order_acquire));
  }

 private:
  // Consumer-owned index, producer-read: own cache line.
  alignas(64) std::atomic<uint64_t> head_{0};
  // Producer-owned index, consumer-read: own cache line.
  alignas(64) std::atomic<uint64_t> tail_{0};
  // Producer-local view of head_ (also producer-only high-water mark).
  alignas(64) uint64_t head_cache_ = 0;
  std::atomic<uint64_t> high_water_{0};
  // Consumer-local view of tail_.
  alignas(64) uint64_t tail_cache_ = 0;
  alignas(64) std::atomic<bool> closed_{false};

  std::vector<T> slots_;
  size_t mask_ = 0;
};

}  // namespace lumen
