// SpscRing and ModelSlot: the two lock-free primitives under the sharded
// ingest path. Single-threaded tests pin the index arithmetic (wrap-around,
// batched claim/publish, full/empty/closed edges) and the swap hand-off
// that recycles elements; the two-thread stresses are the TSan targets —
// FIFO integrity across millions of wraps for the ring, also with
// recycled byte buffers of varying size, and no torn value and bounded
// node retention for the slot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/model_slot.h"
#include "common/spsc_ring.h"

namespace lumen {
namespace {

/// Pops up to `max` items into a fresh buffer and returns the claimed ones.
template <typename T>
std::vector<T> pop(SpscRing<T>& ring, size_t max) {
  std::vector<T> out(max);
  out.resize(ring.try_pop(out));
  return out;
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4096).capacity(), 4096u);
  EXPECT_EQ(SpscRing<int>(5000).capacity(), 8192u);
}

TEST(SpscRing, FifoAcrossManyWraps) {
  SpscRing<int> ring(4);
  std::vector<int> out;
  int next_push = 0, next_pop = 0;
  // Interleave pushes and pops so head/tail wrap the 4-slot ring hundreds
  // of times; order and content must survive every wrap.
  for (int round = 0; round < 1000; ++round) {
    int vals[3];
    for (int i = 0; i < 3; ++i) vals[i] = next_push + i;
    const size_t pushed = ring.try_push(vals, 3);
    next_push += static_cast<int>(pushed);
    ASSERT_GT(pushed, 0u);
    out = pop(ring, 2);
    ASSERT_FALSE(out.empty());
    for (const int v : out) {
      ASSERT_EQ(v, next_pop);
      ++next_pop;
    }
  }
  while (!(out = pop(ring, 64)).empty()) {
    for (const int v : out) {
      ASSERT_EQ(v, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscRing, BatchedClaimPublishPartialAccept) {
  SpscRing<int> ring(8);
  int vals[16];
  for (int i = 0; i < 16; ++i) vals[i] = i;
  // A batch larger than the free space is accepted partially, in order.
  EXPECT_EQ(ring.try_push(vals, 16), 8u);
  EXPECT_EQ(ring.try_push(vals + 8, 8), 0u);  // full
  EXPECT_EQ(pop(ring, 3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ring.try_push(vals + 8, 8), 3u);  // exactly the freed slots
  // The consumer refreshes its view of the producer index only when the
  // cached view runs empty, so this claim serves the 5 items it already
  // knew about and the next claim picks up the 3 published since.
  EXPECT_EQ(pop(ring, 64), (std::vector<int>{3, 4, 5, 6, 7}));
  EXPECT_EQ(pop(ring, 64), (std::vector<int>{8, 9, 10}));
}

TEST(SpscRing, EmptyFullAndClosedEdges) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(pop(ring, 4).empty());  // empty
  int v = 7;
  ASSERT_EQ(ring.try_push(&v, 1), 1u);
  v = 8;
  ASSERT_EQ(ring.try_push(&v, 1), 1u);
  v = 9;
  EXPECT_EQ(ring.try_push(&v, 1), 0u);  // full
  EXPECT_EQ(v, 9);                      // refused items are untouched
  EXPECT_TRUE(ring.wait_nonempty());

  ring.close();
  v = 10;
  EXPECT_EQ(ring.try_push(&v, 1), 0u);  // closed: refuse new work
  EXPECT_FALSE(ring.wait_notfull());    // producer told to stop
  // Consumer drains the remainder, then sees end-of-stream.
  EXPECT_TRUE(ring.wait_nonempty());
  EXPECT_EQ(pop(ring, 4), (std::vector<int>{7, 8}));
  EXPECT_FALSE(ring.wait_nonempty());
}

// The ring is a pool: a push hands back the slot's previous element and a
// pop hands the caller's elements to the slots it drains, so a buffer goes
// producer -> slot -> consumer -> slot -> producer without being freed.
TEST(SpscRing, SwapsRecycleElements) {
  SpscRing<std::vector<int>> ring(2);
  std::vector<int> a{1, 2, 3};
  ASSERT_EQ(ring.try_push(&a, 1), 1u);  // slot 0
  EXPECT_TRUE(a.empty());  // a slot's first element is default-constructed
  EXPECT_EQ(a.capacity(), 0u);

  std::vector<std::vector<int>> batch(3);
  batch[0].reserve(16);
  const int* spent = batch[0].data();  // the consumer's finished buffer
  batch[1] = {9};
  ASSERT_EQ(ring.try_pop(batch), 1u);
  EXPECT_EQ(batch[0], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(batch[1], std::vector<int>{9});  // beyond the claim: untouched

  std::vector<int> b{4}, c{5};
  ASSERT_EQ(ring.try_push(&b, 1), 1u);  // slot 1, not used before
  EXPECT_EQ(b.capacity(), 0u);
  ASSERT_EQ(ring.try_push(&c, 1), 1u);  // slot 0, which the pop refilled
  EXPECT_EQ(c.data(), spent);
  EXPECT_EQ(c.capacity(), 16u);

  ASSERT_EQ(ring.try_pop(batch), 2u);
  EXPECT_EQ(batch[0], std::vector<int>{4});
  EXPECT_EQ(batch[1], std::vector<int>{5});
  // Slots 1 and 0 now hold what batch[0] and batch[1] held.
  std::vector<int> d, e;
  ASSERT_EQ(ring.try_push(&d, 1), 1u);
  ASSERT_EQ(ring.try_push(&e, 1), 1u);
  EXPECT_EQ(d, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e, std::vector<int>{9});
}

TEST(SpscRing, HighWaterTracksPeakOccupancy) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.high_water(), 0u);
  int vals[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_EQ(ring.try_push(vals, 5), 5u);
  EXPECT_EQ(ring.high_water(), 5u);
  ASSERT_EQ(pop(ring, 5).size(), 5u);
  EXPECT_EQ(ring.high_water(), 5u);  // a high-water mark never recedes
  ASSERT_EQ(ring.try_push(vals, 8), 8u);
  EXPECT_EQ(ring.high_water(), 8u);
  EXPECT_LE(ring.high_water(), ring.capacity());
}

// The TSan target: one producer and one consumer hammer a tiny ring so
// every publication path (batched push, batched pop, wait/backoff, close)
// races constantly. The consumer checks the exact FIFO sequence, which
// fails loudly if a slot is ever read before its release-store published it.
TEST(SpscRing, TwoThreadStressKeepsFifo) {
  constexpr uint32_t kCount = 200000;
  SpscRing<uint32_t> ring(64);
  std::atomic<bool> ok{true};

  std::thread consumer([&] {
    std::vector<uint32_t> out(16);
    uint32_t expect = 0;
    while (ring.wait_nonempty()) {
      const size_t n = ring.try_pop(out);
      for (const uint32_t v : std::span(out).first(n)) {
        if (v != expect) {
          ok.store(false);
          return;
        }
        ++expect;
      }
    }
    if (expect != kCount) ok.store(false);
  });

  uint32_t batch[13];
  uint32_t next = 0;
  while (next < kCount) {
    uint32_t n = 0;
    while (n < 13 && next + n < kCount) {
      batch[n] = next + n;
      ++n;
    }
    uint32_t done = 0;
    while (done < n) {
      const size_t accepted = ring.try_push(batch + done, n - done);
      done += static_cast<uint32_t>(accepted);
      if (accepted == 0) {
        ASSERT_TRUE(ring.wait_notfull());
      }
    }
    next += n;
  }
  ring.close();
  consumer.join();
  EXPECT_TRUE(ok.load());
  EXPECT_GE(ring.high_water(), 1u);
  EXPECT_LE(ring.high_water(), ring.capacity());
}

// The TSan target for recycling: payloads are byte buffers of varying
// size, rewritten in place by the producer after the ring hands them back
// and read by the consumer after it claims them. The consumer checks every
// byte, so a producer write racing a consumer read of the same buffer (a
// slot reused before its release-store) shows as a wrong byte or a race.
TEST(SpscRing, TwoThreadStressRecyclesByteBuffers) {
  constexpr uint32_t kCount = 100000;
  SpscRing<std::vector<uint8_t>> ring(64);
  std::atomic<bool> ok{true};
  // Item k: 4 bytes of k, then a length and bytes that depend on k.
  const auto size_of = [](uint32_t k) { return 4 + (k * 7919u) % 700u; };
  const auto byte_of = [](uint32_t k, size_t j) {
    return static_cast<uint8_t>((k + j) * 131u);
  };

  std::thread consumer([&] {
    std::vector<std::vector<uint8_t>> out(16);
    uint32_t expect = 0;
    while (ring.wait_nonempty()) {
      const size_t n = ring.try_pop(out);
      for (const std::vector<uint8_t>& v : std::span(out).first(n)) {
        bool good = v.size() == size_of(expect);
        uint32_t k = 0;
        if (good) std::memcpy(&k, v.data(), 4);
        good = good && k == expect;
        for (size_t j = 4; good && j < v.size(); ++j) {
          good = v[j] == byte_of(expect, j);
        }
        if (!good) {
          ok.store(false);
          return;
        }
        ++expect;
      }
    }
    if (expect != kCount) ok.store(false);
  });

  std::vector<uint8_t> batch[13];
  uint32_t next = 0;
  while (next < kCount) {
    uint32_t n = 0;
    for (; n < 13 && next + n < kCount; ++n) {
      const uint32_t k = next + n;
      std::vector<uint8_t>& v = batch[n];
      v.resize(size_of(k));
      std::memcpy(v.data(), &k, 4);
      for (size_t j = 4; j < v.size(); ++j) v[j] = byte_of(k, j);
    }
    uint32_t done = 0;
    while (done < n) {
      const size_t accepted = ring.try_push(batch + done, n - done);
      done += static_cast<uint32_t>(accepted);
      if (accepted == 0) {
        ASSERT_TRUE(ring.wait_notfull());
      }
    }
    next += n;
  }
  ring.close();
  consumer.join();
  EXPECT_TRUE(ok.load());
}

TEST(ModelSlot, PinReturnsInitialValue) {
  ModelSlot<int> slot(std::make_unique<int>(11), 2);
  const auto pinned = slot.pin(0);
  ASSERT_NE(pinned.value, nullptr);
  EXPECT_EQ(*pinned.value, 11);
  EXPECT_EQ(pinned.version, 1u);
  EXPECT_EQ(slot.version(), 1u);
  EXPECT_EQ(slot.live_nodes(), 1u);
}

TEST(ModelSlot, PublishAdvancesVersionAndReclaims) {
  ModelSlot<int> slot(std::make_unique<int>(1), 1);
  EXPECT_EQ(*slot.pin(0).value, 1);
  slot.publish(std::make_unique<int>(2));
  // The reader's announced epoch still protects the old node.
  EXPECT_EQ(slot.live_nodes(), 2u);
  const auto pinned = slot.pin(0);
  EXPECT_EQ(*pinned.value, 2);
  EXPECT_EQ(pinned.version, 2u);
  // Re-pinning moved the reader past version 1; the old node is now
  // unreachable and the next reclamation frees it.
  slot.reclaim();
  EXPECT_EQ(slot.live_nodes(), 1u);
}

TEST(ModelSlot, NeverPinnedReaderBlocksReclamationConservatively) {
  ModelSlot<int> slot(std::make_unique<int>(1), 2);
  (void)slot.pin(0);
  slot.publish(std::make_unique<int>(2));
  (void)slot.pin(0);
  slot.reclaim();
  // Reader 1 never pinned (epoch 0): reclamation must keep everything —
  // conservative but never unsafe.
  EXPECT_EQ(slot.live_nodes(), 2u);
  (void)slot.pin(1);
  slot.reclaim();
  EXPECT_EQ(slot.live_nodes(), 1u);
}

// The TSan target for the swap protocol: a writer republishes constantly
// while readers pin and validate. Model carries a self-checking invariant
// (b must equal ~a), so a torn read — mixing fields from two versions or
// touching freed memory — fails immediately. Also checks retention stays
// bounded: superseded nodes are reclaimed while traffic flows.
TEST(ModelSlot, SwapStressNoTornReadsBoundedRetention) {
  struct Model {
    uint64_t a;
    uint64_t b;  // always ~a
  };
  constexpr int kReaders = 3;
  constexpr uint64_t kPublishes = 2000;
  ModelSlot<Model> slot(std::make_unique<Model>(Model{0, ~uint64_t{0}}),
                        kReaders);
  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto pinned = slot.pin(static_cast<size_t>(r));
        const Model m = *pinned.value;
        if (m.b != ~m.a) ok.store(false);            // torn or freed
        if (pinned.version < last_version) ok.store(false);  // went back
        last_version = pinned.version;
      }
    });
  }

  for (uint64_t i = 1; i <= kPublishes; ++i) {
    slot.publish(std::make_unique<Model>(Model{i, ~i}));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(slot.version(), kPublishes + 1);
  // Once every reader has re-pinned past the last publish, exactly the
  // live node remains (retention is bounded by reader progress, which the
  // joins above made certain).
  (void)slot.pin(0);
  (void)slot.pin(1);
  (void)slot.pin(2);
  slot.reclaim();
  EXPECT_EQ(slot.live_nodes(), 1u);
}

}  // namespace
}  // namespace lumen
