// FlatMap (common/flat_map.h) unit tests: lookup/insert semantics, forced
// collisions under a degenerate hash, and growth across rehashes.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/flat_map.h"

namespace lumen {
namespace {

TEST(FlatMap, EmptyFindsNothing) {
  FlatMap<uint64_t, int> m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(42), nullptr);
}

TEST(FlatMap, TryEmplaceInsertsOnceAndFinds) {
  FlatMap<uint64_t, int> m;
  auto [v1, fresh1] = m.try_emplace(7, 100);
  EXPECT_TRUE(fresh1);
  EXPECT_EQ(*v1, 100);
  auto [v2, fresh2] = m.try_emplace(7, 999);  // existing: value untouched
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(*v2, 100);
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 100);
  *m.find(7) = 5;
  EXPECT_EQ(*m.find(7), 5);
}

// A hash that sends every key to one of two buckets forces long linear
// probe chains: correctness must not depend on hash quality.
struct DegenerateHash {
  uint64_t operator()(uint64_t k) const { return k & 1; }
};

TEST(FlatMap, SurvivesPathologicalCollisions) {
  FlatMap<uint64_t, uint64_t, DegenerateHash> m;
  for (uint64_t k = 0; k < 200; ++k) m.try_emplace(k, k * 3);
  EXPECT_EQ(m.size(), 200u);
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), k * 3);
  }
  EXPECT_EQ(m.find(1000), nullptr);
}

TEST(FlatMap, GrowthPreservesAllEntries) {
  FlatMap<uint64_t, uint64_t> m;
  const uint64_t n = 10000;
  for (uint64_t k = 0; k < n; ++k) {
    // Clustered keys exercise probe-chain relocation across rehashes.
    m.try_emplace(k * k + 17, k);
  }
  EXPECT_EQ(m.size(), n);
  EXPECT_GE(m.capacity(), n);
  // Power-of-two capacity.
  EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_NE(m.find(k * k + 17), nullptr) << k;
    EXPECT_EQ(*m.find(k * k + 17), k);
  }
}

TEST(FlatMap, ReserveAvoidsLaterGrowth) {
  FlatMap<uint64_t, int> m;
  m.reserve(1000);
  const size_t cap = m.capacity();
  for (uint64_t k = 0; k < 1000; ++k) m.try_emplace(k, 1);
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce) {
  FlatMap<uint64_t, uint64_t> m;
  for (uint64_t k = 10; k < 60; ++k) m.try_emplace(k, k);
  std::set<uint64_t> seen;
  m.for_each([&](uint64_t k, const uint64_t& v) {
    EXPECT_EQ(k, v);
    EXPECT_TRUE(seen.insert(k).second);
  });
  EXPECT_EQ(seen.size(), 50u);
}

TEST(FlatMap, ClearResets) {
  FlatMap<uint64_t, int> m;
  for (uint64_t k = 0; k < 100; ++k) m.try_emplace(k, 1);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(5), nullptr);
  m.try_emplace(5, 2);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, Key128DistinguishesHalves) {
  FlatMap<Key128, int> m;
  m.try_emplace(Key128{1, 2}, 12);
  m.try_emplace(Key128{2, 1}, 21);
  m.try_emplace(Key128{1, 3}, 13);
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(Key128{1, 2}), nullptr);
  EXPECT_EQ(*m.find(Key128{1, 2}), 12);
  ASSERT_NE(m.find(Key128{2, 1}), nullptr);
  EXPECT_EQ(*m.find(Key128{2, 1}), 21);
  EXPECT_EQ(m.find(Key128{3, 1}), nullptr);
}

}  // namespace
}  // namespace lumen
