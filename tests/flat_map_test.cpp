// FlatMap (common/flat_map.h) unit tests: lookup/insert semantics, forced
// collisions under a degenerate hash, growth across rehashes, and erase
// against a std::unordered_map oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <unordered_map>
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

TEST(FlatMap, EraseRemovesOnlyItsKey) {
  FlatMap<uint64_t, int> m;
  EXPECT_FALSE(m.erase(3));  // empty: nothing allocated yet
  m.try_emplace(3, 30);
  m.try_emplace(4, 40);
  EXPECT_TRUE(m.erase(3));
  EXPECT_FALSE(m.erase(3));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(3), nullptr);
  ASSERT_NE(m.find(4), nullptr);
  EXPECT_EQ(*m.find(4), 40);
  auto [v, fresh] = m.try_emplace(3, 31);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(*v, 31);
}

// Sends every key to one of the table's last four slots, so probe runs
// are long and wrap past the end of the table.
struct WrappingHash {
  uint64_t operator()(uint64_t k) const { return ~uint64_t{0} - (k & 3); }
};

// Seeded random try_emplace / erase / find steps over keys below
// `key_range`, each checked against std::unordered_map, then a full
// comparison. A small range makes erased keys come back and absent keys
// get erased often; the counts assert that both happened.
template <typename Hash>
void check_against_oracle(uint64_t seed, uint64_t key_range, size_t steps) {
  FlatMap<uint64_t, uint64_t, Hash> m;
  std::unordered_map<uint64_t, uint64_t> oracle;
  std::set<uint64_t> erased;
  size_t absent_erases = 0, reinserts = 0;
  std::mt19937_64 rng(seed);
  for (size_t step = 0; step < steps; ++step) {
    const uint64_t k = rng() % key_range;
    switch (rng() % 3) {
      case 0: {
        const auto [v, fresh] = m.try_emplace(k, step);
        const auto [it, want_fresh] = oracle.try_emplace(k, step);
        ASSERT_EQ(fresh, want_fresh) << "step " << step << " key " << k;
        ASSERT_EQ(*v, it->second) << "step " << step << " key " << k;
        reinserts += fresh && erased.count(k) != 0 ? 1 : 0;
        break;
      }
      case 1: {
        const bool want = oracle.erase(k) == 1;
        ASSERT_EQ(m.erase(k), want) << "step " << step << " key " << k;
        if (want) erased.insert(k);
        absent_erases += want ? 0 : 1;
        break;
      }
      default: {
        const uint64_t* v = m.find(k);
        const auto it = oracle.find(k);
        ASSERT_EQ(v != nullptr, it != oracle.end())
            << "step " << step << " key " << k;
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second) << "step " << step;
        }
      }
    }
    ASSERT_EQ(m.size(), oracle.size()) << "step " << step;
  }
  EXPECT_GT(absent_erases, 0u);
  EXPECT_GT(reinserts, 0u);
  for (const auto& [k, v] : oracle) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), v) << k;
  }
  size_t visited = 0;
  m.for_each([&](uint64_t k, const uint64_t& v) {
    ++visited;
    const auto it = oracle.find(k);
    ASSERT_NE(it, oracle.end()) << k;
    EXPECT_EQ(v, it->second) << k;
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST(FlatMap, EraseMatchesOracle) {
  for (const uint64_t seed : {1, 2, 3}) {
    check_against_oracle<FlatHash<uint64_t>>(seed, 64, 20000);
    check_against_oracle<FlatHash<uint64_t>>(seed, 5000, 200000);
  }
}

TEST(FlatMap, EraseMatchesOracleUnderDegenerateHashes) {
  for (const uint64_t seed : {1, 2, 3}) {
    check_against_oracle<DegenerateHash>(seed, 150, 20000);
    check_against_oracle<WrappingHash>(seed, 150, 20000);
  }
}

}  // namespace
}  // namespace lumen
