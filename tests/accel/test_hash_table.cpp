#include "accel/hash_table.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/random.hpp"

namespace rb::accel {
namespace {

const auto kSum = [](std::uint64_t a, std::uint64_t b) { return a + b; };

TEST(HashTable, EmptyFindReturnsNull) {
  const HashTable64 t;
  EXPECT_EQ(t.find(42), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(HashTable, InsertAndFind) {
  HashTable64 t;
  t.upsert(7, 100, kSum);
  ASSERT_NE(t.find(7), nullptr);
  EXPECT_EQ(*t.find(7), 100u);
  EXPECT_EQ(t.find(8), nullptr);
}

TEST(HashTable, UpsertCombines) {
  HashTable64 t;
  t.upsert(7, 100, kSum);
  t.upsert(7, 50, kSum);
  EXPECT_EQ(*t.find(7), 150u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(HashTable, KeyZeroWorks) {
  HashTable64 t;
  t.upsert(0, 11, kSum);
  ASSERT_NE(t.find(0), nullptr);
  EXPECT_EQ(*t.find(0), 11u);
  t.upsert(0, 1, kSum);
  EXPECT_EQ(*t.find(0), 12u);
}

TEST(HashTable, ZeroSentinelKeyAlsoWorks) {
  // Key 2^63 (INT64_MIN's bits) and key 0 are two distinct entries.
  HashTable64 t;
  t.upsert(0x8000'0000'0000'0000ULL, 5, kSum);
  t.upsert(0, 7, kSum);
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(0), nullptr);
  EXPECT_EQ(*t.find(0), 7u);
  ASSERT_NE(t.find(0x8000'0000'0000'0000ULL), nullptr);
  EXPECT_EQ(*t.find(0x8000'0000'0000'0000ULL), 5u);
}

TEST(HashTable, GrowthPreservesEntries) {
  HashTable64 t{4};  // force many grows
  for (std::uint64_t k = 1; k <= 10000; ++k) t.upsert(k, k, kSum);
  EXPECT_EQ(t.size(), 10000u);
  for (std::uint64_t k = 1; k <= 10000; ++k) {
    ASSERT_NE(t.find(k), nullptr) << k;
    EXPECT_EQ(*t.find(k), k);
  }
}

TEST(HashTable, MatchesStdMapOnRandomWorkload) {
  sim::Rng rng{41};
  HashTable64 t;
  std::map<std::uint64_t, std::uint64_t> reference;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t k = rng.uniform_index(5000);
    const std::uint64_t v = rng.uniform_index(100);
    t.upsert(k, v, kSum);
    reference[k] += v;
  }
  EXPECT_EQ(t.size(), reference.size());
  for (const auto& [k, v] : reference) {
    ASSERT_NE(t.find(k), nullptr);
    EXPECT_EQ(*t.find(k), v);
  }
}

TEST(HashTable, MinCombine) {
  HashTable64 t;
  const auto kMin = [](std::uint64_t a, std::uint64_t b) {
    return std::min(a, b);
  };
  t.upsert(1, 50, kMin);
  t.upsert(1, 20, kMin);
  t.upsert(1, 80, kMin);
  EXPECT_EQ(*t.find(1), 20u);
}

}  // namespace
}  // namespace rb::accel
