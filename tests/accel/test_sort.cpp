#include "accel/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/random.hpp"

namespace rb::accel {
namespace {

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng();
  return keys;
}

TEST(RadixSort, EmptyAndSingle) {
  std::vector<std::uint64_t> empty;
  radix_sort(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<std::uint64_t> one{42};
  radix_sort(one);
  EXPECT_EQ(one, (std::vector<std::uint64_t>{42}));
}

TEST(RadixSort, MatchesStdSort) {
  auto keys = random_keys(100000, 3);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  radix_sort(keys);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, AlreadySorted) {
  std::vector<std::uint64_t> keys(1000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  radix_sort(keys);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(RadixSort, ReverseSorted) {
  std::vector<std::uint64_t> keys(1000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 1000 - i;
  radix_sort(keys);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(RadixSort, AllEqual) {
  std::vector<std::uint64_t> keys(5000, 7);
  radix_sort(keys);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), 5000u);
}

TEST(RadixSort, SmallRangeTriggersTrivialPassSkip) {
  // High bytes identical: the pass-skip optimization must stay correct.
  auto keys = random_keys(20000, 5);
  for (auto& k : keys) k &= 0xffff;
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  radix_sort(keys);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, ExtremeValues) {
  std::vector<std::uint64_t> keys{~0ULL, 0, 1, ~0ULL - 1, 1ULL << 63};
  radix_sort(keys);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), 0u);
  EXPECT_EQ(keys.back(), ~0ULL);
}

/// Size sweep: radix sort against std::sort.
class SortSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SortSizeTest, BothSortsAgree) {
  auto a = random_keys(GetParam(), 17);
  auto b = a;
  radix_sort(a);
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSizeTest,
                         ::testing::Values(0, 1, 2, 100, 4095, 4096, 4097,
                                           50000));

}  // namespace
}  // namespace rb::accel
