// The dispatched selection-scan kernels against a naive branching loop.

#include <gtest/gtest.h>

#include <vector>

#include "accel/simd/simd.hpp"
#include "sim/random.hpp"

namespace rb::accel {
namespace {

std::vector<std::uint32_t> select_between(
    const std::vector<std::int64_t>& values, std::int64_t lo,
    std::int64_t hi) {
  std::vector<std::uint32_t> out(values.size());
  out.resize(simd::kernels().select_between(values.data(), values.size(), lo,
                                            hi, out.data()));
  return out;
}

/// Naive branching reference.
std::vector<std::uint32_t> reference_select(
    const std::vector<std::int64_t>& values, std::int64_t lo,
    std::int64_t hi) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= lo && values[i] < hi) {
      out.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

TEST(Scan, EmptyInput) {
  EXPECT_TRUE(select_between({}, 0, 10).empty());
  EXPECT_EQ(select_between({}, 10, 0), reference_select({}, 10, 0));
}

TEST(Scan, AllMatch) {
  const std::vector<std::int64_t> v{1, 2, 3};
  EXPECT_EQ(select_between(v, 0, 10).size(), 3u);
  EXPECT_EQ(select_between(v, 0, 10), reference_select(v, 0, 10));
}

TEST(Scan, NoneMatch) {
  const std::vector<std::int64_t> v{1, 2, 3};
  EXPECT_TRUE(select_between(v, 10, 20).empty());
}

TEST(Scan, HalfOpenInterval) {
  const std::vector<std::int64_t> v{5, 10, 15};
  const auto idx = select_between(v, 5, 15);  // [5, 15): picks 5 and 10
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 1u);
}

TEST(Scan, NegativeValues) {
  const std::vector<std::int64_t> v{-10, -5, 0, 5};
  EXPECT_EQ(select_between(v, -7, 1), reference_select(v, -7, 1));
  EXPECT_EQ(select_between(v, -7, 1).size(), 2u);  // -5 and 0
}

TEST(Scan, MatchesReferenceOnRandomData) {
  sim::Rng rng{31};
  std::vector<std::int64_t> v(10000);
  for (auto& x : v) {
    x = static_cast<std::int64_t>(rng.uniform_index(2000)) - 1000;
  }
  for (int trial = 0; trial < 20; ++trial) {
    const auto lo = static_cast<std::int64_t>(rng.uniform_index(2000)) - 1000;
    const auto hi = lo + static_cast<std::int64_t>(rng.uniform_index(500));
    EXPECT_EQ(select_between(v, lo, hi), reference_select(v, lo, hi));
  }
}

/// Selectivity sweep: the selection matches the reference at every
/// selectivity.
class SelectivityTest : public ::testing::TestWithParam<double> {};

TEST_P(SelectivityTest, CountMatchesSelect) {
  const double selectivity = GetParam();
  sim::Rng rng{37};
  std::vector<std::int64_t> v(50000);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.uniform_index(1000000));
  const auto hi = static_cast<std::int64_t>(1000000.0 * selectivity);
  const auto idx = select_between(v, 0, hi);
  EXPECT_EQ(idx, reference_select(v, 0, hi));
  const double measured =
      static_cast<double>(idx.size()) / static_cast<double>(v.size());
  EXPECT_NEAR(measured, selectivity, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Selectivities, SelectivityTest,
                         ::testing::Values(0.01, 0.1, 0.25, 0.5, 0.75, 0.99));

}  // namespace
}  // namespace rb::accel
