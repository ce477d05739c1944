#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "sim/random.hpp"

namespace rb::sim {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  Rng rng{5};
  std::vector<double> xs;
  RunningStats s;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    xs.push_back(x);
    s.add(x);
  }
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-9);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng{7};
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsNoop) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  EXPECT_EQ(a.count(), 2u);
}

TEST(PercentileTracker, ThrowsWhenEmpty) {
  PercentileTracker t;
  EXPECT_THROW(t.percentile(50.0), std::logic_error);
  EXPECT_THROW(t.mean(), std::logic_error);
}

TEST(PercentileTracker, RejectsBadPercentile) {
  PercentileTracker t;
  t.add(1.0);
  EXPECT_THROW(t.percentile(-1.0), std::invalid_argument);
  EXPECT_THROW(t.percentile(101.0), std::invalid_argument);
}

TEST(PercentileTracker, KnownPercentiles) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.add(static_cast<double>(i));
  EXPECT_NEAR(t.p50(), 50.5, 0.01);
  EXPECT_NEAR(t.percentile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(t.percentile(100.0), 100.0, 1e-12);
  EXPECT_NEAR(t.p99(), 99.01, 0.01);
}

TEST(PercentileTracker, MonotoneInP) {
  Rng rng{11};
  PercentileTracker t;
  for (int i = 0; i < 1000; ++i) t.add(rng.lognormal(0.0, 1.0));
  double prev = t.percentile(0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = t.percentile(p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(PercentileTracker, InterleavedAddAndQuery) {
  PercentileTracker t;
  t.add(10.0);
  EXPECT_DOUBLE_EQ(t.p50(), 10.0);
  t.add(20.0);
  EXPECT_DOUBLE_EQ(t.p50(), 15.0);  // resort after new sample
  t.add(30.0);
  EXPECT_DOUBLE_EQ(t.p50(), 20.0);
}

}  // namespace
}  // namespace rb::sim
