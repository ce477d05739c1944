#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include "sim/random.hpp"

namespace rb::sim {
namespace {

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
