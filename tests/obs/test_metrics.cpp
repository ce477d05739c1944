// rb::obs metrics registry: counter/gauge/histogram semantics, thread-safe
// exact counting, label handling, merge, and exporter round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace rb::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, NThreadsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Gauge, SetAddValue) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(LatencyHistogram, BucketsCountAndPercentiles) {
  LatencyHistogram h{{1.0, 10.0, 100.0}};
  for (const double v : {0.5, 0.7, 5.0, 50.0, 500.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 556.2);
  // 4 bounds -> 3 finite buckets + overflow.
  EXPECT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);  // <= 1
  EXPECT_EQ(h.bucket(1), 1u);  // <= 10
  EXPECT_EQ(h.bucket(2), 1u);  // <= 100
  EXPECT_EQ(h.bucket(3), 1u);  // overflow
  // p50 interpolates inside the (1,10] bucket; p99 lands past 100.
  EXPECT_GT(h.percentile(50.0), 1.0);
  EXPECT_LE(h.percentile(50.0), 10.0);
  EXPECT_GT(h.percentile(99.0), 10.0);
  EXPECT_THROW(h.percentile(101.0), std::invalid_argument);
}

TEST(LatencyHistogram, ExemplarLinksLandInTheRightBucket) {
  LatencyHistogram h{{1.0, 10.0}};
  h.observe_exemplar(0.5, 101);   // bucket 0: <= 1
  h.observe_exemplar(5.0, 202);   // bucket 1: <= 10
  h.observe_exemplar(500.0, 303); // overflow bucket
  EXPECT_EQ(h.exemplar(0), 101u);
  EXPECT_EQ(h.exemplar(1), 202u);
  EXPECT_EQ(h.exemplar(2), 303u);
  EXPECT_EQ(h.count(), 3u);  // observe_exemplar also counts the observation
  h.observe_exemplar(0.7, 404);
  EXPECT_EQ(h.exemplar(0), 404u);  // last write wins inside a bucket
}

TEST(LatencyHistogram, ResetZeroesCountsAndExemplarsInPlace) {
  LatencyHistogram h{{1.0, 10.0}};
  h.observe_exemplar(0.5, 42);
  h.observe(5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket(0), 0u);
  EXPECT_EQ(h.exemplar(0), 0u);
  EXPECT_EQ(h.bucket_count(), 3u);  // layout survives
}

TEST(LatencyHistogram, ExponentialBounds) {
  const auto bounds = exponential_bounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(Registry, SameNameSameLabelsSameInstance) {
  Registry r;
  Counter& a = r.counter("requests");
  Counter& b = r.counter("requests");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
}

TEST(Registry, LabelsDistinguishSeries) {
  Registry r;
  Counter& fwd = r.counter("link_util", {{"dir", "fwd"}});
  Counter& rev = r.counter("link_util", {{"dir", "rev"}});
  EXPECT_NE(&fwd, &rev);
  fwd.add(1);
  rev.add(2);
  EXPECT_EQ(fwd.value(), 1u);
  EXPECT_EQ(rev.value(), 2u);
}

TEST(Registry, KindMismatchThrows) {
  Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), std::invalid_argument);
  EXPECT_THROW(r.histogram("x", {1.0}), std::invalid_argument);
}

TEST(Registry, SnapshotCarriesKindAndLabels) {
  Registry r;
  r.counter("c", {{"k", "v"}}).add(3);
  r.gauge("g").set(1.5);
  r.histogram("h", {1.0, 10.0}).observe(0.5);
  const auto samples = r.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  bool saw_counter = false;
  for (const auto& s : samples) {
    if (s.name == "c") {
      saw_counter = true;
      EXPECT_EQ(s.kind, MetricSample::Kind::kCounter);
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels[0].first, "k");
      EXPECT_DOUBLE_EQ(s.value, 3.0);
    }
  }
  EXPECT_TRUE(saw_counter);
}

TEST(Registry, JsonExportParses) {
  Registry r;
  r.counter("flows \"quoted\"", {{"topo", "fat\ntree"}}).add(12);
  r.gauge("depth").set(3.25);
  r.histogram("lat", exponential_bounds(1e-3, 10.0, 4)).observe(0.05);
  const JsonValue doc = json_parse(r.to_json());
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.at("metrics").is_array());
  EXPECT_EQ(doc.at("metrics").array.size(), 3u);
  bool saw_hist = false;
  for (const auto& m : doc.at("metrics").array) {
    if (m.at("name").string == "lat") {
      saw_hist = true;
      EXPECT_EQ(m.at("kind").string, "histogram");
      EXPECT_DOUBLE_EQ(m.at("count").number, 1.0);
    }
    if (m.at("name").string == "flows \"quoted\"") {
      EXPECT_EQ(m.at("labels").at("topo").string, "fat\ntree");
    }
  }
  EXPECT_TRUE(saw_hist);
}

TEST(Registry, ClearEmptiesSnapshot) {
  Registry r;
  r.counter("c").add(1);
  r.clear();
  EXPECT_TRUE(r.snapshot().empty());
}

TEST(Registry, ResetForTestZeroesInPlaceKeepingIdentity) {
  Registry r;
  Counter& c = r.counter("c");
  Gauge& g = r.gauge("g");
  LatencyHistogram& h = r.histogram("h", {1.0, 10.0});
  c.add(5);
  g.set(2.0);
  h.observe_exemplar(0.5, 42);
  r.reset_for_test();
  // Unlike clear(), references cached by instrumentation sites stay valid
  // and keep pointing at the same (now zeroed) metric objects.
  EXPECT_EQ(&r.counter("c"), &c);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.exemplar(0), 0u);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(r.snapshot().size(), 3u);  // entries survive, values zeroed
}

TEST(EnabledFlag, DefaultsOffAndToggles) {
  // The global default must be off so unobserved runs skip all telemetry.
  // (Other tests may have toggled it; assert the toggle works and restore.)
  const bool before = enabled();
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(before);
}

TEST(NoopTypes, AcceptTheSameCallsAsRealOnes) {
  // The concept static_asserts in metrics.hpp enforce interface parity at
  // compile time; this exercises the calls so the symbols are used.
  NoopCounter c;
  c.add();
  c.add(5);
  EXPECT_EQ(c.value(), 0u);
  NoopGauge g;
  g.set(1.0);
  g.add(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  NoopHistogram h;
  h.observe(3.0);
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace rb::obs
