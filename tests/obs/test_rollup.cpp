// Windowed time-series rollups and SLO burn-rate alerting: fixed-window
// bucketing, zero-filled gaps (the alert math must see rate-0 windows),
// JSON export, and the deterministic multi-window fire/clear semantics.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/rollup.hpp"

namespace rb::obs {
namespace {

TEST(WindowedSeries, BucketsByFixedWindow) {
  WindowedSeries s{10, WindowedSeries::Kind::kCounter};
  s.record(0, 1.0);
  s.record(9, 1.0);
  s.record(10, 1.0);
  const auto w = s.windows();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].start, 0);
  EXPECT_EQ(w[0].count, 2u);
  EXPECT_DOUBLE_EQ(w[0].sum, 2.0);
  EXPECT_EQ(w[1].start, 10);
  EXPECT_EQ(w[1].count, 1u);
}

TEST(WindowedSeries, GapsAppearAsZeroWindows) {
  WindowedSeries s{10, WindowedSeries::Kind::kCounter};
  s.record(5, 1.0);
  s.record(35, 1.0);
  const auto w = s.windows();
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[1].start, 10);
  EXPECT_EQ(w[1].count, 0u);
  EXPECT_EQ(w[2].count, 0u);
}

TEST(WindowedSeries, ValueKindTracksDistribution) {
  WindowedSeries s{100, WindowedSeries::Kind::kValue};
  s.record(10, 3.0);
  s.record(20, 1.0);
  s.record(30, 2.0);
  const auto w = s.windows();
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].count, 3u);
  EXPECT_DOUBLE_EQ(w[0].sum, 6.0);
  EXPECT_DOUBLE_EQ(w[0].min, 1.0);
  EXPECT_DOUBLE_EQ(w[0].max, 3.0);
  EXPECT_DOUBLE_EQ(w[0].last, 2.0);
  EXPECT_DOUBLE_EQ(w[0].mean(), 2.0);
}

TEST(WindowedSeries, NegativeTimestampsFloorToTheirWindow) {
  WindowedSeries s{10, WindowedSeries::Kind::kCounter};
  s.record(-1, 1.0);
  const auto w = s.windows();
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].start, -10);
}

TEST(WindowedSeries, SumRangeCoversIntersectingWindows) {
  WindowedSeries s{10, WindowedSeries::Kind::kCounter};
  for (std::int64_t t = 0; t < 50; t += 5) s.record(t, 1.0);  // 2 per window
  EXPECT_DOUBLE_EQ(s.sum_range(0, 50), 10.0);
  EXPECT_DOUBLE_EQ(s.sum_range(10, 30), 4.0);
  EXPECT_DOUBLE_EQ(s.sum_range(15, 16), 2.0);  // whole window intersects
  EXPECT_DOUBLE_EQ(s.sum_range(20, 20), 0.0);  // empty range
}

TEST(WindowedSeries, RejectsNonPositiveWindow) {
  EXPECT_THROW((WindowedSeries{0, WindowedSeries::Kind::kCounter}),
               std::invalid_argument);
}

TEST(Rollup, NamesKindsAndLookup) {
  Rollup r{10};
  r.counter("served").record(0, 1.0);
  r.gauge("depth").record(0, 4.0);
  EXPECT_EQ(r.names().size(), 2u);
  ASSERT_NE(r.find("served"), nullptr);
  EXPECT_EQ(r.find("served")->kind(), WindowedSeries::Kind::kCounter);
  EXPECT_EQ(r.find("missing"), nullptr);
  EXPECT_THROW(r.value("served"), std::invalid_argument);
}

TEST(Rollup, JsonExportParsesWithDenseWindows) {
  Rollup r{10};
  r.counter("served").record(0, 1.0);
  r.counter("served").record(25, 1.0);
  const JsonValue doc = json_parse(r.to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("window").number, 10.0);
  const auto& series = doc.at("series").array;
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].at("name").string, "served");
  EXPECT_EQ(series[0].at("kind").string, "counter");
  const auto& windows = series[0].at("windows").array;
  ASSERT_EQ(windows.size(), 3u);  // dense snapshot includes the gap window
  EXPECT_DOUBLE_EQ(windows[1].at("count").number, 0.0);
}

/// 0.9 objective (10% error budget), 10-tick windows, page at burn >= 5x —
/// i.e. >= 50% failures over BOTH the 2- and the 4-window lookbacks.
AlertParams test_params() {
  AlertParams p;
  p.objective = 0.9;
  p.window = 10;
  p.min_events = 4;
  p.rules = {BurnRateRule{"page", 5.0, 2, 4}};
  return p;
}

TEST(AlertEngine, FiresDuringOutageAndClearsAfterRepair) {
  AlertEngine e{test_params()};
  for (std::int64_t t = 0; t < 40; t += 2) e.record_good(t);   // healthy
  for (std::int64_t t = 40; t < 80; t += 2) e.record_bad(t);   // outage
  for (std::int64_t t = 80; t < 160; t += 2) e.record_good(t); // repaired
  const auto alerts = e.alerts(160);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "page");
  // Fires at t=60: the long lookback needs two bad windows to cross 50%.
  EXPECT_EQ(alerts[0].fired_at, 60);
  EXPECT_GE(alerts[0].burn_short, 5.0);
  EXPECT_GE(alerts[0].burn_long, 5.0);
  // Clears at t=100, once the short lookback is bad-free after the repair.
  EXPECT_FALSE(alerts[0].active());
  EXPECT_EQ(alerts[0].cleared_at, 100);
}

TEST(AlertEngine, ReplayIsPureAndMoreDataExtendsTheTimeline) {
  AlertEngine e{test_params()};
  for (std::int64_t t = 0; t < 40; t += 2) e.record_good(t);
  for (std::int64_t t = 40; t < 80; t += 2) e.record_bad(t);
  const auto a = e.alerts(80);
  const auto b = e.alerts(80);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].fired_at, b[0].fired_at);  // pure replay
  EXPECT_TRUE(a[0].active());               // nothing healed yet
  for (std::int64_t t = 80; t < 160; t += 2) e.record_good(t);
  const auto c = e.alerts(160);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].fired_at, a[0].fired_at);
  EXPECT_FALSE(c[0].active());
}

TEST(AlertEngine, EvaluatesClosedWindowsOnly) {
  AlertEngine e{test_params()};
  for (std::int64_t t = 0; t < 40; t += 2) e.record_good(t);
  for (std::int64_t t = 40; t < 80; t += 2) e.record_bad(t);
  // Horizon 65 closes only the windows ending at <= 60; the alert fires
  // exactly there, and a mid-window horizon must not peek further.
  const auto a = e.alerts(65);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].fired_at, 60);
  // Before any window where both lookbacks cross, nothing fires.
  EXPECT_TRUE(e.alerts(55).empty());
}

TEST(AlertEngine, MinEventsSuppressesStartupNoise) {
  AlertParams p = test_params();
  p.min_events = 1000;
  AlertEngine e{p};
  for (std::int64_t t = 0; t < 80; t += 2) e.record_bad(t);
  EXPECT_TRUE(e.alerts(80).empty());
}

TEST(AlertEngine, LongLookbackRejectsShortBlips) {
  AlertEngine e{test_params()};
  // One bad window inside a healthy run: the short lookback crosses, the
  // 4-window lookback never does, so no page.
  for (std::int64_t t = 0; t < 200; t += 2) {
    if (t >= 100 && t < 110) {
      e.record_bad(t);
    } else {
      e.record_good(t);
    }
  }
  EXPECT_TRUE(e.alerts(200).empty());
}

TEST(AlertEngine, BurnRateMatchesDefinition) {
  AlertEngine e{test_params()};
  e.record_good(5, 5);
  e.record_bad(5, 5);
  // 50% failures against a 10% budget = burning 5x the sustainable rate,
  // exactly the rule's threshold, so the first closed window fires.
  const auto alerts = e.alerts(30);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].fired_at, 10);
  EXPECT_DOUBLE_EQ(alerts[0].burn_short, 5.0);
  EXPECT_DOUBLE_EQ(alerts[0].burn_long, 5.0);
  EXPECT_EQ(alerts[0].cleared_at, 30);  // the short lookback ran empty
  e.clear();
  EXPECT_TRUE(e.alerts(30).empty());
}

TEST(AlertEngine, RejectsMisconfiguredParams) {
  AlertParams p = test_params();
  p.rules = {BurnRateRule{"bad", 10.0, 4, 2}};  // long < short
  EXPECT_THROW((AlertEngine{p}), std::invalid_argument);
  AlertParams q = test_params();
  q.rules.clear();
  q.objective = 1.0;  // no budget to burn
  EXPECT_THROW((AlertEngine{q}), std::invalid_argument);
}

}  // namespace
}  // namespace rb::obs
