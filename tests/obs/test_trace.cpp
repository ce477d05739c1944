// rb::obs trace recorder: disabled-by-default behaviour, event capture, and
// Chrome trace_event JSON export round-tripped through the JSON parser.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace rb::obs {
namespace {

TEST(TraceRecorder, DisabledRecordsNothing) {
  TraceRecorder tr;
  EXPECT_FALSE(tr.enabled());
  tr.complete("cat", "x", 1000, 500);
  tr.async_begin("cat", "f", 1, 0);
  tr.async_end("cat", "f", 1, 10);
  tr.instant("cat", "i", 5);
  EXPECT_EQ(tr.event_count(), 0u);
}

TEST(TraceRecorder, CapturesAllPhases) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.complete("net.flow", "xfer", 2'000'000, 1'000'000,
              {trace_arg("bytes", std::uint64_t{4096})});
  tr.async_begin("sched.task", "map", 7, 0);
  tr.async_end("sched.task", "map", 7, 3'000'000,
               {trace_arg("outcome", "ok")});
  tr.instant("faults", "reroute", 1'500'000);
  const auto events = tr.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].dur_ps, 1'000'000);
  EXPECT_EQ(events[1].phase, 'b');
  EXPECT_EQ(events[2].phase, 'e');
  EXPECT_EQ(events[2].id, 7u);
  EXPECT_EQ(events[3].phase, 'i');
  // Same category shares a track; different categories get distinct tracks.
  EXPECT_EQ(events[1].tid, events[2].tid);
  EXPECT_NE(events[0].tid, events[3].tid);
  // Wall clock is stamped at record time and never decreases.
  EXPECT_GE(events[3].wall_us, events[0].wall_us);
}

TEST(TraceRecorder, ChromeJsonRoundTrips) {
  TraceRecorder tr;
  tr.set_enabled(true);
  // Record out of sim-time order; export must sort by ts.
  tr.instant("faults", "late", 9'000'000);
  tr.complete("net.flow", "early \"quoted\"", 1'000'000, 2'000'000,
              {trace_arg("src", std::int64_t{3}),
               trace_arg("note", "a\nb")});
  tr.async_begin("net.flow", "f", 42, 4'000'000);
  tr.async_end("net.flow", "f", 42, 8'000'000);

  const JsonValue doc = json_parse(tr.to_chrome_json());
  ASSERT_TRUE(doc.is_object());
  const auto& evs = doc.at("traceEvents");
  ASSERT_TRUE(evs.is_array());

  double last_ts = -1.0;
  std::size_t meta = 0, data = 0;
  std::set<std::string> names;
  for (const auto& e : evs.array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(e.at("name").string, "thread_name");
      continue;
    }
    ++data;
    const double ts = e.at("ts").number;
    EXPECT_GE(ts, last_ts);  // sorted by sim time
    last_ts = ts;
    names.insert(e.at("name").string);
    EXPECT_TRUE(e.contains("args"));
    EXPECT_TRUE(e.at("args").contains("wall_us"));
    if (ph == "b" || ph == "e") {
      EXPECT_TRUE(e.contains("id"));
    }
  }
  EXPECT_EQ(data, 4u);
  EXPECT_EQ(meta, 2u);  // two category tracks -> two thread_name records
  EXPECT_TRUE(names.count("early \"quoted\""));

  // ts is exported in microseconds: the complete event started at 1e6 ps.
  bool found = false;
  for (const auto& e : evs.array) {
    if (e.at("ph").string == "X") {
      EXPECT_DOUBLE_EQ(e.at("ts").number, 1.0);
      EXPECT_DOUBLE_EQ(e.at("dur").number, 2.0);
      EXPECT_EQ(e.at("args").at("src").number, 3.0);
      EXPECT_EQ(e.at("args").at("note").string, "a\nb");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceRecorder, ClearDropsEventsButKeepsEnabled) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.instant("c", "x", 0);
  ASSERT_EQ(tr.event_count(), 1u);
  tr.clear();
  EXPECT_EQ(tr.event_count(), 0u);
  EXPECT_TRUE(tr.enabled());
  tr.instant("c", "y", 1);
  EXPECT_EQ(tr.event_count(), 1u);
}

TEST(TraceRecorder, WriteChromeJsonThrowsOnBadPath) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.instant("c", "x", 0);
  EXPECT_THROW(tr.write_chrome_json("/nonexistent-dir/trace.json"),
               std::runtime_error);
}

TEST(WallClock, IsMonotonic) {
  const auto a = wall_now_us();
  const auto b = wall_now_us();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

}  // namespace
}  // namespace rb::obs
