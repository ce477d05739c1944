// Cross-layer integration: the storage engine, query layer, streaming
// engine and generators working as one stack — the "complete hardware-
// software solutions" Rec 5 asks co-design projects to build.

#include <gtest/gtest.h>

#include <map>

#include "dataflow/streaming.hpp"
#include "query/exec/plan.hpp"
#include "storage/lsm.hpp"
#include "workloads/generators.hpp"
#include "workloads/trace.hpp"

namespace rb {
namespace {

TEST(Stack, SensorReadingsThroughLsmAndQuery) {
  // Ingest an IoT stream into the LSM store keyed by zero-padded sequence,
  // range-scan a window back out, lift it into the query layer, and compute
  // per-sensor maxima — four modules, one consistent answer.
  const auto readings = workloads::sensor_stream(5000, 8, 0.02, 11);

  storage::LsmStore store;
  const auto key_of = [](std::size_t i) {
    auto key = std::to_string(i);
    return std::string(8 - key.size(), '0') + key;
  };
  for (std::size_t i = 0; i < readings.size(); ++i) {
    store.put(key_of(i),
              std::to_string(readings[i].sensor_id) + "," +
                  std::to_string(readings[i].value));
  }
  EXPECT_EQ(store.size(), readings.size());

  // Scan the middle 1000 readings back.
  const auto slice = store.scan(key_of(2000), key_of(3000));
  ASSERT_EQ(slice.size(), 1000u);

  std::vector<std::int64_t> sensor_ids;
  std::vector<std::int64_t> millivalues;
  for (const auto& [key, value] : slice) {
    const auto comma = value.find(',');
    sensor_ids.push_back(std::stoll(value.substr(0, comma)));
    millivalues.push_back(static_cast<std::int64_t>(
        std::stod(value.substr(comma + 1)) * 1000.0));
  }
  query::Table table;
  table.add_int_column("sensor", std::move(sensor_ids));
  table.add_int_column("mv", std::move(millivalues));
  const auto maxima =
      query::exec::PlanBuilder(std::move(table))
          .group_by("sensor", query::Aggregate::kMax, "mv", "peak")
          .build()
          .run();
  EXPECT_EQ(maxima.row_count(), 8u);

  // Reference: direct pass over the same slice of the original stream.
  std::map<std::int64_t, std::int64_t> reference;
  for (std::size_t i = 2000; i < 3000; ++i) {
    const auto mv =
        static_cast<std::int64_t>(readings[i].value * 1000.0);
    auto [it, inserted] = reference.try_emplace(readings[i].sensor_id, mv);
    if (!inserted) it->second = std::max(it->second, mv);
  }
  for (std::size_t r = 0; r < maxima.row_count(); ++r) {
    EXPECT_EQ(maxima.ints("peak")[r],
              reference.at(maxima.ints("sensor")[r]))
        << "sensor " << maxima.ints("sensor")[r];
  }
}

TEST(Stack, StreamingWindowsAgreeWithQueryAggregates) {
  // Windowed streaming sums over event time must equal a batch group-by
  // over (sensor, window) computed by the query layer.
  const auto readings = workloads::sensor_stream(20000, 4, 0.0, 13);
  constexpr dataflow::EventTime kWindow = 5000;

  // Streaming path.
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> streamed;
  dataflow::WindowedAggregator<std::uint32_t, std::int64_t, std::int64_t>
      agg{dataflow::WindowSpec{dataflow::WindowKind::kTumbling, kWindow,
                               kWindow, 0},
          0, [](std::int64_t a, const std::int64_t& v) { return a + v; },
          [&streamed](const dataflow::WindowResult<std::uint32_t,
                                                   std::int64_t>& r) {
            streamed[{static_cast<std::int64_t>(r.key), r.window_start}] +=
                r.value;
          }};
  for (const auto& r : readings) {
    agg.on_event(r.sensor_id, static_cast<std::int64_t>(r.value * 1000.0),
                 r.timestamp_ms);
  }
  agg.close();

  // Batch path through the query layer on a composite (sensor, window) key.
  std::vector<std::int64_t> keys, values;
  for (const auto& r : readings) {
    const std::int64_t window = r.timestamp_ms / kWindow * kWindow;
    keys.push_back(static_cast<std::int64_t>(r.sensor_id) * 1'000'000'000 +
                   window);
    values.push_back(static_cast<std::int64_t>(r.value * 1000.0));
  }
  query::Table table;
  table.add_int_column("key", std::move(keys));
  table.add_int_column("mv", std::move(values));
  const auto batch =
      query::exec::PlanBuilder(std::move(table))
          .group_by("key", query::Aggregate::kSum, "mv", "total")
          .build()
          .run();

  ASSERT_EQ(batch.row_count(), streamed.size());
  for (std::size_t r = 0; r < batch.row_count(); ++r) {
    const std::int64_t key = batch.ints("key")[r];
    const std::int64_t sensor = key / 1'000'000'000;
    const std::int64_t window = key % 1'000'000'000;
    EXPECT_EQ(batch.ints("total")[r], streamed.at({sensor, window}));
  }
}

TEST(Stack, TraceJobsRunEndToEndOnTheScheduler) {
  // The generated trace is consumable by the scheduling engine without any
  // manual fix-up (types, dependencies, arrivals all line up).
  workloads::TraceParams params;
  params.jobs = 10;
  params.max_input = 512 * sim::kMiB;
  auto trace = workloads::generate_trace(params, 3);
  EXPECT_EQ(trace.size(), 10u);
  for (const auto& job : trace) {
    EXPECT_GT(job.graph.stage_count(), 0u);
    EXPECT_GT(job.graph.total_tasks(), 0u);
  }
}

}  // namespace
}  // namespace rb
