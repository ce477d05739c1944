// End-to-end pipelines across module boundaries: generators -> dataflow
// framework -> accelerated building blocks and the query engine, the full
// "analytics stack" the roadmap's software-support section describes.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "accel/text.hpp"
#include "dataflow/dataset.hpp"
#include "query/exec/plan.hpp"
#include "workloads/generators.hpp"

namespace rb {
namespace {

TEST(Pipelines, WordCountViaDataflowMatchesAggregateBlock) {
  const auto doc = workloads::zipf_document(20000, 500, 1.1, 42);
  const auto tokens = accel::tokenize(doc);

  // Path A: the dataflow framework.
  dataflow::Context ctx{4};
  std::vector<std::string> words;
  words.reserve(tokens.size());
  for (const auto& t : tokens) words.emplace_back(t);
  auto ds = dataflow::Dataset<std::string>::from_vector(ctx, words);
  auto keyed = ds.map([](const std::string& w) {
    return std::make_pair(w, std::uint64_t{1});
  });
  const auto counted = dataflow::reduce_by_key(
      keyed, [](std::uint64_t a, std::uint64_t b) { return a + b; });

  // Path B: the query engine's group-aggregate.
  query::Table table;
  table.add_string_column("word", words);
  table.add_int_column("one", std::vector<std::int64_t>(words.size(), 1));
  const auto agg = query::exec::PlanBuilder{std::move(table)}
                       .group_by("word", query::Aggregate::kCount, "one", "n")
                       .build()
                       .run();

  // Every word has the same count on both paths.
  std::map<std::string, std::uint64_t> dataflow_counts, engine_counts;
  for (const auto& [w, c] : counted.collect()) dataflow_counts[w] = c;
  for (std::size_t i = 0; i < agg.row_count(); ++i) {
    engine_counts[agg.strings("word")[i]] =
        static_cast<std::uint64_t>(agg.ints("n")[i]);
  }
  EXPECT_GT(engine_counts.size(), 100u);
  EXPECT_EQ(dataflow_counts, engine_counts);
}

TEST(Pipelines, RelationalJoinViaDataflowMatchesBlock) {
  const auto tables = workloads::order_tables(2000, 3.0, 0.8, 7);

  // Query-engine path.
  const auto query_tables = workloads::order_query_tables(2000, 3.0, 0.8, 7);
  const auto engine_rows =
      query::exec::PlanBuilder{query_tables.lineitems}
          .join(query_tables.orders, "order_id", "order_id")
          .build()
          .run()
          .row_count();

  // Dataflow path.
  dataflow::Context ctx{4};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> orders, items;
  for (const auto& o : tables.orders) orders.emplace_back(o.key, o.payload);
  for (const auto& l : tables.lineitems) items.emplace_back(l.key, l.payload);
  auto ods =
      dataflow::Dataset<std::pair<std::uint64_t, std::uint64_t>>::from_vector(
          ctx, orders);
  auto ids =
      dataflow::Dataset<std::pair<std::uint64_t, std::uint64_t>>::from_vector(
          ctx, items);
  const auto joined = dataflow::join(ods, ids);
  EXPECT_EQ(joined.size(), engine_rows);
}

TEST(Pipelines, LogScanThroughDataflow) {
  const auto lines = workloads::web_log(5000, 3);
  const accel::PatternMatcher matcher{workloads::incident_patterns()};

  // Reference: sequential scan.
  std::uint64_t reference = 0;
  for (const auto& line : lines) reference += matcher.count_matches(line);

  // Dataflow: parallel map + fold.
  dataflow::Context ctx{8};
  auto ds = dataflow::Dataset<std::string>::from_vector(ctx, lines);
  const auto hits = ds.map([&matcher](const std::string& line) {
    return matcher.count_matches(line);
  });
  const auto plus = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  EXPECT_EQ(hits.fold(std::uint64_t{0}, plus, plus), reference);
}

TEST(Pipelines, SensorAnomalyDetectionRecallAndPrecision) {
  // IoT stream -> filter block: a simple threshold detector must find most
  // injected anomalies (they are large level shifts).
  const auto readings = workloads::sensor_stream(30000, 32, 0.02, 9);
  dataflow::Context ctx{4};
  auto ds = dataflow::Dataset<workloads::SensorReading>::from_vector(
      ctx, readings);
  const auto flagged = ds.filter([](const workloads::SensorReading& r) {
    return std::abs(r.value - 20.0) > 7.0;
  });
  std::size_t true_pos = 0, false_pos = 0;
  for (const auto& r : flagged.collect()) {
    (r.anomaly ? true_pos : false_pos)++;
  }
  std::size_t total_anomalies = 0;
  for (const auto& r : readings) total_anomalies += r.anomaly;
  ASSERT_GT(total_anomalies, 0u);
  const double recall =
      static_cast<double>(true_pos) / static_cast<double>(total_anomalies);
  EXPECT_GT(recall, 0.5);
  const double precision =
      static_cast<double>(true_pos) /
      static_cast<double>(true_pos + false_pos);
  EXPECT_GT(precision, 0.5);
}

TEST(Pipelines, GraphDegreeViaDataflow) {
  const auto edges = workloads::rmat_graph(10, 20000, 11);
  dataflow::Context ctx{4};
  auto ds = dataflow::Dataset<workloads::Edge>::from_vector(ctx, edges);
  auto keyed = ds.map([](const workloads::Edge& e) {
    return std::make_pair(e.src, std::uint64_t{1});
  });
  const auto degrees = dataflow::reduce_by_key(
      keyed, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  std::uint64_t total = 0;
  for (const auto& [v, d] : degrees.collect()) total += d;
  EXPECT_EQ(total, 20000u);  // every edge counted exactly once
}

}  // namespace
}  // namespace rb
