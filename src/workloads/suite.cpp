#include "workloads/suite.hpp"

#include <stdexcept>

#include "accel/compression.hpp"
#include "accel/graph.hpp"
#include "accel/ml.hpp"
#include "accel/sort.hpp"
#include "accel/text.hpp"
#include "node/energy.hpp"
#include "obs/trace.hpp"
#include "query/exec/plan.hpp"
#include "workloads/generators.hpp"

namespace rb::workloads {

std::vector<SuiteEntry> standard_suite(double scale) {
  if (scale <= 0.0)
    throw std::invalid_argument{"standard_suite: scale must be positive"};
  const auto n = [scale](double base) {
    return static_cast<std::uint64_t>(base * scale);
  };
  return {
      {"wordcount", accel::BlockKind::kGroupAggregate, n(2e6), 8.0},
      {"log-scan", accel::BlockKind::kPatternMatch, n(4e5), 64.0},
      {"join", accel::BlockKind::kHashJoin, n(1e6), 16.0},
      {"sort", accel::BlockKind::kSort, n(2e6), 8.0},
      {"kmeans", accel::BlockKind::kKMeans, n(1e5), 64.0},
      {"inference", accel::BlockKind::kDnnInference, n(2e4), 256.0},
      {"pagerank", accel::BlockKind::kPageRank, n(5e5), 8.0},
      {"compress", accel::BlockKind::kCompression, n(2e6), 8.0},
  };
}

namespace {

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(obs::wall_now_ns() - t0_ns) * 1e-9;
}

}  // namespace

std::vector<MeasuredResult> run_measured_suite(double scale,
                                               std::uint64_t seed) {
  std::vector<MeasuredResult> out;
  const auto entries = standard_suite(scale);

  for (const auto& entry : entries) {
    MeasuredResult r;
    r.workload = entry.workload;
    r.rows = entry.rows;
    const std::int64_t t0 = obs::wall_now_ns();

    if (entry.workload == "wordcount") {
      const auto doc = zipf_document(entry.rows, 50'000, 1.05, seed);
      const auto tokens = accel::tokenize(doc);
      // Count through the engine's group-aggregate on hashed tokens; COUNT
      // reads no values, so the key column doubles as the value column.
      std::vector<std::int64_t> words;
      words.reserve(tokens.size());
      for (const auto& t : tokens) {
        words.push_back(
            static_cast<std::int64_t>(std::hash<std::string_view>{}(t)));
      }
      query::Table table;
      table.add_int_column("word", std::move(words));
      r.checksum = query::exec::PlanBuilder{std::move(table)}
                       .group_by("word", query::Aggregate::kCount, "word", "n")
                       .build()
                       .run()
                       .row_count();
    } else if (entry.workload == "log-scan") {
      const auto lines = web_log(entry.rows, seed);
      const accel::PatternMatcher matcher{incident_patterns()};
      std::uint64_t hits = 0;
      for (const auto& line : lines) hits += matcher.count_matches(line);
      r.checksum = hits;
    } else if (entry.workload == "join") {
      auto tables = order_query_tables(entry.rows / 4, 4.0, 0.5, seed);
      r.checksum = query::exec::PlanBuilder{std::move(tables.lineitems)}
                       .join(std::move(tables.orders), "order_id", "order_id")
                       .build()
                       .run()
                       .row_count();
    } else if (entry.workload == "sort") {
      sim::Rng rng{seed};
      std::vector<std::uint64_t> keys(entry.rows);
      for (auto& k : keys) k = rng();
      accel::radix_sort(keys);
      r.checksum = keys.empty() ? 0 : keys.front() ^ keys.back();
    } else if (entry.workload == "kmeans") {
      const auto data = gaussian_blobs(entry.rows, 8, 8, 1.0, seed);
      const auto km = accel::kmeans(data.points, 8, 10, seed);
      r.checksum = static_cast<std::uint64_t>(km.inertia);
    } else if (entry.workload == "pagerank") {
      const auto edges = rmat_graph(16, entry.rows, seed);
      std::vector<accel::GraphEdge> gedges;
      gedges.reserve(edges.size());
      for (const auto& e : edges) {
        gedges.push_back(accel::GraphEdge{e.src, e.dst});
      }
      const accel::CsrGraph graph{gedges};
      const auto pr = accel::pagerank(graph, 0.85, 10);
      r.checksum = static_cast<std::uint64_t>(pr.ranks.size()) ^
                   static_cast<std::uint64_t>(pr.iterations_run);
    } else if (entry.workload == "compress") {
      const auto readings = sensor_stream(entry.rows, 64, 0.01, seed);
      std::vector<std::uint64_t> column;
      column.reserve(readings.size());
      for (const auto& s : readings) {
        // Quantized sensor values: realistic low-cardinality column.
        column.push_back(static_cast<std::uint64_t>(s.value));
      }
      const auto runs = accel::rle_encode(column);
      std::vector<std::uint32_t> ids;
      ids.reserve(readings.size());
      for (const auto& s : readings) ids.push_back(s.sensor_id);
      const auto packed = accel::bitpack(ids, accel::bits_needed(63));
      r.checksum = runs.size() ^ packed.size();
    } else if (entry.workload == "inference") {
      const auto data = gaussian_blobs(entry.rows, 32, 2, 2.0, seed);
      const auto model =
          accel::sgd_logistic(data.points, data.labels, 3, 0.05, seed);
      std::uint64_t correct = 0;
      for (std::size_t i = 0; i < data.points.rows; ++i) {
        const double p = accel::logistic_predict(model, data.points.row(i));
        correct += static_cast<std::uint64_t>((p > 0.5) == (data.labels[i] == 1));
      }
      r.checksum = correct;
    } else {
      throw std::logic_error{"run_measured_suite: unknown workload"};
    }

    r.seconds = seconds_since(t0);
    r.mrows_per_second =
        r.seconds > 0.0 ? static_cast<double>(r.rows) / r.seconds / 1e6 : 0.0;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ProjectedResult> project_suite(
    const std::vector<node::DeviceModel>& catalog, accel::CodePath path,
    double scale) {
  std::vector<ProjectedResult> out;
  for (const auto& entry : standard_suite(scale)) {
    // Host CPU reference.
    const node::DeviceModel cpu = node::find_device(node::DeviceKind::kCpu);
    const auto cpu_time = accel::block_time(
        cpu, entry.block, entry.rows, accel::CodePath::kDeviceTuned,
        entry.bytes_per_row);
    for (const auto& device : catalog) {
      if (!accel::supports(device.kind, entry.block)) continue;
      const auto effective_path = device.kind == node::DeviceKind::kCpu
                                      ? accel::CodePath::kDeviceTuned
                                      : path;
      const auto t = accel::block_time(device, entry.block, entry.rows,
                                       effective_path, entry.bytes_per_row);
      ProjectedResult p;
      p.workload = entry.workload;
      p.device = device.name;
      p.seconds = sim::to_seconds(t);
      p.speedup_vs_cpu =
          static_cast<double>(cpu_time) / static_cast<double>(t);
      p.joules = node::power_at(device, 1.0) * p.seconds;
      out.push_back(std::move(p));
    }
  }
  return out;
}

}  // namespace rb::workloads
