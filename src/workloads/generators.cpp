#include "workloads/generators.hpp"

#include <cmath>
#include <stdexcept>

namespace rb::workloads {

std::string zipf_document(std::size_t words, std::size_t vocabulary, double s,
                          std::uint64_t seed) {
  if (vocabulary == 0)
    throw std::invalid_argument{"zipf_document: empty vocabulary"};
  sim::Rng rng{seed};
  const sim::ZipfDistribution zipf{vocabulary, s};
  std::string doc;
  doc.reserve(words * 6);
  for (std::size_t i = 0; i < words; ++i) {
    if (i > 0) doc += ' ';
    doc += 'w';
    doc += std::to_string(zipf(rng));
  }
  return doc;
}

std::vector<std::string> incident_patterns() {
  return {"ERROR 503", "timeout upstream", "OOM killer", "segfault",
          "disk full"};
}

std::vector<std::string> web_log(std::size_t lines, std::uint64_t seed) {
  sim::Rng rng{seed};
  const sim::ZipfDistribution path_dist{1000, 1.1};
  const auto incidents = incident_patterns();
  std::vector<std::string> out;
  out.reserve(lines);
  std::int64_t ts = 1'480'000'000'000;  // late 2016, the paper's era
  for (std::size_t i = 0; i < lines; ++i) {
    ts += static_cast<std::int64_t>(rng.exponential(12.0));
    std::string line = std::to_string(ts);
    line += " 10.";
    line += std::to_string(rng.uniform_index(256));
    line += '.';
    line += std::to_string(rng.uniform_index(256));
    line += '.';
    line += std::to_string(rng.uniform_index(256));
    line += " GET /page/";
    line += std::to_string(path_dist(rng));
    if (rng.chance(0.015)) {
      line += " 503 0 ";
      line += incidents[rng.uniform_index(incidents.size())];
    } else {
      line += " 200 ";
      line += std::to_string(
          static_cast<std::uint64_t>(rng.bounded_pareto(1.3, 200.0, 2e6)));
    }
    out.push_back(std::move(line));
  }
  return out;
}

std::vector<SensorReading> sensor_stream(std::size_t count,
                                         std::uint32_t sensors,
                                         double anomaly_rate,
                                         std::uint64_t seed) {
  if (sensors == 0) throw std::invalid_argument{"sensor_stream: no sensors"};
  if (anomaly_rate < 0.0 || anomaly_rate > 1.0)
    throw std::invalid_argument{"sensor_stream: anomaly_rate out of [0, 1]"};
  sim::Rng rng{seed};
  std::vector<SensorReading> out;
  out.reserve(count);
  std::int64_t ts = 0;
  for (std::size_t i = 0; i < count; ++i) {
    SensorReading r;
    r.sensor_id = static_cast<std::uint32_t>(rng.uniform_index(sensors));
    ts += static_cast<std::int64_t>(rng.exponential(5.0)) + 1;
    r.timestamp_ms = ts;
    const double phase =
        static_cast<double>(ts) / 60'000.0 + r.sensor_id * 0.7;
    r.value = 20.0 + 5.0 * std::sin(phase) + rng.normal(0.0, 0.4);
    if (rng.chance(anomaly_rate)) {
      r.value += (rng.chance(0.5) ? 1.0 : -1.0) * rng.uniform(8.0, 20.0);
      r.anomaly = true;
    }
    out.push_back(r);
  }
  return out;
}

RelationalTables order_tables(std::size_t orders, double lineitems_per_order,
                              double key_skew, std::uint64_t seed) {
  if (orders == 0) throw std::invalid_argument{"order_tables: no orders"};
  if (lineitems_per_order <= 0.0)
    throw std::invalid_argument{"order_tables: lineitems_per_order <= 0"};
  sim::Rng rng{seed};
  RelationalTables tables;
  tables.orders.reserve(orders);
  for (std::size_t i = 0; i < orders; ++i) {
    // Order ids start at 1 (0 is a valid but boring key for hash tables).
    tables.orders.push_back(Row{static_cast<std::uint64_t>(i + 1),
                                rng.uniform_index(orders / 10 + 1)});
  }
  const auto n_items =
      static_cast<std::size_t>(static_cast<double>(orders) *
                               lineitems_per_order);
  const sim::ZipfDistribution order_pick{orders, key_skew};
  tables.lineitems.reserve(n_items);
  for (std::size_t i = 0; i < n_items; ++i) {
    const std::uint64_t order_id = order_pick(rng) + 1;
    tables.lineitems.push_back(Row{order_id, 100 + rng.uniform_index(99'900)});
  }
  return tables;
}

QueryTables order_query_tables(std::size_t orders,
                               double lineitems_per_order, double key_skew,
                               std::uint64_t seed) {
  const auto rel = order_tables(orders, lineitems_per_order, key_skew, seed);
  const auto table = [](const std::vector<Row>& rows, const char* payload) {
    std::vector<std::int64_t> keys, payloads;
    keys.reserve(rows.size());
    payloads.reserve(rows.size());
    for (const auto& r : rows) {
      keys.push_back(static_cast<std::int64_t>(r.key));
      payloads.push_back(static_cast<std::int64_t>(r.payload));
    }
    query::Table t;
    t.add_int_column("order_id", std::move(keys));
    t.add_int_column(payload, std::move(payloads));
    return t;
  };
  return {table(rel.orders, "customer"), table(rel.lineitems, "amount")};
}

std::vector<Edge> rmat_graph(int scale, std::size_t edges,
                             std::uint64_t seed) {
  if (scale <= 0 || scale > 30)
    throw std::invalid_argument{"rmat_graph: scale out of (0, 30]"};
  sim::Rng rng{seed};
  constexpr double a = 0.57, b = 0.19, c = 0.19;
  std::vector<Edge> out;
  out.reserve(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    std::uint32_t src = 0, dst = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double u = rng.uniform();
      src <<= 1;
      dst <<= 1;
      if (u < a) {
        // top-left quadrant: neither bit set
      } else if (u < a + b) {
        dst |= 1;
      } else if (u < a + b + c) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    out.push_back(Edge{src, dst});
  }
  return out;
}

LabeledPoints gaussian_blobs(std::size_t points, std::size_t dims,
                             std::size_t clusters, double spread,
                             std::uint64_t seed) {
  if (points == 0 || dims == 0)
    throw std::invalid_argument{"gaussian_blobs: empty request"};
  if (clusters == 0 || clusters > 256 || clusters > points)
    throw std::invalid_argument{"gaussian_blobs: bad cluster count"};
  sim::Rng rng{seed};
  // Blob centers on a deterministic lattice scaled apart.
  accel::Matrix centers;
  centers.rows = clusters;
  centers.cols = dims;
  centers.values.resize(clusters * dims);
  for (std::size_t c = 0; c < clusters; ++c) {
    for (std::size_t d = 0; d < dims; ++d) {
      centers.values[c * dims + d] =
          static_cast<double>((c * 7 + d * 3) % (clusters * 2)) * 10.0;
    }
  }
  LabeledPoints out;
  out.points.rows = points;
  out.points.cols = dims;
  out.points.values.resize(points * dims);
  out.labels.resize(points);
  for (std::size_t i = 0; i < points; ++i) {
    const auto c = static_cast<std::size_t>(rng.uniform_index(clusters));
    out.labels[i] = static_cast<std::uint8_t>(c);
    for (std::size_t d = 0; d < dims; ++d) {
      out.points.values[i * dims + d] =
          centers.values[c * dims + d] + rng.normal(0.0, spread);
    }
  }
  return out;
}

}  // namespace rb::workloads
