#pragma once
// Synthetic Big Data workload generators (Rec 8: "Europe should address
// access to training data by encouraging the collection of open anonymized
// training data" — absent real traces, every experiment here runs on these
// deterministic synthetic equivalents; Rec 9 builds the benchmark suite on
// top of them).
//
// Four families matching the sectors interviewed by the project (Sec V.A):
// web/text (analytics), IoT sensor streams (automotive/telecom), relational
// order data (financial), and power-law graphs (social/web).

#include <cstdint>
#include <string>
#include <vector>

#include "accel/ml.hpp"  // Matrix
#include "query/table.hpp"
#include "sim/random.hpp"

namespace rb::workloads {

/// --- Text ---

/// `words` Zipf-distributed words ("w0", "w1", ...) over a `vocabulary` of
/// given size with exponent `s`, joined by spaces into one document.
std::string zipf_document(std::size_t words, std::size_t vocabulary, double s,
                          std::uint64_t seed);

/// Synthetic web-server log lines (timestamp, ip, path, status, bytes);
/// ~1-2% of lines contain one of the "incident" markers used by the
/// log-scan benchmark.
std::vector<std::string> web_log(std::size_t lines, std::uint64_t seed);

/// The incident markers web_log embeds (for PatternMatcher benchmarks).
std::vector<std::string> incident_patterns();

/// --- IoT streams ---

struct SensorReading {
  std::uint32_t sensor_id = 0;
  std::int64_t timestamp_ms = 0;
  double value = 0.0;
  bool anomaly = false;  // ground truth for detection benchmarks
};

/// `count` readings from `sensors` sensors: per-sensor sinusoidal baseline +
/// Gaussian noise, with `anomaly_rate` random level shifts.
std::vector<SensorReading> sensor_stream(std::size_t count,
                                         std::uint32_t sensors,
                                         double anomaly_rate,
                                         std::uint64_t seed);

/// --- Relational (financial / retail) ---

struct Row {
  std::uint64_t key = 0;
  std::uint64_t payload = 0;
};

/// Build (orders, lineitems) Row tables: orders keyed by order id with
/// customer payload; lineitems foreign-keyed to a Zipf-skewed subset of
/// orders (skew gives the hash join long match chains). lineitems.size() ==
/// orders.size() * lineitems_per_order on average.
struct RelationalTables {
  std::vector<Row> orders;     // key = order id, payload = customer
  std::vector<Row> lineitems;  // key = order id, payload = amount
};
RelationalTables order_tables(std::size_t orders, double lineitems_per_order,
                              double key_skew, std::uint64_t seed);

/// The same tables as query::Tables for the query layer.
struct QueryTables {
  query::Table orders;     // order_id, customer
  query::Table lineitems;  // order_id, amount
};
QueryTables order_query_tables(std::size_t orders,
                               double lineitems_per_order, double key_skew,
                               std::uint64_t seed);

/// --- Graphs ---

struct Edge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

/// R-MAT power-law graph with 2^scale vertices and `edges` edges
/// (a=0.57, b=c=0.19, d=0.05 — Graph500 parameters).
std::vector<Edge> rmat_graph(int scale, std::size_t edges, std::uint64_t seed);

/// --- ML feature data ---

/// `points` rows x `dims` features drawn from `clusters` Gaussian blobs;
/// labels[i] = blob of point i (useful for classification/clustering).
struct LabeledPoints {
  accel::Matrix points;
  std::vector<std::uint8_t> labels;  // blob index (uint8: <= 256 blobs)
};
LabeledPoints gaussian_blobs(std::size_t points, std::size_t dims,
                             std::size_t clusters, double spread,
                             std::uint64_t seed);

}  // namespace rb::workloads
