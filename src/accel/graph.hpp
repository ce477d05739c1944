#pragma once
// Graph-processing building blocks (Rec 10; the benchmark suite's graph
// workload): CSR adjacency built from an edge list, and PageRank by power
// iteration.

#include <cstdint>
#include <span>
#include <vector>

namespace rb::accel {

struct GraphEdge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

/// Compressed-sparse-row directed graph. Vertices are 0..num_vertices-1;
/// vertex count is max endpoint + 1 unless given explicitly.
class CsrGraph {
 public:
  /// Build from an edge list. `vertices == 0` infers the count.
  explicit CsrGraph(std::span<const GraphEdge> edges,
                    std::uint32_t vertices = 0);

  std::uint32_t num_vertices() const noexcept {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  std::uint64_t num_edges() const noexcept { return targets_.size(); }

  /// Out-neighbors of `v`.
  std::span<const std::uint32_t> neighbors(std::uint32_t v) const {
    return {targets_.data() + offsets_.at(v),
            offsets_.at(v + 1) - offsets_.at(v)};
  }

  std::uint64_t out_degree(std::uint32_t v) const {
    return offsets_.at(v + 1) - offsets_.at(v);
  }

 private:
  std::vector<std::uint64_t> offsets_;  // size V+1
  std::vector<std::uint32_t> targets_;  // size E
};

struct PageRankResult {
  std::vector<double> ranks;  // sums to ~1
  int iterations_run = 0;
  double last_delta = 0.0;  // L1 change in the final iteration
};

/// Power-iteration PageRank with damping `d`, uniform teleport, dangling
/// mass redistributed uniformly. Stops at `max_iters` or L1 delta < `tol`.
PageRankResult pagerank(const CsrGraph& graph, double d = 0.85,
                        int max_iters = 50, double tol = 1e-8);

}  // namespace rb::accel
