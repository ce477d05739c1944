#include "accel/graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rb::accel {

namespace {

std::uint32_t infer_vertices(std::span<const GraphEdge> edges,
                             std::uint32_t given) {
  if (given != 0) return given;
  std::uint32_t max_id = 0;
  for (const auto& e : edges) {
    max_id = std::max({max_id, e.src, e.dst});
  }
  return edges.empty() ? 0 : max_id + 1;
}

}  // namespace

CsrGraph::CsrGraph(std::span<const GraphEdge> edges, std::uint32_t vertices) {
  const std::uint32_t v = infer_vertices(edges, vertices);
  for (const auto& e : edges) {
    if (e.src >= v || e.dst >= v)
      throw std::invalid_argument{"CsrGraph: edge endpoint out of range"};
  }
  offsets_.assign(static_cast<std::size_t>(v) + 1, 0);
  for (const auto& e : edges) ++offsets_[e.src + 1];
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  targets_.resize(edges.size());
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& e : edges) {
    targets_[cursor[e.src]++] = e.dst;
  }
  // Deterministic neighbor order regardless of input edge order.
  for (std::uint32_t u = 0; u < v; ++u) {
    std::sort(targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]),
              targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]));
  }
}

PageRankResult pagerank(const CsrGraph& graph, double d, int max_iters,
                        double tol) {
  if (d <= 0.0 || d >= 1.0)
    throw std::invalid_argument{"pagerank: damping must be in (0, 1)"};
  if (max_iters <= 0)
    throw std::invalid_argument{"pagerank: max_iters must be positive"};
  const std::uint32_t v = graph.num_vertices();
  PageRankResult result;
  if (v == 0) return result;

  const double uniform = 1.0 / static_cast<double>(v);
  result.ranks.assign(v, uniform);
  std::vector<double> next(v, 0.0);

  for (int iter = 0; iter < max_iters; ++iter) {
    result.iterations_run = iter + 1;
    double dangling = 0.0;
    std::fill(next.begin(), next.end(), 0.0);
    for (std::uint32_t u = 0; u < v; ++u) {
      const auto nbrs = graph.neighbors(u);
      if (nbrs.empty()) {
        dangling += result.ranks[u];
        continue;
      }
      const double share =
          result.ranks[u] / static_cast<double>(nbrs.size());
      for (const auto w : nbrs) next[w] += share;
    }
    const double teleport =
        (1.0 - d) * uniform + d * dangling * uniform;
    double delta = 0.0;
    for (std::uint32_t u = 0; u < v; ++u) {
      const double updated = teleport + d * next[u];
      delta += std::abs(updated - result.ranks[u]);
      result.ranks[u] = updated;
    }
    result.last_delta = delta;
    if (delta < tol) break;
  }
  return result;
}

}  // namespace rb::accel
