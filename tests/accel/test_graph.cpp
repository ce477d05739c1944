#include "accel/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "workloads/generators.hpp"

namespace rb::accel {
namespace {

std::vector<GraphEdge> chain_edges(std::uint32_t n) {
  std::vector<GraphEdge> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    edges.push_back(GraphEdge{i, i + 1});
  }
  return edges;
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph g{std::span<const GraphEdge>{}};
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(CsrGraph, BuildsAdjacency) {
  const std::vector<GraphEdge> edges{{0, 1}, {0, 2}, {1, 2}, {2, 0}};
  const CsrGraph g{edges};
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(1), 1u);
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<std::uint32_t>(n0.begin(), n0.end()),
            (std::vector<std::uint32_t>{1, 2}));
}

TEST(CsrGraph, NeighborOrderIndependentOfInputOrder) {
  const std::vector<GraphEdge> a{{0, 2}, {0, 1}};
  const std::vector<GraphEdge> b{{0, 1}, {0, 2}};
  const CsrGraph ga{a}, gb{b};
  const auto na = ga.neighbors(0);
  const auto nb = gb.neighbors(0);
  EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
}

TEST(CsrGraph, RejectsOutOfRangeEdge) {
  const std::vector<GraphEdge> edges{{0, 5}};
  EXPECT_THROW(CsrGraph(edges, 3), std::invalid_argument);
}

TEST(CsrGraph, ExplicitVertexCountAddsIsolated) {
  const std::vector<GraphEdge> edges{{0, 1}};
  const CsrGraph g{edges, 10};
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.out_degree(9), 0u);
}

TEST(PageRank, RejectsBadParameters) {
  const CsrGraph g{chain_edges(3)};
  EXPECT_THROW(pagerank(g, 0.0), std::invalid_argument);
  EXPECT_THROW(pagerank(g, 1.0), std::invalid_argument);
  EXPECT_THROW(pagerank(g, 0.85, 0), std::invalid_argument);
}

TEST(PageRank, SumsToOne) {
  const auto edges = []{
    std::vector<GraphEdge> e;
    for (const auto& we : workloads::rmat_graph(10, 4000, 3)) {
      e.push_back(GraphEdge{we.src, we.dst});
    }
    return e;
  }();
  const CsrGraph g{edges};
  const auto pr = pagerank(g);
  const double total =
      std::accumulate(pr.ranks.begin(), pr.ranks.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  for (const double r : pr.ranks) EXPECT_GT(r, 0.0);
}

TEST(PageRank, SymmetricCycleIsUniform) {
  // A directed 4-cycle: perfectly symmetric, so all ranks equal.
  const std::vector<GraphEdge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const auto pr = pagerank(CsrGraph{edges});
  for (const double r : pr.ranks) EXPECT_NEAR(r, 0.25, 1e-9);
}

TEST(PageRank, SinkAttractsRank) {
  // Star pointing to vertex 0: it must hold the highest rank.
  const std::vector<GraphEdge> edges{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  const auto pr = pagerank(CsrGraph{edges});
  for (std::uint32_t v = 1; v <= 4; ++v) {
    EXPECT_GT(pr.ranks[0], pr.ranks[v]);
  }
}

TEST(PageRank, HandlesDanglingVertices) {
  // Vertex 2 has no out-edges; mass must not leak.
  const std::vector<GraphEdge> edges{{0, 1}, {1, 2}};
  const auto pr = pagerank(CsrGraph{edges});
  const double total =
      std::accumulate(pr.ranks.begin(), pr.ranks.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PageRank, ConvergesOnSmallGraph) {
  const auto pr = pagerank(CsrGraph{chain_edges(10)}, 0.85, 200, 1e-12);
  EXPECT_LT(pr.iterations_run, 200);
  EXPECT_LT(pr.last_delta, 1e-12);
}

}  // namespace
}  // namespace rb::accel
