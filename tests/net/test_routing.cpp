#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/hash.hpp"

namespace rb::net {
namespace {

std::vector<LinkId> route_of(const Router& router, NodeId src, NodeId dst,
                             std::uint64_t flow_hash) {
  std::vector<LinkId> links;
  router.path(src, dst, flow_hash, links);
  return links;
}

TEST(Router, DistanceOnStar) {
  const auto topo = make_star(4);
  const Router router{topo};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  EXPECT_EQ(router.distance(hosts[0], hosts[1]), 2);
  EXPECT_EQ(router.distance(hosts[0], hosts[0]), 0);
}

TEST(Router, PathIsEmptyForSelf) {
  const auto topo = make_star(2);
  const Router router{topo};
  EXPECT_TRUE(route_of(router, 0, 0, 1).empty());
  // The output buffer is overwritten, not appended to.
  std::vector<LinkId> reused{7, 8, 9};
  router.path(0, 0, 1, reused);
  EXPECT_TRUE(reused.empty());
}

TEST(Router, UnreachableThrows) {
  Topology topo;
  topo.add_node(NodeKind::kHost, "a");
  topo.add_node(NodeKind::kHost, "b");
  const Router router{topo};
  EXPECT_THROW(router.distance(0, 1), std::runtime_error);
}

TEST(Router, PathConnectsEndpoints) {
  const auto topo = make_fat_tree(4);
  const Router router{topo};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  const NodeId src = hosts.front();
  const NodeId dst = hosts.back();
  const auto links = route_of(router, src, dst, 12345);
  ASSERT_FALSE(links.empty());
  // Walk the path: it must start at src and end at dst.
  NodeId at = src;
  for (const LinkId l : links) {
    const auto& link = topo.link(l);
    ASSERT_TRUE(link.a == at || link.b == at);
    at = link.a == at ? link.b : link.a;
  }
  EXPECT_EQ(at, dst);
  EXPECT_EQ(static_cast<int>(links.size()), router.distance(src, dst));
}

TEST(Router, PathLengthsInFatTreeAreCanonical) {
  const auto topo = make_fat_tree(4);
  const Router router{topo};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  std::set<int> lengths;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      if (i == j) continue;
      lengths.insert(router.distance(hosts[i], hosts[j]));
    }
  }
  // Same edge switch: 2 hops; same pod: 4; cross pod: 6.
  EXPECT_EQ(lengths, (std::set<int>{2, 4, 6}));
}

TEST(Router, EcmpSpreadsAcrossCores) {
  const auto topo = make_fat_tree(8);
  const Router router{topo};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  // Cross-pod pair: many equal-cost paths; different flow hashes should
  // choose several distinct paths.
  const NodeId src = hosts.front();
  const NodeId dst = hosts.back();
  std::set<std::vector<LinkId>> distinct;
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    distinct.insert(route_of(router, src, dst, sim::mix64(flow)));
  }
  EXPECT_GT(distinct.size(), 4u);
}

TEST(Router, SameHashSamePath) {
  const auto topo = make_fat_tree(4);
  const Router router{topo};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  const auto p1 = route_of(router, hosts[0], hosts[10], 777);
  const auto p2 = route_of(router, hosts[0], hosts[10], 777);
  EXPECT_EQ(p1, p2);
  // A reused buffer holding another route yields the same path.
  std::vector<LinkId> reused = route_of(router, hosts[3], hosts[12], 5);
  router.path(hosts[0], hosts[10], 777, reused);
  EXPECT_EQ(reused, p1);
}

/// Every hop path() takes moves one hop closer to the destination, for
/// many flow hashes: each link's far end is at distance d - 1 when its near
/// end is at distance d.
TEST(Router, NextHopsAllOneCloser) {
  for (const int k : {4, 8}) {
    const auto topo = make_fat_tree(k);
    const Router router{topo};
    const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
    const NodeId src = hosts[0];
    std::vector<LinkId> links;
    for (const NodeId dst : {hosts[1], hosts[hosts.size() / 2], hosts.back()}) {
      for (std::uint64_t flow = 0; flow < 256; ++flow) {
        router.path(src, dst, sim::mix64(flow), links);
        ASSERT_EQ(static_cast<int>(links.size()), router.distance(src, dst));
        NodeId at = src;
        for (const LinkId l : links) {
          const auto& link = topo.link(l);
          ASSERT_TRUE(link.a == at || link.b == at);
          const NodeId next = link.a == at ? link.b : link.a;
          EXPECT_EQ(router.distance(next, dst), router.distance(at, dst) - 1);
          at = next;
        }
        EXPECT_EQ(at, dst);
      }
    }
  }
}

}  // namespace
}  // namespace rb::net
