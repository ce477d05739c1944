#pragma once
// Shortest-path routing with ECMP (equal-cost multi-path) selection.
//
// Routes are computed on hop count (all fabric links are "equal cost", as in
// a standard L3 Clos). For each destination we precompute the BFS distance
// field; next hops toward a destination are all neighbors one hop closer.
// Flows pick among equal-cost next hops with a deterministic hash of the
// flow id — the flow-level analogue of 5-tuple ECMP hashing.
//
// The router is failure-aware: dead links and dead nodes (see
// Topology::set_link_up / set_node_up) are excluded from the BFS, and all
// cached distance fields are invalidated whenever the topology's state epoch
// changes — the flow-level analogue of routing-protocol reconvergence.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/topology.hpp"

namespace rb::net {

/// Thrown when no path exists between two endpoints — either because the
/// topology is partitioned by construction or because failures disconnected
/// it. Derives from std::runtime_error so legacy catch sites keep working.
class NoRouteError : public std::runtime_error {
 public:
  explicit NoRouteError(const std::string& what) : std::runtime_error{what} {}
};

class Router {
 public:
  explicit Router(const Topology& topo);

  /// Hop distance from `from` to `to`; throws NoRouteError if unreachable.
  int distance(NodeId from, NodeId to) const;

  /// True if a live path exists from `from` to `to` (never throws).
  bool reachable(NodeId from, NodeId to) const;

  /// The links on the ECMP path chosen for `flow_hash` from `src` to `dst`,
  /// in order. Empty when src == dst. Throws NoRouteError if disconnected.
  std::vector<LinkId> path(NodeId src, NodeId dst,
                           std::uint64_t flow_hash) const;

  /// All equal-cost (neighbor, link) next hops from `at` toward `dst`.
  std::vector<std::pair<NodeId, LinkId>> next_hops(NodeId at, NodeId dst) const;

 private:
  void ensure_dist(NodeId dst) const;

  const Topology* topo_;
  // dist_[dst][node] = hops from node to dst; computed lazily per dst and
  // discarded wholesale when the topology's fault state changes.
  mutable std::vector<std::vector<int>> dist_;
  mutable std::vector<bool> computed_;
  mutable std::uint64_t epoch_ = 0;
};

}  // namespace rb::net
